"""Trapezoidal fuzzy numbers, alpha-cut grids, and the one cut formula."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import Interval

__all__ = ["TrapezoidalFuzzyNumber", "AlphaGrid", "cut_ends"]


def cut_ends(a, b, c, d, alpha):
    """(lo, hi) of the alpha-cut of trapezoids (a, b, c, d): floats or arrays.

    The one cut formula. Each end is held to the core, which rounding at
    alpha 1 could push it past, putting lo above hi.
    """
    if not np.logical_and(0.0 <= alpha, alpha <= 1.0).all():
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = a + alpha * (b - a), d - alpha * (d - c)
    if not (np.isfinite(lo) & np.isfinite(hi)).all():
        raise ValueError("alpha-cut ends must be finite")
    return np.minimum(lo, b), np.maximum(hi, c)


@dataclass(frozen=True)
class TrapezoidalFuzzyNumber:
    """Fuzzy quantity with support [a, d] and core plateau [b, c].

    Membership rises linearly on [a, b], holds 1 on [b, c], falls
    linearly on [c, d]. Triangular (b == c) and crisp (a == b == c == d)
    shapes are the degenerate cases and are fully supported.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if -math.inf < self.a <= self.b <= self.c <= self.d < math.inf:
            return  # nan fails every comparison, so this is the whole check
        vals = (self.a, self.b, self.c, self.d)
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"trapezoid parameters must be finite, got {vals}")
        raise ValueError(f"trapezoid parameters must be ordered a <= b <= c <= d, got {vals}")

    @classmethod
    def crisp(cls, v: float) -> "TrapezoidalFuzzyNumber":
        return cls(v, v, v, v)

    @property
    def support(self) -> Interval:
        return Interval(self.a, self.d)

    @property
    def core(self) -> Interval:
        return Interval(self.b, self.c)

    def membership(self, x: float) -> float:
        if x < self.a or x > self.d:
            return 0.0
        if self.b <= x <= self.c:
            return 1.0
        if x < self.b:
            # a < b guaranteed here since x in [a, b) is nonempty
            return (x - self.a) / (self.b - self.a)
        return (self.d - x) / (self.d - self.c)


@dataclass(frozen=True)
class AlphaGrid:
    """Ordered set of membership levels at which fuzzy numbers get cut."""

    levels: tuple

    def __post_init__(self):
        if len(self.levels) == 0:
            raise ValueError("alpha grid must contain at least one level")
        prev = None
        for lv in self.levels:
            if not (math.isfinite(lv) and 0.0 <= lv <= 1.0):
                raise ValueError(f"alpha level {lv} outside [0, 1]")
            if prev is not None and lv <= prev:
                raise ValueError("alpha levels must be strictly increasing")
            prev = lv

    @classmethod
    def uniform(cls, n: int = 11) -> "AlphaGrid":
        """n evenly spaced levels from 0 to 1 inclusive."""
        if n < 2:
            raise ValueError(f"uniform grid needs at least 2 levels, got {n}")
        return cls(tuple(i / (n - 1) for i in range(n)))

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return len(self.levels)
