"""Closed real intervals and the one midpoint formula.

Intervals are the supports and cores of fuzzy numbers and the
confidence intervals of empirical distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Interval", "midpoint"]

# Absolute tolerance used for endpoint comparisons throughout the package.
ENDPOINT_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi; degenerate points allowed."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    @property
    def midpoint(self) -> float:
        return midpoint(self.lo, self.hi)

    def contains(self, other: "Interval", tol: float = ENDPOINT_TOL) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol


def midpoint(lo: float, hi: float) -> float:
    """The one midpoint formula, for an interval [lo, hi] of finite floats."""
    # halve before adding only where the sum overflows: halving a
    # subnormal endpoint first would drop its last bit
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi
