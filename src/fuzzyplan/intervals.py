"""Closed real intervals and their probabilistic ordering.

Intervals are the crisp values produced by cutting fuzzy numbers at a
membership level; ``prob_geq`` ranks two of them as the probability that
an independent uniform draw from the first is at least a uniform draw
from the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Interval", "midpoint", "prob_geq"]

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
    def width(self) -> float:
        return self.hi - self.lo

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


def prob_geq(a: Interval, b: Interval) -> float:
    """Probability that x >= y for x uniform on ``a``, y uniform on ``b``.

    Computed exactly as the area fraction of {(x, y) : x >= y} inside the
    rectangle a x b, via piecewise-linear integration of the CDF of y over
    ``a``. Degenerate intervals are handled as point masses; two coinciding
    points tie at 0.5.
    """
    wa, wb = a.width, b.width
    if wa == 0.0 and wb == 0.0:
        if a.lo > b.lo:
            return 1.0
        if a.lo < b.lo:
            return 0.0
        return 0.5
    if wa == 0.0:
        # P(y <= point)
        return _clamp01((a.lo - b.lo) / wb)
    if wb == 0.0:
        # P(x >= point)
        return _clamp01((a.hi - b.lo) / wa)

    def cdf_b(t: float) -> float:
        return _clamp01((t - b.lo) / wb)

    points = sorted({a.lo, a.hi, min(max(b.lo, a.lo), a.hi), min(max(b.hi, a.lo), a.hi)})
    area = 0.0
    for left, right in zip(points, points[1:]):
        area += 0.5 * (cdf_b(left) + cdf_b(right)) * (right - left)
    return _clamp01(area / wa)


def _clamp01(v: float) -> float:
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
