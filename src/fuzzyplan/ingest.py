"""Turn empirical data or Gaussian parameters into trapezoidal fuzzy numbers.

The pipeline is: raw samples or a binned histogram become a
piecewise-linear empirical CDF; two central equal-tail confidence
intervals cut from that CDF (a narrow "core" one and a wide "support"
one) give the four corners of a trapezoid. Gaussian parameters take an
analytic shortcut through the inverse normal CDF.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .fuzzy import TrapezoidalFuzzyNumber
from .intervals import Interval

__all__ = [
    "SampleSet",
    "BinnedHistogram",
    "EmpiricalCDF",
    "ecdf_from_samples",
    "ecdf_from_histogram",
    "confidence_interval",
    "to_trapezoid",
    "gaussian_to_trapezoid",
    "read_samples",
    "read_histogram_csv",
]

DEFAULT_GAMMA_CORE = 0.30
DEFAULT_GAMMA_SUPPORT = 0.90


@dataclass(frozen=True)
class SampleSet:
    """Raw observations, one real number each."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("sample set must be nonempty")
        if not all(map(math.isfinite, self.values)):
            bad = next(v for v in self.values if not math.isfinite(v))
            raise ValueError(f"sample values must be finite, got {bad}")


@dataclass(frozen=True)
class BinnedHistogram:
    """Contiguous bins: len(bin_edges) == len(counts) + 1, edges ascending."""

    bin_edges: tuple
    counts: tuple

    def __post_init__(self):
        if len(self.bin_edges) != len(self.counts) + 1:
            raise ValueError("need exactly one more edge than count")
        if len(self.counts) == 0:
            raise ValueError("histogram must have at least one bin")
        for lo, hi in zip(self.bin_edges, self.bin_edges[1:]):
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
                raise ValueError("bin edges must be finite and strictly increasing")
        if any(c < 0 or not math.isfinite(c) for c in self.counts):
            raise ValueError("bin counts must be finite and nonnegative")
        if sum(self.counts) <= 0:
            raise ValueError("histogram total count must be positive")


@dataclass(frozen=True)
class EmpiricalCDF:
    """Piecewise-linear CDF through the knots (xs[i], ps[i]).

    Left of xs[0] the value is 0, right of xs[-1] it is 1; a single knot
    therefore encodes a point distribution with a jump. ps must end at 1.
    """

    xs: tuple
    ps: tuple

    def __post_init__(self):
        if len(self.xs) == 0 or len(self.xs) != len(self.ps):
            raise ValueError("need matching nonempty knot arrays")
        if not all(map(math.isfinite, (*self.xs, *self.ps))):
            raise ValueError("CDF knots must be finite")  # NaN passes every order test below
        for a, b in zip(self.xs, self.xs[1:]):
            if b <= a:
                raise ValueError("CDF knots must be strictly increasing in x")
        prev = 0.0
        for p in self.ps:
            if p < prev - 1e-12 or p > 1.0 + 1e-12:
                raise ValueError("CDF values must be nondecreasing within [0, 1]")
            prev = p
        if abs(self.ps[-1] - 1.0) > 1e-9:
            raise ValueError("CDF must reach 1 at its last knot")

    def cdf(self, t: float) -> float:
        return float(np.interp(t, self.xs, self.ps, left=0.0, right=1.0))

    def quantile(self, g: float) -> float:
        """Infimum quantile: least x with cdf(x) >= g, for g in [0, 1]."""
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {g}")
        j = bisect_left(self.ps, g)
        if j <= 0:
            return self.xs[0]
        if j >= len(self.ps):
            return self.xs[-1]
        p0, p1 = self.ps[j - 1], self.ps[j]
        x0, x1 = self.xs[j - 1], self.xs[j]
        # bisect_left guarantees p0 < g <= p1, so the segment has slope
        t = (g - p0) / (p1 - p0)
        if x1 - x0 < math.inf:
            return x0 + t * (x1 - x0)
        return (1.0 - t) * x0 + t * x1  # a bin wider than the float maximum


def ecdf_from_samples(s: SampleSet) -> EmpiricalCDF:
    """Empirical CDF with linear interpolation between order statistics.

    Knot heights are the plotting positions (i-1)/(n-1); duplicate
    values keep the highest position so the curve stays a function.
    An all-equal sample collapses to a single step knot.
    """
    vals = np.sort(np.asarray(s.values, dtype=float))
    if vals[0] == vals[-1]:
        return EmpiricalCDF(xs=(float(vals[0]),), ps=(1.0,))
    n = len(vals)
    pos = np.arange(n) / (n - 1)
    keep = np.empty(n, dtype=bool)
    keep[-1] = True
    keep[:-1] = vals[1:] != vals[:-1]
    return EmpiricalCDF(xs=tuple(vals[keep].tolist()), ps=tuple(pos[keep].tolist()))


def ecdf_from_histogram(h: BinnedHistogram) -> EmpiricalCDF:
    """CDF accumulating count mass linearly across each bin."""
    total = float(sum(h.counts))
    acc = 0.0
    ps = [0.0]
    for c in h.counts:
        acc += c
        ps.append(acc / total)
    ps[-1] = 1.0
    return EmpiricalCDF(xs=tuple(float(e) for e in h.bin_edges), ps=tuple(ps))


def confidence_interval(f: EmpiricalCDF, gamma: float) -> Interval:
    """Central equal-tail interval covering probability mass gamma."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {gamma}")
    lo = f.quantile((1.0 - gamma) / 2.0)
    hi = f.quantile((1.0 + gamma) / 2.0)
    return Interval(lo, hi)


def _check_levels(gamma_core: float, gamma_support: float):
    if not 0.0 < gamma_core < gamma_support < 1.0:
        raise ValueError(
            f"need 0 < gamma_core < gamma_support < 1, got ({gamma_core}, {gamma_support})"
        )


def _check_gaussian(mean: float, sigma: float):
    if sigma < 0 or not math.isfinite(sigma) or not math.isfinite(mean):
        raise ValueError(f"need finite mean and sigma >= 0, got ({mean}, {sigma})")


def to_trapezoid(
    f: EmpiricalCDF,
    gamma_core: float = DEFAULT_GAMMA_CORE,
    gamma_support: float = DEFAULT_GAMMA_SUPPORT,
) -> TrapezoidalFuzzyNumber:
    """Quadruple (support.lo, core.lo, core.hi, support.hi) from two CIs."""
    _check_levels(gamma_core, gamma_support)
    core = confidence_interval(f, gamma_core)
    support = confidence_interval(f, gamma_support)
    return TrapezoidalFuzzyNumber(support.lo, core.lo, core.hi, support.hi)


def gaussian_to_trapezoid(
    mean: float,
    sigma: float,
    gamma_core: float = DEFAULT_GAMMA_CORE,
    gamma_support: float = DEFAULT_GAMMA_SUPPORT,
) -> TrapezoidalFuzzyNumber:
    """Analytic trapezoid for a Gaussian: intervals m +/- z((1+gamma)/2) sigma."""
    _check_gaussian(mean, sigma)
    _check_levels(gamma_core, gamma_support)
    z_core, z_support = _z_values(gamma_core, gamma_support)
    return TrapezoidalFuzzyNumber(
        mean - z_support * sigma,
        mean - z_core * sigma,
        mean + z_core * sigma,
        mean + z_support * sigma,
    )


@lru_cache(maxsize=8)
def _z_values(gamma_core: float, gamma_support: float) -> tuple:
    """Standard normal quantiles z((1+gamma)/2) of the core and support levels."""
    normal = NormalDist()
    return normal.inv_cdf((1.0 + gamma_core) / 2.0), normal.inv_cdf((1.0 + gamma_support) / 2.0)


def read_samples(path) -> SampleSet:
    """One real per line; blank lines and a UTF-8 byte-order mark are skipped.

    The file converts in one pass; only when that fails are its lines
    scanned again, to name the first bad one.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")  # text mode has turned \r\n and \r into \n
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    texts = list(filter(None, map(str.strip, lines)))
    try:
        values = tuple(map(float, texts))
    except ValueError:
        numbered = enumerate(map(str.strip, lines), start=1)
        lineno, text = next((k, t) for k, t in numbered if t and not _is_number(t))
        raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not values:
        raise ValueError(f"{path}: no samples found")
    return _named(path, SampleSet, values)


def read_histogram_csv(path) -> BinnedHistogram:
    """Rows of bin_lo,bin_hi,count; the first non-blank row may be a header.

    Blank rows and a UTF-8 byte-order mark are skipped. Bins must be
    ascending and non-overlapping; gaps between bins are filled with
    zero-count bins so the edges stay contiguous.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            numbered = enumerate(csv.reader(fh), start=1)
            lines = [(lineno, row) for lineno, row in numbered if any(map(str.strip, row))]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    if lines and not _is_number(lines[0][1][0]):
        lines = lines[1:]  # header
    rows = []
    for lineno, row in lines:
        if len(row) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            rows.append((float(row[0]), float(row[1]), float(row[2])))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad numeric row: {row!r}") from None
    if not rows:
        raise ValueError(f"{path}: no histogram rows found")
    edges = [rows[0][0]]
    counts = []
    for lo, hi, count in rows:
        if lo < edges[-1]:
            raise ValueError(f"{path}: bins overlap or are out of order at [{lo}, {hi}]")
        if lo > edges[-1]:
            edges.append(lo)
            counts.append(0.0)
        edges.append(hi)
        counts.append(count)
    return _named(path, BinnedHistogram, tuple(edges), tuple(counts))


def _named(path, kind, *fields):
    """kind(*fields), with path named in the ValueError of a field check."""
    try:
        return kind(*fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
