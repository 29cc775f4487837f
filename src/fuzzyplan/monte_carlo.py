"""Monte Carlo propagation of parameter uncertainty through the LP.

Every model parameter gets an independent Gaussian; each step draws a
full crisp scenario, solves it, and the optimal benefit and shipments
of the feasible scenarios are accumulated into histograms. Sampling is
counter-based by blocks: with P parameters a step and B =
max(1, BLOCK_VALUES // P) steps a block, step i is row i % B of
means + sigmas * default_rng((seed, i // B)).standard_normal((B, P)).
So every step is a pure function of (seed, i), and a run can be split
anywhere and merged without changing a single draw. One generator per
block, not per step, keeps seeding out of the run's time; numpy's
SeedSequence gives each key (seed, block) its own stream.
_draws fills a range of steps block by block, and sample_instance is
its one-step view; tests/oracles.py holds the definition for one step,
which tests/test_monte_carlo.py checks _draws against.

Most scenarios need no simplex solve. run_range answers a range block
by block: it draws the range's part of a block into one array, one
scenario row per step, turns it into every scenario's (c, b) with
model.lp_rows, and answers that batch with basis._BasisCache.answer,
on one cache for the whole range: a scenario that fails the
feasibility screen counts as infeasible, one that an optimal basis
found earlier in the run certifies is answered from that basis (the
row's unique optimum, or a degenerate vertex where each basic variable
at 0 has a row of B^-1 diag(±1) that leads positive: basis.certify),
and anything else is solved cold from its own row of (c, b), with no
CrispInstance built, and its basis is tested on the rest of the batch.
After a batch the cache holds the bases that answered a step other than
the one they came from, so where optimal supports seldom repeat, each
cold solve costs about one extra test. Every result stays a pure
function of (seed, index), however batched, split or cached.

Both methods keep every quantity in one order, the fuzzy levels' cut
rows: the benefit first, then lane k at 1 + k, lanes in the order of
the LP's x and of model.lanes. A PartialRun holds one read-only
(F, 1 + MN) array, one row per feasible scenario in that order, which
merge_partials concatenates and finalize reads column by column into
McResult's histograms, means and standard deviations. compare pairs the
k-th of them with fit_trapezoid(fz)[k].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .basis import _BasisCache
from .ingest import (
    DEFAULT_GAMMA_CORE,
    DEFAULT_GAMMA_SUPPORT,
    BinnedHistogram,
    _check_gaussian,
    _fmt_row,
    _z,
    ecdf_from_histogram,
    to_trapezoid,
)
from .fuzzy import TrapezoidalFuzzyNumber
from .fuzzy_solver import FuzzySolution, fit_trapezoid
from .intervals import midpoint
from .model import CrispInstance, DistributionProblem, ParameterTable, lanes, lp_rows

__all__ = [
    "GaussianSpec",
    "ParameterSpecs",
    "PartialRun",
    "McResult",
    "sample_instance",
    "run",
    "run_range",
    "merge_partials",
    "finalize",
    "compare",
]


@dataclass(frozen=True)
class GaussianSpec:
    mean: float
    sigma: float

    def __post_init__(self):
        _check_gaussian(self.mean, self.sigma)


class ParameterSpecs(ParameterTable):
    """One GaussianSpec per model parameter, same layout as the problem."""

    @classmethod
    def from_problem(
        cls, p: DistributionProblem, gamma_support: float = DEFAULT_GAMMA_SUPPORT
    ) -> "ParameterSpecs":
        """Recover (mean, sigma) from each trapezoid.

        Inverts the Gaussian-to-trapezoid construction: the mean is the
        core midpoint and sigma comes from the support width at the
        given confidence level. Exact for trapezoids built from
        Gaussians; an approximation for hand-shaped ones.
        """
        z = _z(gamma_support)

        def spec(field, index, t: TrapezoidalFuzzyNumber) -> GaussianSpec:
            return GaussianSpec(midpoint(t.b, t.c), (t.d - t.a) / (2.0 * z))

        return p.map(cls, spec)

    @cached_property
    def moments(self) -> tuple:
        """(means, sigmas) as arrays in values() order."""
        specs = tuple(self.values())
        return np.array([s.mean for s in specs]), np.array([s.sigma for s in specs])


def sample_instance(specs: ParameterSpecs, seed: int, index: int) -> CrispInstance:
    """Scenario for one step, the row of _draws over [index, index + 1).

    Draws that overflow raise ValueError, as they do in run_range.
    Parameters are drawn in specs.values() order, which is FIELDS
    order: changing it would silently reshuffle every reproducible run.
    """
    return specs.with_values(CrispInstance, _draws(specs, seed, index, index + 1)[0].tolist())


@dataclass(frozen=True, eq=False)
class PartialRun:
    """Raw feasible-scenario results for a contiguous index range.

    values is a read-only (F, 1 + MN) float array, one row per feasible
    scenario: its benefit, then its flat x-vector. The other
    stop - start - F steps were infeasible. Two runs are equal where
    every field is, the array bit for bit: dtype, shape and bytes.
    """

    start: int
    stop: int
    seed: int
    shape: tuple
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, PartialRun):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


# Steps one generator draws, as values: step i is row i % B of block
# i // B, B = max(1, BLOCK_VALUES // parameters per step). Part of the
# (seed, index) definition of every draw: changing it changes every run.
# A block is also run_range's batch, drawn, screened and certified
# together, so its memory is the same at any shape. Each batch retests
# every cached basis, and its end drops the bases that answered no other
# row, so longer batches test and relearn less; but a batch's draws, LP
# rows and pending rows grow with the parameters per step. So a small
# problem, where bases repeat, gets long blocks, and a large one, where
# they seldom do, gets short ones: 3,030 steps at 3x3 (33 parameters),
# 317 at 15x15 (315), 52 at 40x40 (1,920).
BLOCK_VALUES = 100_000


def _block_steps(specs: ParameterSpecs) -> int:
    """Steps per block of the draws for specs."""
    return max(1, BLOCK_VALUES // specs.moments[0].size)


def _draws(specs: ParameterSpecs, seed: int, start: int, stop: int) -> np.ndarray:
    """One row per step in [start, stop): row i % B of block i // B's normals, scaled.

    Fills one array block by block: each block's generator writes its
    rows in place, after drawing and dropping the rows before start
    where the range begins inside the block, and stops at stop. Scaling
    in place gives the floats of means + sigmas * z.
    """
    means, sigmas = specs.moments
    steps = _block_steps(specs)
    z = np.empty((stop - start, means.size))
    for block in range(start // steps, -(-stop // steps)):
        lo, hi = max(start, block * steps), min(stop, (block + 1) * steps)
        rng = np.random.default_rng((seed, block))
        rng.standard_normal((lo - block * steps, means.size))  # the rows before start
        rng.standard_normal(out=z[lo - start : hi - start])
    with np.errstate(over="ignore"):
        z *= sigmas
        z += means
    if not np.isfinite(z).all():
        raise ValueError("crisp parameters must be finite")
    return z


def run_range(specs: ParameterSpecs, start: int, stop: int, seed: int) -> PartialRun:
    """Solve every step in [start, stop), in one batch per block part of it.

    Each batch is drawn, then its LPs answered with basis._BasisCache.answer,
    on one cache for the whole range; an empty range answers nothing.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"bad step range [{start}, {stop})")
    if seed < 0:
        raise ValueError(f"need a seed >= 0, got {seed}")
    cache = _BasisCache(specs.shape)
    parts = [np.empty((0, 1 + math.prod(specs.shape)))]
    steps = _block_steps(specs)
    lo = start
    while lo < stop:
        hi = min(stop, lo - lo % steps + steps)
        c, b = lp_rows(specs.shape, _draws(specs, seed, lo, hi))
        b = b.copy()  # b is a view of the draws: this frees them
        feasible, benefit, x = cache.answer(c, b)
        parts.append(np.column_stack((benefit, x))[feasible])
        lo = hi
    return PartialRun(start, stop, seed, specs.shape, np.concatenate(parts))


def merge_partials(parts) -> PartialRun:
    parts = sorted(parts, key=lambda p: p.start)
    if not parts:
        raise ValueError("need at least one partial run")
    for a, b in zip(parts, parts[1:]):
        if a.stop != b.start or a.seed != b.seed or a.shape != b.shape:
            raise ValueError("partial runs must be contiguous, same-seed, same-shape")
    return PartialRun(
        parts[0].start,
        parts[-1].stop,
        parts[0].seed,
        parts[0].shape,
        np.concatenate([p.values for p in parts]),
    )


@dataclass(frozen=True)
class McResult:
    steps: int
    seed: int
    shape: tuple
    feasible_count: int
    infeasible_count: int
    histograms: tuple | None  # per quantity: the benefit, then lane k at 1 + k
    means: tuple | None
    stds: tuple | None


def _histogram(values: np.ndarray) -> BinnedHistogram:
    """Freedman-Diaconis binning, 20 to 400 bins over [lo, hi].

    Where hi - lo passes the float maximum, or those edges would not
    rise strictly as cli writes them, at 9 significant digits (a point
    mass, lo == hi, or values a few ulps apart), one bin over [lo, hi],
    max(|lo|, |hi|) 1e-8 (and at least 1e-6) wider each way, kept finite
    at the float maximum.
    """
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < math.inf:  # then no difference of two values overflows
        q25, q75 = np.percentile(values, [25, 75]).tolist()
        # (hi - lo) / width, width = 2 (q75 - q25) / n^(1/3), with both halved:
        # the same float unless the spread is subnormal, and 2 (q75 - q25),
        # which may pass the float maximum, is never formed
        half_width = (q75 - q25) / len(values) ** (1.0 / 3.0)
        bins = 20 if half_width <= 0 else max(20, math.ceil((hi - lo) / 2 / half_width))
        bins = min(bins, 400)
        edges = np.linspace(lo, hi, bins + 1).tolist()  # np.histogram's edges
        printed = list(map(float, _fmt_row(edges).split(",")))
        if printed == sorted(set(printed)):
            counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
            return BinnedHistogram(tuple(map(float, edges)), tuple(map(float, counts)))
    half, top = max(1e-6, max(abs(lo), abs(hi)) * 1e-8), sys.float_info.max
    return BinnedHistogram((max(lo - half, -top), min(hi + half, top)), (float(len(values)),))


def _mean_std(values: np.ndarray):
    """Mean and std (ddof=1) of values, taken on values / 2^k, k the frexp
    exponent of max |value|, and multiplied back: exact in binary, and no
    sum overflows on the way, even where the values near the float maximum."""
    k = np.frexp(np.abs(values).max())[1]
    scaled = np.ldexp(values, -k)
    mean = float(np.ldexp(scaled.mean(), k))
    std = float(np.ldexp(scaled.std(ddof=1), k)) if len(values) > 1 else 0.0
    return mean, std


def finalize(part: PartialRun) -> McResult:
    steps, feasible = part.stop - part.start, len(part.values)
    if not feasible:
        return McResult(steps, part.seed, part.shape, 0, steps, None, None, None)
    columns = part.values.T  # one row per quantity, in cut-row order
    means, stds = zip(*map(_mean_std, columns))
    hists = tuple(map(_histogram, columns))
    return McResult(steps, part.seed, part.shape, feasible, steps - feasible, hists, means, stds)


def run(specs: ParameterSpecs, steps: int, seed: int = 42) -> McResult:
    """Full simulation: `steps` independent scenario solves."""
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    return finalize(run_range(specs, 0, steps, seed))


def _degenerate_tol(trap: TrapezoidalFuzzyNumber) -> float:
    """Widths below this are treated as collapsed points.

    Relative to the quantity's magnitude because a point-mass histogram
    is stored with a hair-thin bin rather than zero width.
    """
    return 1e-6 * max(1.0, abs(midpoint(trap.a, trap.d)))


def compare(
    fz: FuzzySolution,
    mc: McResult,
    gamma_core: float = DEFAULT_GAMMA_CORE,
    gamma_support: float = DEFAULT_GAMMA_SUPPORT,
) -> dict:
    """The comparison.json payload: both methods' quadruple per quantity, and their widths.

    One entry per quantity, the benefit "D" first and then each lane by
    name. width_ratio is fuzzy / mc support width, taken on the halved
    widths, which no support overflows; 1.0 where both are degenerate,
    inf where only the Monte Carlo one is.
    """
    if fz.shape != mc.shape:
        raise ValueError(f"fuzzy solution is {fz.shape}, Monte Carlo is {mc.shape}")
    if mc.feasible_count == 0:
        raise ValueError("Monte Carlo run has no feasible scenarios to compare")
    entries = []
    for name, fuzzy, hist in zip(("D", *lanes(fz.shape)), fit_trapezoid(fz), mc.histograms):
        mc_trap = to_trapezoid(ecdf_from_histogram(hist), gamma_core, gamma_support)
        fw, mw = fuzzy.d - fuzzy.a, mc_trap.d - mc_trap.a  # inf past the float maximum
        ftol, mtol = _degenerate_tol(fuzzy), _degenerate_tol(mc_trap)
        if mw <= mtol:
            ratio = 1.0 if fw <= ftol else math.inf
        else:
            ratio = (fuzzy.d / 2 - fuzzy.a / 2) / (mc_trap.d / 2 - mc_trap.a / 2)
        entries.append({
            "name": name,
            "fuzzy": [fuzzy.a, fuzzy.b, fuzzy.c, fuzzy.d],
            "mc": [mc_trap.a, mc_trap.b, mc_trap.c, mc_trap.d],
            "fuzzy_support_width": fw,
            "mc_support_width": mw,
            "width_ratio": ratio,
            "mc_inside_fuzzy": fuzzy.support.contains(mc_trap.support, tol=max(ftol, mtol)),
        })
    return {"gamma_core": gamma_core, "gamma_support": gamma_support, "entries": entries}
