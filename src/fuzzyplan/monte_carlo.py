"""Monte Carlo propagation of parameter uncertainty through the LP.

Every model parameter gets an independent Gaussian; each step draws a
full crisp scenario, solves it, and the optimal benefit and shipments
of the feasible scenarios are accumulated into histograms. Sampling is
counter-based: step i draws from default_rng((seed, i)), so a run can
be split across workers and merged without changing a single draw.

Most scenarios need no simplex solve. run_range works in chunks: it
draws a chunk into one array, builds every scenario's profits c and
right-hand side b elementwise, counts the ones that break a necessary
feasibility condition as infeasible, and tests the rest against the
optimal bases found so far in the run. Basis B answers (c, b) when
x_B = B^-1 b is strictly positive and every nonbasic reduced cost is
strictly negative, so that B is the unique optimum; anything else is
solved cold and its basis joins the cache. A basis leaves the cache
after a chunk in which it answered no step but the one it came from, so
where optimal supports seldom repeat, each cold solve costs about one
extra test. Strictness means at most one basis can answer a scenario,
and the certifier sums in a fixed order, so every result stays a pure
function of (seed, index), however the run is chunked or split and
whichever bases are cached.

Per-lane results are flat, in lane order (the order of the LP's x):
each PartialRun shipment row and McResult's shipment histograms, means
and standard deviations. compare pairs entry k with fit_trapezoid(fz, k)
under the k-th name of model.lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import NamedTuple

import numpy as np

from .ingest import (
    DEFAULT_GAMMA_CORE,
    DEFAULT_GAMMA_SUPPORT,
    BinnedHistogram,
    ecdf_from_histogram,
    to_trapezoid,
)
from .fuzzy import TrapezoidalFuzzyNumber
from .fuzzy_solver import FuzzySolution, fit_trapezoid
from .model import (
    PROFIT_FIELDS,
    RHS_FIELDS,
    CrispInstance,
    DistributionProblem,
    ParameterTable,
    lane_profits,
    lanes,
    lp_skeleton,
    necessary_violations,
    to_lp,
)
from .simplex import PIVOT_TOL, solve
from statistics import NormalDist

__all__ = [
    "GaussianSpec",
    "ParameterSpecs",
    "PartialRun",
    "McResult",
    "ComparisonReport",
    "QuantityComparison",
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
        if not (math.isfinite(self.mean) and math.isfinite(self.sigma)) or self.sigma < 0:
            raise ValueError(f"need finite mean and sigma >= 0, got {self}")


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
        z = NormalDist().inv_cdf((1.0 + gamma_support) / 2.0)

        def spec(field, index, t: TrapezoidalFuzzyNumber) -> GaussianSpec:
            return GaussianSpec(0.5 * (t.b + t.c), (t.d - t.a) / (2.0 * z))

        return p.map(cls, spec)

    @cached_property
    def moments(self) -> tuple:
        """(means, sigmas) as arrays in values() order."""
        specs = tuple(self.values())
        return np.array([s.mean for s in specs]), np.array([s.sigma for s in specs])


def sample_instance(specs: ParameterSpecs, seed: int, index: int) -> CrispInstance:
    """Scenario for one step; a pure function of (seed, index).

    Parameters are drawn in specs.values() order, which is FIELDS order:
    changing it would silently reshuffle every reproducible run. One
    vectorized normal call consumes the stream exactly as a scalar draw
    per parameter would, so the floats match such a loop bit for bit.
    """
    return _instance(specs, _draws(specs, seed, index, index + 1)[0])


def _instance(specs: ParameterSpecs, draws: np.ndarray) -> CrispInstance:
    values = iter(draws.tolist())
    return specs.map(CrispInstance, lambda *_: next(values))


@dataclass(frozen=True)
class PartialRun:
    """Raw feasible-scenario results for a contiguous index range."""

    start: int
    stop: int
    seed: int
    shape: tuple
    benefits: tuple
    shipments: tuple  # one flat x-vector per feasible scenario
    infeasible_count: int


# Steps drawn, screened and certified together. Results do not depend on
# it: larger chunks spread numpy's per-call overhead, smaller ones hold
# less memory.
CHUNK = 1024

# A cached basis answers a scenario only when every nonbasic reduced
# cost is below -CERTIFY_MARGIN * max(1, max |c|): then it is the unique
# optimum, and the cold solve would end on it as well.
CERTIFY_MARGIN = 1e-7

# How many basic variables certify tests before it computes the rest of
# x_B. Results do not depend on it; it only saves work on the scenarios
# a basis does not fit.
FIRST_BASICS = 8


def _draws(specs: ParameterSpecs, seed: int, start: int, stop: int) -> np.ndarray:
    """One row per step in [start, stop): the floats sample_instance draws."""
    means, sigmas = specs.moments
    draws = np.empty((stop - start, means.size))
    for row, index in enumerate(range(start, stop)):
        draws[row] = np.random.default_rng((seed, index)).normal(means, sigmas)
    if not np.isfinite(draws).all():
        raise ValueError("crisp parameters must be finite")
    return draws


def _columns(specs: ParameterSpecs) -> dict:
    """Each present field's column indices into a row of draws.

    draws[:, np.array(index)] then gives the field for every step:
    (K, M), (K, N) or (K, M, N).
    """
    at = count()
    return specs.map(dict, lambda *_: next(at))


def _accumulate(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """vectors @ matrix for (K, R) by (R, P), summed in a fixed order.

    Every entry is the same left-to-right sum whatever K is. A BLAS
    product may block differently with the batch size and move the last
    bits, and then results would depend on how a run is split. A row of
    matrix that is all zeros would add exact zeros, so it is skipped.
    """
    out = np.zeros((vectors.shape[0], matrix.shape[1]))
    for r in np.flatnonzero(matrix.any(axis=1)):
        out += vectors[:, r : r + 1] * matrix[r]
    return out


class _Basis(NamedTuple):
    basic: np.ndarray  # standard-form columns, ascending
    nonbasic: np.ndarray
    inverse: np.ndarray  # of the basis matrix; row r gives basic variable r


def _floor(b: np.ndarray) -> np.ndarray:
    """The least value of a basic variable, per right-hand side (rows of b).

    A vertex with a value at or below it counts as degenerate: learn
    leaves its basis out and certify refuses it, so the two agree.
    """
    return PIVOT_TOL * np.maximum(1.0, np.abs(b).max(axis=-1))


class _BasisCache:
    """Optimal bases found so far in a run, and the test that reuses them.

    Columns index the standard form [A | diag(±1)] of the shape's LP
    skeleton: MN shipments, then one slack per row, +1 on capacity rows
    and -1 on contract rows. Every cached basis has been tested on every
    step still waiting for an answer.
    """

    def __init__(self, shape):
        skeleton = lp_skeleton(shape)
        self.signs = np.array([1.0 if rel == "<=" else -1.0 for rel in skeleton.relations])
        self.lanes = shape[0] * shape[1]
        self.matrix = np.hstack([np.array(skeleton.coeffs), np.diag(self.signs)])
        self.bases = {}  # basic columns as bytes -> _Basis

    def learn(self, x: np.ndarray, b: np.ndarray):
        """Add the basis at a cold optimum x to the cache and return it.

        The basis is the support of [x, slacks]. Returns None when that
        basis is cached already, or when the vertex is degenerate: then
        it has fewer nonzeros than there are rows, and it could not be
        certified anyway.
        """
        a = self.matrix
        slacks = (b - a[:, : self.lanes] @ x) * self.signs
        chosen = np.concatenate([x, slacks]) > _floor(b)
        basic = np.flatnonzero(chosen)
        if len(basic) != a.shape[0] or basic.tobytes() in self.bases:
            return None
        try:
            inverse = np.linalg.inv(a[:, basic])
        except np.linalg.LinAlgError:
            return None
        basis = _Basis(basic, np.flatnonzero(~chosen), inverse)
        self.bases[basic.tobytes()] = basis
        return basis

    def keep(self, bases):
        """Forget every cached basis not in bases."""
        self.bases = {basis.basic.tobytes(): basis for basis in bases}

    def certify(self, basis: _Basis, c: np.ndarray, b: np.ndarray):
        """Which scenarios (rows of c and b) have basis as their unique optimum.

        Returns the mask, and the optimal shipments (one row each) and
        benefits of the certified rows. Certified means strictly: every
        basic variable above _floor(b), every nonbasic reduced cost below
        the margin. Ties and degenerate vertices go to the cold solve, so
        an answer never depends on which bases were found before it.
        A basis from another scenario mostly fails on x_B, so x_B is
        computed for the first FIRST_BASICS basic variables, then in full
        where those pass, and reduced costs only where all of x_B does.
        """
        floor = _floor(b)
        head = _accumulate(b, basis.inverse[:FIRST_BASICS].T)
        rows = np.flatnonzero((head > floor[:, None]).all(axis=1))
        x_basic = _accumulate(b[rows], basis.inverse.T)
        primal = (x_basic > floor[rows, None]).all(axis=1)
        rows, x_basic = rows[primal], x_basic[primal]
        costs = np.zeros((len(rows), self.matrix.shape[1]))
        costs[:, : self.lanes] = c[rows]
        c_basic = costs[:, basis.basic]
        duals = _accumulate(c_basic, basis.inverse)
        reduced = costs[:, basis.nonbasic] - _accumulate(duals, self.matrix[:, basis.nonbasic])
        margin = CERTIFY_MARGIN * np.maximum(1.0, np.abs(c[rows]).max(axis=1))
        optimal = (reduced < -margin[:, None]).all(axis=1)
        rows, x_basic, c_basic = rows[optimal], x_basic[optimal], c_basic[optimal]
        ok = np.zeros(len(b), dtype=bool)
        ok[rows] = True
        shipped = np.flatnonzero(basis.basic < self.lanes)
        x = np.zeros((len(x_basic), self.lanes))
        x[:, basis.basic[shipped]] = x_basic[:, shipped]
        benefit = np.zeros(len(x))
        for r in shipped:
            benefit += c_basic[:, r] * x_basic[:, r]
        return ok, x, benefit


def _solve_chunk(specs: ParameterSpecs, index: dict, cache: _BasisCache, draws: np.ndarray):
    """(benefit, x) per step of the chunk, or None for an infeasible one.

    Afterwards the cache holds only the bases that answered a step of
    the chunk other than the one they were learned from: where optimal
    supports do not repeat, no basis is retested in the next chunk.
    """
    field = {name: draws[:, np.array(cols)] for name, cols in index.items()}
    c = lane_profits(*(field[name] for name in PROFIT_FIELDS)).reshape(len(draws), -1)
    b = np.hstack([field[name] for name in RHS_FIELDS])
    screened = np.zeros(len(draws), dtype=bool)
    for mask in necessary_violations(*(field[name] for name in RHS_FIELDS)):
        screened |= mask.reshape(len(draws), -1).any(axis=1)
    answers = [None] * len(draws)
    pending = np.flatnonzero(~screened)

    def settle(basis) -> int:
        """Answer the pending steps basis certifies; return how many."""
        nonlocal pending
        ok, x, benefit = cache.certify(basis, c[pending], b[pending])
        for row, value, ship in zip(pending[ok].tolist(), benefit.tolist(), x.tolist()):
            answers[row] = (value, tuple(ship))
        pending = pending[~ok]
        return len(x)

    useful = [basis for basis in cache.bases.values() if settle(basis)]
    while pending.size:
        row = int(pending[0])
        sol = solve(to_lp(_instance(specs, draws[row])))
        basis = cache.learn(np.array(sol.x), b[row]) if sol.status == "optimal" else None
        others = settle(basis) if basis is not None else 0
        if pending.size and pending[0] == row:  # not certified: the cold answer stands
            if sol.status == "optimal":
                answers[row] = (sol.objective_value, sol.x)
            pending = pending[1:]
        else:
            others -= 1  # its own step
        if others:
            useful.append(basis)
    cache.keep(useful)
    return answers


def run_range(specs: ParameterSpecs, start: int, stop: int, seed: int) -> PartialRun:
    """Solve every step in [start, stop).

    Steps go in chunks of CHUNK: draw, screen out scenarios that break a
    necessary feasibility condition, answer the rest from optimal bases
    already found in this run, and cold-solve what no basis certifies.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"bad step range [{start}, {stop})")
    cache = _BasisCache(specs.shape)
    index = _columns(specs)
    answers = []
    for lo in range(start, stop, CHUNK):
        draws = _draws(specs, seed, lo, min(lo + CHUNK, stop))
        answers += _solve_chunk(specs, index, cache, draws)
    feasible = [a for a in answers if a is not None]
    return PartialRun(
        start,
        stop,
        seed,
        specs.shape,
        tuple(value for value, _ in feasible),
        tuple(x for _, x in feasible),
        len(answers) - len(feasible),
    )


def merge_partials(parts) -> PartialRun:
    parts = sorted(parts, key=lambda p: p.start)
    if not parts:
        raise ValueError("need at least one partial run")
    for a, b in zip(parts, parts[1:]):
        if a.stop != b.start or a.seed != b.seed or a.shape != b.shape:
            raise ValueError("partial runs must be contiguous, same-seed, same-shape")
    benefits = sum((p.benefits for p in parts), ())
    shipments = sum((p.shipments for p in parts), ())
    return PartialRun(
        parts[0].start,
        parts[-1].stop,
        parts[0].seed,
        parts[0].shape,
        benefits,
        shipments,
        sum(p.infeasible_count for p in parts),
    )


@dataclass(frozen=True)
class McResult:
    steps: int
    seed: int
    shape: tuple
    feasible_count: int
    infeasible_count: int
    benefit_histogram: BinnedHistogram | None
    benefit_mean: float | None
    benefit_std: float | None
    shipment_histograms: tuple | None  # per lane, in lane order
    shipment_means: tuple | None
    shipment_stds: tuple | None


def _histogram(values: np.ndarray) -> BinnedHistogram:
    """Freedman-Diaconis binning, at least 20 bins; point mass gets one bin."""
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        half = max(1e-6, abs(lo) * 1e-9)
        return BinnedHistogram((lo - half, lo + half), (float(len(values)),))
    q25, q75 = np.percentile(values, [25, 75])
    width = 2.0 * (q75 - q25) / len(values) ** (1.0 / 3.0)
    bins = 20 if width <= 0 else max(20, int(math.ceil((hi - lo) / width)))
    bins = min(bins, 400)
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return BinnedHistogram(tuple(map(float, edges)), tuple(map(float, counts)))


def _mean_std(values: np.ndarray):
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def finalize(part: PartialRun) -> McResult:
    steps = part.stop - part.start
    if not part.benefits:
        return McResult(
            steps, part.seed, part.shape, 0, part.infeasible_count,
            None, None, None, None, None, None,
        )
    benefits = np.asarray(part.benefits)
    per_lane = np.asarray(part.shipments).T  # one row per lane, in lane order
    benefit_mean, benefit_std = _mean_std(benefits)
    ship_means, ship_stds = zip(*map(_mean_std, per_lane))
    return McResult(
        steps=steps,
        seed=part.seed,
        shape=part.shape,
        feasible_count=len(part.benefits),
        infeasible_count=part.infeasible_count,
        benefit_histogram=_histogram(benefits),
        benefit_mean=benefit_mean,
        benefit_std=benefit_std,
        shipment_histograms=tuple(map(_histogram, per_lane)),
        shipment_means=ship_means,
        shipment_stds=ship_stds,
    )


def run(specs: ParameterSpecs, steps: int, seed: int = 42) -> McResult:
    """Full simulation: `steps` independent scenario solves."""
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    return finalize(run_range(specs, 0, steps, seed))


@dataclass(frozen=True)
class QuantityComparison:
    name: str
    fuzzy: TrapezoidalFuzzyNumber
    mc: TrapezoidalFuzzyNumber
    fuzzy_support_width: float
    mc_support_width: float
    width_ratio: float  # fuzzy / mc; 1.0 when both degenerate, inf when only mc is
    mc_inside_fuzzy: bool


@dataclass(frozen=True)
class ComparisonReport:
    gamma_core: float
    gamma_support: float
    entries: tuple  # QuantityComparison; first entry is the benefit

    def entry(self, name: str) -> QuantityComparison:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _degenerate_tol(trap: TrapezoidalFuzzyNumber) -> float:
    """Widths below this are treated as collapsed points.

    Relative to the quantity's magnitude because a point-mass histogram
    is stored with a hair-thin bin rather than zero width.
    """
    return 1e-6 * max(1.0, abs(0.5 * (trap.a + trap.d)))


def _ratio(fuzzy_width: float, mc_width: float, fuzzy_tol: float, mc_tol: float) -> float:
    if fuzzy_width <= fuzzy_tol and mc_width <= mc_tol:
        return 1.0
    if mc_width <= mc_tol:
        return math.inf
    return fuzzy_width / mc_width


def compare(
    fz: FuzzySolution,
    mc: McResult,
    gamma_core: float = DEFAULT_GAMMA_CORE,
    gamma_support: float = DEFAULT_GAMMA_SUPPORT,
) -> ComparisonReport:
    """Per-quantity quadruples from both methods, plus width diagnostics."""
    if fz.shape != mc.shape:
        raise ValueError(f"fuzzy solution is {fz.shape}, Monte Carlo is {mc.shape}")
    if mc.feasible_count == 0:
        raise ValueError("Monte Carlo run has no feasible scenarios to compare")

    def against(name, fuzzy_trap, hist):
        mc_trap = to_trapezoid(ecdf_from_histogram(hist), gamma_core, gamma_support)
        fw = fuzzy_trap.d - fuzzy_trap.a
        mw = mc_trap.d - mc_trap.a
        ftol, mtol = _degenerate_tol(fuzzy_trap), _degenerate_tol(mc_trap)
        return QuantityComparison(
            name=name,
            fuzzy=fuzzy_trap,
            mc=mc_trap,
            fuzzy_support_width=fw,
            mc_support_width=mw,
            width_ratio=_ratio(fw, mw, ftol, mtol),
            mc_inside_fuzzy=fuzzy_trap.support.contains(mc_trap.support, tol=max(ftol, mtol)),
        )

    entries = [against("D", fit_trapezoid(fz, "benefit"), mc.benefit_histogram)]
    for k, name in enumerate(lanes(fz.shape)):
        entries.append(against(name, fit_trapezoid(fz, k), mc.shipment_histograms[k]))
    return ComparisonReport(gamma_core, gamma_support, tuple(entries))
