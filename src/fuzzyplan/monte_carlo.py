"""Monte Carlo propagation of parameter uncertainty through the LP.

Every model parameter gets an independent Gaussian; each step draws a
full crisp scenario, solves it, and the optimal benefit and shipments
of the feasible scenarios are accumulated into histograms. Sampling is
counter-based: step i draws from default_rng((seed, i)), so a run can
be split across workers and merged without changing a single draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
from .model import CrispInstance, DistributionProblem, ParameterTable, lanes, to_lp
from .simplex import solve
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
    rng = np.random.default_rng((seed, index))
    draws = iter(rng.normal(*specs.moments).tolist())
    return specs.map(CrispInstance, lambda *_: next(draws))


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


def run_range(specs: ParameterSpecs, start: int, stop: int, seed: int) -> PartialRun:
    if not 0 <= start <= stop:
        raise ValueError(f"bad step range [{start}, {stop})")
    benefits = []
    shipments = []
    infeasible = 0
    for index in range(start, stop):
        inst = sample_instance(specs, seed, index)
        sol = solve(to_lp(inst))
        if sol.status == "optimal":
            benefits.append(sol.objective_value)
            shipments.append(sol.x)
        else:
            infeasible += 1
    return PartialRun(
        start, stop, seed, specs.shape, tuple(benefits), tuple(shipments), infeasible
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
    shipment_histograms: tuple | None  # M x N
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
    m, n = part.shape
    steps = part.stop - part.start
    if not part.benefits:
        return McResult(
            steps, part.seed, part.shape, 0, part.infeasible_count,
            None, None, None, None, None, None,
        )
    benefits = np.asarray(part.benefits)
    xs = np.asarray(part.shipments)  # feasible_count rows, m*n cols
    benefit_mean, benefit_std = _mean_std(benefits)
    ship_hists = []
    ship_means = []
    ship_stds = []
    for i in range(m):
        hist_row, mean_row, std_row = [], [], []
        for j in range(n):
            col = xs[:, i * n + j]
            hist_row.append(_histogram(col))
            mu, sd = _mean_std(col)
            mean_row.append(mu)
            std_row.append(sd)
        ship_hists.append(tuple(hist_row))
        ship_means.append(tuple(mean_row))
        ship_stds.append(tuple(std_row))
    return McResult(
        steps=steps,
        seed=part.seed,
        shape=part.shape,
        feasible_count=len(part.benefits),
        infeasible_count=part.infeasible_count,
        benefit_histogram=_histogram(benefits),
        benefit_mean=benefit_mean,
        benefit_std=benefit_std,
        shipment_histograms=tuple(ship_hists),
        shipment_means=tuple(ship_means),
        shipment_stds=tuple(ship_stds),
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
    for i, j, name in lanes(fz.shape):
        entries.append(
            against(name, fit_trapezoid(fz, (i, j)), mc.shipment_histograms[i][j])
        )
    return ComparisonReport(gamma_core, gamma_support, tuple(entries))
