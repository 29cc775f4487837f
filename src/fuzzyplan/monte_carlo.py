"""Monte Carlo propagation of parameter uncertainty through the LP.

Every model parameter gets an independent Gaussian; each step draws a
full crisp scenario, solves it, and the optimal benefit and shipments
of the feasible scenarios are accumulated into histograms. Sampling is
counter-based: step i draws from default_rng((seed, i)), so a run can
be split across workers and merged without changing a single draw.
sample_instance is that definition, one generator per step. run_range
draws a chunk of steps without building their generators: it runs
numpy's SeedSequence hash over every step's (seed, i) entropy at once
in uint32 arrays, turns each step's hashed words into PCG64's state
with srandom's 128-bit arithmetic, and draws each step's standard
normals through one reused generator set to that state. The floats
equal default_rng((seed, i)).normal(means, sigmas) by construction,
and tests/test_monte_carlo.py checks them against it.

Most scenarios need no simplex solve. run_range draws a chunk into one
array, one scenario row per step, turns it into every scenario's (c, b)
with model.lp_rows, and answers the chunk with basis._BasisCache.answer,
on one cache for the whole range: a scenario that breaks a necessary
feasibility condition counts as infeasible, one that an optimal basis
found earlier in the run certifies as its unique, nondegenerate
optimum is answered from that basis, and anything else is solved cold
from its own row of (c, b), with no CrispInstance built, and its basis
joins the cache. A basis leaves the cache after a chunk in which it
answered no step but the one it came from, so where optimal supports
seldom repeat, each cold solve costs about one extra test. Every
result stays a pure function of (seed, index), however the run is
chunked or split and whichever bases are cached.

Per-lane results are flat, in lane order (the order of the LP's x):
each PartialRun shipment row and McResult's shipment histograms, means
and standard deviations. compare pairs entry k with fit_trapezoid(fz, k),
the trapezoid of row 1 + k of the fuzzy levels' cuts, under the k-th
name of model.lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .basis import _BasisCache
from .ingest import (
    DEFAULT_GAMMA_CORE,
    DEFAULT_GAMMA_SUPPORT,
    BinnedHistogram,
    ecdf_from_histogram,
    to_trapezoid,
)
from .fuzzy import TrapezoidalFuzzyNumber
from .fuzzy_solver import FuzzySolution, fit_trapezoid
from .model import CrispInstance, DistributionProblem, ParameterTable, lanes, lp_rows
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
            return GaussianSpec(t.core.midpoint, (t.d - t.a) / (2.0 * z))

        return p.map(cls, spec)

    @cached_property
    def moments(self) -> tuple:
        """(means, sigmas) as arrays in values() order."""
        specs = tuple(self.values())
        return np.array([s.mean for s in specs]), np.array([s.sigma for s in specs])


def sample_instance(specs: ParameterSpecs, seed: int, index: int) -> CrispInstance:
    """Scenario for one step; a pure function of (seed, index).

    This is the reference definition of a step's draws: run_range's
    chunked _draws gives the same floats, bit for bit. Parameters are
    drawn in specs.values() order, which is FIELDS order: changing it
    would silently reshuffle every reproducible run.
    """
    means, sigmas = specs.moments
    values = np.random.default_rng((seed, index)).normal(means, sigmas).tolist()
    return specs.with_values(CrispInstance, values)


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


# numpy's SeedSequence hash (O'Neill's seed_seq_fe) and PCG64's multiplier
POOL_WORDS = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32, MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _words(n: int) -> int:
    """Length of n as SeedSequence entropy: little-endian 32-bit words, at least one."""
    return max(1, -(-n.bit_length() // 32))


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, uint64) for each column of entropy.

    entropy is (L, K) uint32: column k holds one step's L entropy words.
    The hash constants depend only on how many hashes came before, so
    every column runs the same sequence of uint32 operations, which wrap
    as the C code's do. Returns (4, K) uint64.
    """
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = MIX_MULT_L * x - MIX_MULT_R * y
        return result ^ result >> 16

    zero = np.zeros(entropy.shape[1], dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(POOL_WORDS)]
    for src in range(POOL_WORDS):
        for dst in range(POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL_WORDS, len(entropy)):  # entropy longer than the pool
        for dst in range(POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    state, hash_const = [], INIT_B
    for i in range(2 * POOL_WORDS):
        value = pool[i % POOL_WORDS] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const
        state.append((value ^ value >> 16).astype(np.uint64))
    return np.array([state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)])


def _draws(specs: ParameterSpecs, seed: int, start: int, stop: int) -> np.ndarray:
    """One row per step in [start, stop): the floats sample_instance draws.

    Step i's stream is default_rng((seed, i))'s, bit for bit, derived
    without building a generator per step. SeedSequence hashes the
    entropy words of seed then i (_seed_states, the whole range at once,
    grouped by how many words i takes); PCG64 seeds itself from the four
    hashed words by srandom's 128-bit steps, here in Python ints; one
    reused generator, set to each step's state, fills that step's row
    of standard normals. Scaling by sigma and adding the mean is then
    one array operation, the same product and sum normal() makes per
    float. tests/test_monte_carlo.py checks the equality at chunk edges,
    where i gains a word, and with entropy longer than the pool.
    """
    means, sigmas = specs.moments
    z = np.empty((stop - start, means.size))
    generator = np.random.Generator(np.random.PCG64())
    prefix = seed.to_bytes(4 * _words(seed), "little")
    lo = start
    while lo < stop:
        width = _words(lo)
        hi = min(stop, 1 << 32 * width)
        raw = b"".join(prefix + i.to_bytes(4 * width, "little") for i in range(lo, hi))
        entropy = np.frombuffer(raw, dtype="<u4").astype(np.uint32).reshape(hi - lo, -1).T
        for row, (s0, s1, q0, q1) in enumerate(_seed_states(entropy).T.tolist(), lo - start):
            inc = ((q0 << 64 | q1) << 1 | 1) & MASK128
            state = ((inc + (s0 << 64 | s1)) * PCG_MULT + inc) & MASK128
            generator.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            generator.standard_normal(out=z[row])
        lo = hi
    with np.errstate(over="ignore"):
        draws = means + sigmas * z
    if not np.isfinite(draws).all():
        raise ValueError("crisp parameters must be finite")
    return draws


def run_range(specs: ParameterSpecs, start: int, stop: int, seed: int) -> PartialRun:
    """Solve every step in [start, stop).

    Steps go in chunks of CHUNK: draw, then answer the chunk's LPs with
    basis._BasisCache.answer, on one cache for the whole range.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"bad step range [{start}, {stop})")
    if seed < 0:
        raise ValueError(f"need a seed >= 0, got {seed}")
    cache = _BasisCache(specs.shape)
    benefits, shipments, infeasible = [], [], 0
    for lo in range(start, stop, CHUNK):
        draws = _draws(specs, seed, lo, min(lo + CHUNK, stop))
        feasible, benefit, x = cache.answer(*lp_rows(specs.shape, draws))
        benefits += benefit[feasible].tolist()
        shipments += map(tuple, x[feasible].tolist())
        infeasible += len(draws) - int(feasible.sum())
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
    return PartialRun(
        parts[0].start,
        parts[-1].stop,
        parts[0].seed,
        parts[0].shape,
        tuple(chain.from_iterable(p.benefits for p in parts)),
        tuple(chain.from_iterable(p.shipments for p in parts)),
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
