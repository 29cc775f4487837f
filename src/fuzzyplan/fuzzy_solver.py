"""Fuzzy optimization by alpha-cut decomposition.

Each membership level turns the fuzzy problem into a box of crisp
problems; the optimal benefit over that box is bracketed by two corner
LPs (the value is monotone in every parameter: relaxing capacities or
raising profits never hurts). Solving both corners per level yields an
interval staircase that is reassembled into fuzzy benefit and shipment
estimates.

Shipment intervals are envelopes of the two corner optima, not exact
ranges: with alternate optima the corner argmax can jump around, so the
per-lane quantities are reported as indicative spans while the benefit
interval itself is exact.

The cuts nest, so neighbouring levels change c and b only a little,
and a corner's optimal basis mostly stays optimal one level up. Each
side (optimistic, pessimistic) therefore tests the basis of its last
optimal corner with the strict certificate of the basis module, and
solves cold only where it fails. A degenerate optimum yields no basis,
so after one that side solves cold again. Answers do not depend on the
order of the levels: a certified basis is the corner's unique,
nondegenerate optimum, so a cold-solved corner is answered from that
same basis whenever it certifies, and any other corner keeps its cold
solve. The order only decides how many cold solves run.

Per-lane results are flat tuples in lane order: row by row, the order
of the LP's x and of the names model.lanes returns. A level's
shipments[k] is lane k's cut, and fit_trapezoid(sol, k) its trapezoid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import _BasisCache
from .fuzzy import AlphaGrid, TrapezoidalFuzzyNumber, prob_geq_fuzzy
from .intervals import Interval
from .model import CrispInstance, DistributionProblem, feasibility_precheck, lp_arrays, to_lp
from .simplex import solve

__all__ = [
    "AlphaLevelResult",
    "FuzzySolution",
    "RankingReport",
    "corner_instances",
    "repair_bounds",
    "solve_fuzzy",
    "enforce_nesting",
    "fit_trapezoid",
    "rank_fuzzy",
]


@dataclass(frozen=True)
class AlphaLevelResult:
    alpha: float
    feasible: bool
    repaired: bool
    benefit: Interval | None
    shipments: tuple | None  # Interval per lane in lane order, None when infeasible


@dataclass(frozen=True)
class FuzzySolution:
    grid: AlphaGrid
    shape: tuple
    levels: tuple  # AlphaLevelResult per grid level, ascending alpha
    nesting_adjusted: bool = False

    def level_at(self, alpha: float) -> AlphaLevelResult:
        for lv in self.levels:
            if abs(lv.alpha - alpha) <= 1e-12:
                return lv
        raise KeyError(f"no result at alpha={alpha}")


def corner_instances(p: DistributionProblem, alpha: float):
    """(optimistic, pessimistic) crisp instances at one membership level.

    Optimistic: capacities at cut maxima, contract minimums at cut
    minima, prices arranged for maximal per-lane profit: each parameter
    sits at the cut end its benefit direction favours. Pessimistic is
    the mirror image. Contract base prices are metadata and stay at
    their cut midpoints.
    """

    def corner(sign):
        def pick(field, index, t):
            cut = t.alpha_cut(alpha)
            direction = sign * field.direction
            return cut.hi if direction > 0 else cut.lo if direction < 0 else cut.midpoint

        return p.map(CrispInstance, pick)

    return corner(+1), corner(-1)


def repair_bounds(inst: CrispInstance):
    """Clip contract minimums to the capacities of the same scenario.

    A scenario whose minimum purchase exceeds the supplier's capacity
    (or minimum sale exceeds demand) cannot be met as written; the
    contract lines are lowered to the capacity and the change flagged.
    Returns (instance, repaired).
    """
    purchase = tuple(min(pm, am) for pm, am in zip(inst.purchase_min, inst.supply_max))
    sale = tuple(min(qm, bm) for qm, bm in zip(inst.sale_min, inst.demand_max))
    repaired = purchase != inst.purchase_min or sale != inst.sale_min
    if not repaired:
        return inst, False
    return replace(inst, purchase_min=purchase, sale_min=sale), True


def solve_fuzzy(p: DistributionProblem, grid: AlphaGrid | None = None) -> FuzzySolution:
    """Corner-solve every level, then enforce interval nesting.

    Each side (optimistic, pessimistic) first tries the basis of its
    last optimal corner, and cold-solves only where that does not
    certify.
    """
    if grid is None:
        grid = AlphaGrid.uniform(11)
    cache = _BasisCache(p.shape)
    bases = [None, None]  # per side: the basis of its last optimal corner
    levels = []
    for alpha in grid:
        answers, repaired = [], False
        for side, corner in enumerate(corner_instances(p, alpha)):
            inst, rep = repair_bounds(corner)
            repaired = repaired or rep
            answer, bases[side] = _solve_corner(cache, bases[side], inst)
            answers.append(answer)
        if None in answers:
            levels.append(AlphaLevelResult(alpha, False, repaired, None, None))
            continue
        (opt_v, opt_x), (pes_v, pes_x) = answers
        lo_v, hi_v = sorted((pes_v, opt_v))
        benefit = Interval(lo_v, hi_v)
        shipments = tuple(Interval(min(a, b), max(a, b)) for a, b in zip(pes_x, opt_x))
        levels.append(AlphaLevelResult(alpha, True, repaired, benefit, shipments))
    raw = FuzzySolution(grid, p.shape, tuple(levels))
    return enforce_nesting(raw)


def _solve_corner(cache: _BasisCache, basis, inst: CrispInstance):
    """((benefit, x) or None if infeasible, the basis to try next) at one corner.

    basis answers the corner if it certifies it. A corner that breaks a
    necessary feasibility condition is infeasible without a solve, as in
    Monte Carlo's screen. Otherwise the corner is solved cold, and the
    basis of that optimum answers in its place if it certifies the
    corner: so an answer never depends on which basis was tried first.
    """
    c, b = (v[None] for v in lp_arrays(inst))
    answer = _certified(cache, basis, c, b)
    if answer:
        return answer, basis
    if not feasibility_precheck(inst):  # phase 1 would report it infeasible
        return None, basis
    sol = solve(to_lp(inst))
    if sol.status != "optimal":
        return None, basis
    cache.keep(())  # learn refuses a basis it holds already
    basis = cache.learn(np.array(sol.x), b[0])
    return _certified(cache, basis, c, b) or (sol.objective_value, sol.x), basis


def _certified(cache: _BasisCache, basis, c: np.ndarray, b: np.ndarray):
    """(benefit, x) if basis is the unique optimum of the one-row (c, b), else None."""
    if basis is None:
        return None
    ok, x, benefit = cache.certify(basis, c, b)
    return (benefit.item(), tuple(x[0].tolist())) if ok[0] else None


def enforce_nesting(sol: FuzzySolution) -> FuzzySolution:
    """Widen lower levels to contain higher ones, sweeping alpha downward.

    Bound repair and LP tie-breaking can leave small inversions in the
    raw staircase; fuzzy-number semantics require cuts to nest, so each
    level's cuts (benefit, then every lane) absorb the hull of the level
    above. nesting_adjusted records whether anything actually moved.
    """
    adjusted = sol.nesting_adjusted
    hull = None
    widened = {}
    for lv in sorted(sol.levels, key=lambda lv: -lv.alpha):
        if not lv.feasible:
            continue
        cuts = (lv.benefit, *lv.shipments)
        hull = cuts if hull is None else tuple(map(Interval.hull, hull, cuts))
        adjusted = adjusted or hull != cuts
        widened[lv.alpha] = replace(lv, benefit=hull[0], shipments=hull[1:])
    levels = tuple(widened.get(lv.alpha, lv) for lv in sol.levels)
    return replace(sol, levels=levels, nesting_adjusted=adjusted)


def fit_trapezoid(sol: FuzzySolution, quantity="benefit") -> TrapezoidalFuzzyNumber:
    """Trapezoid for the total benefit or one lane's shipment.

    quantity is "benefit" or a lane index k in lane order. Uses the
    alpha=0 cut as support and the alpha=1 cut as core; both levels must
    be present and feasible.
    """
    try:
        lo_level = sol.level_at(0.0)
        hi_level = sol.level_at(1.0)
    except KeyError:
        raise ValueError("grid must include levels 0 and 1 to fit a trapezoid") from None
    if not (lo_level.feasible and hi_level.feasible):
        raise ValueError("levels 0 and 1 must both be feasible to fit a trapezoid")
    if quantity == "benefit":
        support, core = lo_level.benefit, hi_level.benefit
    else:
        support, core = lo_level.shipments[quantity], hi_level.shipments[quantity]
    return TrapezoidalFuzzyNumber(support.lo, core.lo, core.hi, support.hi)


@dataclass(frozen=True)
class RankingReport:
    probability: float  # P(first >= second)
    preference: str  # "first" | "second" | "tie"


def rank_fuzzy(
    a: TrapezoidalFuzzyNumber,
    b: TrapezoidalFuzzyNumber,
    grid: AlphaGrid | None = None,
) -> RankingReport:
    """Probabilistic order of two fuzzy outcomes; 0.5 is a tie."""
    prob = prob_geq_fuzzy(a, b, grid)
    if abs(prob - 0.5) <= 1e-12:
        preference = "tie"
    elif prob > 0.5:
        preference = "first"
    else:
        preference = "second"
    return RankingReport(prob, preference)
