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

Per-lane results are flat tuples in lane order: row by row, the order
of the LP's x and of the names model.lanes returns. A level's
shipments[k] is lane k's cut, and fit_trapezoid(sol, k) its trapezoid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .fuzzy import AlphaGrid, TrapezoidalFuzzyNumber, prob_geq_fuzzy
from .intervals import Interval
from .model import CrispInstance, DistributionProblem, to_lp
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
    """Corner-solve every level, then enforce interval nesting."""
    if grid is None:
        grid = AlphaGrid.uniform(11)
    levels = []
    for alpha in grid:
        optimistic, pessimistic = corner_instances(p, alpha)
        optimistic, rep_opt = repair_bounds(optimistic)
        pessimistic, rep_pes = repair_bounds(pessimistic)
        repaired = rep_opt or rep_pes
        sol_opt = solve(to_lp(optimistic))
        sol_pes = solve(to_lp(pessimistic))
        if sol_opt.status != "optimal" or sol_pes.status != "optimal":
            levels.append(AlphaLevelResult(alpha, False, repaired, None, None))
            continue
        lo_v, hi_v = sorted((sol_pes.objective_value, sol_opt.objective_value))
        benefit = Interval(lo_v, hi_v)
        shipments = tuple(Interval(min(a, b), max(a, b)) for a, b in zip(sol_pes.x, sol_opt.x))
        levels.append(AlphaLevelResult(alpha, True, repaired, benefit, shipments))
    raw = FuzzySolution(grid, p.shape, tuple(levels))
    return enforce_nesting(raw)


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
