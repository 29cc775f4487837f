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

All levels' corners are built at once as parameter rows, repaired in
place, and go through model.lp_rows to basis._BasisCache.answer as one
batch: a corner that another corner's optimal basis certifies needs no
simplex run, one that none certifies is solved from its own row, and no
answer depends on the order of the batch.

A feasible level's cuts are one (1 + MN, 2) array of [lo, hi] rows: the
benefit, then lane k in row 1 + k, in lane order (the order of the LP's
x and of model.lanes); fit_trapezoid(sol, k) is lane k's trapezoid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import _BasisCache
from .fuzzy import AlphaGrid, TrapezoidalFuzzyNumber, cut_ends
from .model import FIELDS, CrispInstance, DistributionProblem, lp_rows

__all__ = [
    "AlphaLevelResult",
    "FuzzySolution",
    "corner_rows",
    "corner_instances",
    "repair_bounds",
    "solve_fuzzy",
    "enforce_nesting",
    "fit_trapezoid",
]


@dataclass(frozen=True, eq=False)
class AlphaLevelResult:
    alpha: float
    feasible: bool
    repaired: bool
    cuts: np.ndarray | None  # (1 + MN, 2): benefit, then each lane; None when infeasible


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


def corner_rows(p: DistributionProblem, alphas) -> np.ndarray:
    """(2L, P) parameter rows in values() order: both corners at each level.

    Rows 2k and 2k + 1 are the optimistic and pessimistic corner at
    alphas[k]. Optimistic: capacities at cut maxima, contract minimums
    at cut minima, prices arranged for maximal per-lane profit: each
    parameter sits at the cut end its benefit direction favours.
    Pessimistic is the mirror image. Contract base prices are metadata
    and stay at their cut midpoints (Interval.midpoint's floats).
    """
    a, b, c, d = np.array([(t.a, t.b, t.c, t.d) for t in p.values()]).T
    lo, hi = cut_ends(a, b, c, d, np.array(alphas, dtype=float)[:, None])
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    mid = np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)
    size = {"rows": p.shape[0], "cols": p.shape[1], "lanes": p.shape[0] * p.shape[1]}
    present = (f for f in FIELDS if getattr(p, f.name) is not None)
    direction = np.array([d for f in present for d in [f.direction] * size[f.axis]])
    ends = (lo, mid, hi)
    corners = np.choose(1 + direction, ends), np.choose(1 - direction, ends)
    return np.stack(corners, axis=1).reshape(-1, len(direction))


def _repair(shape, rows: np.ndarray) -> np.ndarray:
    """Clip each row's contract minimums to the capacities beside them, in place."""
    k = sum(shape)
    capacity, minimum = rows[:, :k], rows[:, k : 2 * k]
    over = capacity < minimum
    minimum[...] = np.where(over, capacity, minimum)  # a tie keeps the minimum's own float
    return over.any(axis=1)


def corner_instances(p: DistributionProblem, alpha: float):
    """(optimistic, pessimistic) crisp instances at one level: corner_rows' two rows."""
    return tuple(p.with_values(CrispInstance, row) for row in corner_rows(p, [alpha]).tolist())


def repair_bounds(inst: CrispInstance):
    """Clip contract minimums to the capacities of the same scenario.

    A scenario whose minimum purchase exceeds the supplier's capacity
    (or minimum sale exceeds demand) cannot be met as written; the
    contract lines are lowered to the capacity and the change flagged.
    Returns (instance, repaired).
    """
    rows = np.array([list(inst.values())], dtype=float)
    if not _repair(inst.shape, rows)[0]:
        return inst, False
    return inst.with_values(CrispInstance, rows[0].tolist()), True


def solve_fuzzy(p: DistributionProblem, grid: AlphaGrid | None = None) -> FuzzySolution:
    """Corner-solve every level, then enforce interval nesting."""
    if grid is None:
        grid = AlphaGrid.uniform(11)
    return enforce_nesting(FuzzySolution(grid, p.shape, _corner_levels(p, grid)))


def _corner_levels(p: DistributionProblem, grid: AlphaGrid) -> tuple:
    """AlphaLevelResult per level, from its two repaired corners.

    The corners of every level are answered as one batch, in
    corner_rows' order. A cut is (min(pes, opt), max(pes, opt)), except
    that the benefit's upper end is opt on a tie (it tells -0.0 from 0.0).
    """
    rows = corner_rows(p, grid.levels)
    repaired = _repair(p.shape, rows).reshape(-1, 2).any(axis=1).tolist()
    feasible, benefit, x = _BasisCache(p.shape).answer(*lp_rows(p.shape, rows))
    ends = np.concatenate([benefit[:, None], x], axis=1).reshape(len(grid), 2, -1)
    opt, pes = ends[:, 0], ends[:, 1]
    cuts = np.stack([np.where(opt < pes, opt, pes), np.where(opt > pes, opt, pes)], axis=-1)
    cuts[:, 0, 1] = np.where(opt[:, 0] < pes[:, 0], pes[:, 0], opt[:, 0])
    feasible = feasible.reshape(-1, 2).all(axis=1).tolist()
    return tuple(
        AlphaLevelResult(alpha, ok, rep, cut if ok else None)
        for alpha, ok, rep, cut in zip(grid, feasible, repaired, cuts)
    )


def enforce_nesting(sol: FuzzySolution) -> FuzzySolution:
    """Widen lower levels to contain higher ones, sweeping alpha downward.

    Bound repair and LP tie-breaking can leave small inversions in the
    raw staircase; fuzzy-number semantics require cuts to nest, so each
    feasible level's cuts absorb the hull of the feasible levels above
    it; on a tie an end takes the hull's float, as min and max do.
    nesting_adjusted records whether anything actually moved.
    """
    order = [k for k in reversed(range(len(sol.levels))) if sol.levels[k].feasible]
    raw = np.array([sol.levels[k].cuts for k in order], dtype=float)
    hull = raw.copy()
    for above, cut in zip(hull, hull[1:]):
        lo, hi = cut.T
        lo[...] = np.where(lo < above[:, 0], lo, above[:, 0])
        hi[...] = np.where(hi > above[:, 1], hi, above[:, 1])
    levels = list(sol.levels)
    for k, cut in zip(order, hull):
        levels[k] = replace(levels[k], cuts=cut)
    adjusted = sol.nesting_adjusted or bool((hull != raw).any())
    return replace(sol, levels=tuple(levels), nesting_adjusted=adjusted)


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
    row = 0 if quantity == "benefit" else range(1, len(lo_level.cuts))[quantity]
    (a, d), (b, c) = lo_level.cuts[row].tolist(), hi_level.cuts[row].tolist()
    return TrapezoidalFuzzyNumber(a, b, c, d)
