"""Two-phase primal simplex on a dense tableau.

Dantzig pricing runs by default; Bland's rule takes over permanently
once the objective stalls long enough to suggest degenerate cycling.
Each step is a numpy operation over the tableau: pricing is one argmin
(or, under Bland, one search for the first eligible column) over the
allowed columns, the ratio test visits only the rows with a positive
pivot-column entry, and a pivot updates only the rows whose pivot-column
entry is nonzero. Only the scan for the leaving row stays sequential,
since its tolerance tie-break depends on the order of the rows. The
pivots, and every float they produce, are those of the element-by-element
loop this replaced (Bertsimas & Tsitsiklis, Introduction to Linear
Optimization, ch. 3).

An LP is a LinearProgram of arrays, as the distributor path holds it:
the shape's constraint matrix, its row relations, and one scenario's b
and c. Its sense is always max; checking that the arrays are finite is
the caller's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["LinearProgram", "SimplexSolution", "solve", "PIVOT_TOL", "FEAS_TOL"]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7


class LinearProgram(NamedTuple):
    """max c.x subject to a x (relations) b and x >= 0."""

    a: np.ndarray  # (m, n)
    relations: tuple  # m of "<=", ">=" and "="
    b: np.ndarray  # (m,)
    c: np.ndarray  # (n,)


@dataclass(frozen=True)
class SimplexSolution:
    status: str  # optimal | infeasible | unbounded
    x: tuple | None
    objective_value: float | None
    iterations: int


class _Tableau:
    """Mutable simplex tableau: constraint rows plus one objective row."""

    def __init__(self, mat: np.ndarray, basis: list):
        self.mat = mat
        self.basis = basis
        self.iterations = 0
        self.use_bland = False
        self._stall = 0

    def pivot(self, row: int, col: int):
        mat = self.mat
        mat[row] /= mat[row, col]
        pivot_row = mat[row]
        # rows with a zero pivot-column entry would subtract nothing
        for r in mat[:, col].nonzero()[0].tolist():
            if r != row:
                mat[r] -= mat[r, col] * pivot_row
        self.basis[row] = col
        self.iterations += 1

    def run(self, allowed_cols: np.ndarray, stall_limit: int) -> str:
        """Maximize until optimal ("optimal") or an unbounded ray ("unbounded").

        allowed_cols is an ascending index array of the columns that may
        enter the basis.
        """
        mat = self.mat
        m = mat.shape[0] - 1
        while True:
            reduced = mat[-1, allowed_cols]
            if self.use_bland:
                # the first allowed column with a negative reduced cost
                hits = (reduced < -PIVOT_TOL).nonzero()[0]
                k = hits[0] if hits.size else -1
            else:
                # Dantzig: the first column at the strict minimum
                k = int(reduced.argmin())
                if not reduced[k] < -PIVOT_TOL:
                    k = -1
            if k < 0:
                return "optimal"
            col = int(allowed_cols[k])
            # ratio test over rows with positive pivot entries, in row order
            rows = (mat[:m, col] > PIVOT_TOL).nonzero()[0]
            ratios = mat[rows, -1] / mat[rows, col]
            row = -1
            best_ratio = math.inf
            for r, ratio in zip(rows.tolist(), ratios.tolist()):
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and row >= 0
                    and self.basis[r] < self.basis[row]
                ):
                    best_ratio = ratio
                    row = r
            if row < 0:
                return "unbounded"
            before = mat[-1, -1]
            self.pivot(row, col)
            if mat[-1, -1] - before <= PIVOT_TOL:
                self._stall += 1
                if self._stall >= stall_limit:
                    self.use_bland = True
            else:
                self._stall = 0
            if self.iterations > 50_000:
                raise RuntimeError("simplex failed to terminate")


def solve(lp: LinearProgram) -> SimplexSolution:
    """Two-phase solve of lp: an exact vertex or the infeasible/unbounded flag."""
    a, relations, b, c = lp
    m, n = a.shape
    relations = np.asarray(relations, dtype=str)
    flip = b < 0  # rows are normalized to b >= 0
    # each normalized row's slack coefficient: +1 on <=, -1 on >=, 0 on =;
    # a row without a +1 slack starts from an artificial
    slack = np.select([relations == "<=", relations == ">="], [1.0, -1.0])
    slack[flip] *= -1.0
    has_slack, art = slack != 0.0, slack <= 0.0
    # tableau columns: x, the slacks, the artificials (each in row order), b
    n_real = n + int(has_slack.sum())
    total = n_real + int(art.sum())
    slack_at = n - 1 + np.cumsum(has_slack)
    art_at = n_real - 1 + np.cumsum(art)
    mat = np.zeros((m + 1, total + 1))
    rows = mat[:m]
    rows[:, :n] = a
    rows[flip, :n] *= -1.0  # only the flipped rows: negating all of a would copy it
    rows[:, -1] = np.where(flip, -b, b)
    rows[has_slack, slack_at[has_slack]] = slack[has_slack]
    rows[art, art_at[art]] = 1.0
    tab = _Tableau(mat, np.where(art, art_at, slack_at).tolist())
    stall_limit = 2 * (n + m)

    if total > n_real:
        # phase 1: maximize -(sum of artificials), priced out over the basis
        mat[-1, n_real:total] = 1.0
        for i in np.flatnonzero(art):
            mat[-1] -= mat[i]
        tab.run(np.arange(total), stall_limit)
        if mat[-1, -1] < -FEAS_TOL:
            return SimplexSolution("infeasible", None, None, tab.iterations)
        _evict_artificials(tab, n_real)
        mat[-1, :] = 0.0

    # phase 2 prices the true objective over the current basis
    mat[-1, :n] = -c
    for i, col in enumerate(tab.basis):
        if mat[-1, col] != 0.0:
            mat[-1] -= mat[-1, col] * mat[i]
    # the artificials, the last columns, never re-enter
    status = tab.run(np.arange(n_real), stall_limit)
    if status == "unbounded":
        return SimplexSolution("unbounded", None, None, tab.iterations)

    x = np.zeros(n)
    for i, col in enumerate(tab.basis):
        if col < n:
            x[col] = mat[i, -1]
    x[np.abs(x) < PIVOT_TOL] = 0.0
    value = float(c @ x)
    return SimplexSolution("optimal", tuple(map(float, x)), value, tab.iterations)


def _evict_artificials(tab: _Tableau, n_real: int):
    """Pivot zero-level artificials (columns from n_real on) out of the basis.

    Rows whose only nonzeros sit in artificial columns are redundant
    constraints; zeroing them is equivalent to deleting the row.
    """
    for i in range(len(tab.basis)):
        if tab.basis[i] < n_real:
            continue
        nonzero = np.flatnonzero(np.abs(tab.mat[i, :n_real]) > PIVOT_TOL)
        if nonzero.size:
            tab.pivot(i, int(nonzero[0]))
        else:
            tab.mat[i, :] = 0.0

