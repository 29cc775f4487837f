"""Two-phase primal simplex on a dense tableau, with the lexicographic rule.

Dantzig pricing picks the entering column. The ratio test takes the
least ratio, and breaks ties within PIVOT_TOL by the lexicographically
least row of key / pivot entry, where key holds each constraint row's
slack column, or its artificial on an "=" row: mat[:m, key] is
B^-1 diag(±1). Every row of [b | key] starts lexicographically positive
(rows are normalized to b >= 0, and a ">=" row with b == 0 to a +1
slack), and the rule keeps it so, which is the simplex on the LP with
every bound loosened by (ε, ε², …): it cannot cycle, and it ends on the
basis that fuzzyplan.basis certifies (Dantzig, Orden & Wolfe, Pacific J.
Math. 5, 1955; Bertsimas & Tsitsiklis, Introduction to Linear
Optimization, §3.4). Each step is a numpy operation over the tableau:
pricing is one argmin over the allowed columns, the ratio test visits
only the rows with a positive pivot-column entry, and a pivot updates
only the rows whose pivot-column entry is nonzero.

solve runs both phases from the slack basis. reoptimize runs phase 2
alone from a basis the caller knows, such as the optimum of a nearby LP
of the same constraint matrix. It builds the tableau at that basis and
runs the same _Tableau.run, so the pivot rule is the same.

An LP is a LinearProgram of arrays, as the distributor path holds it:
the shape's constraint matrix, its row relations, and one scenario's b
and c. Its sense is always max; checking that the arrays are finite is
the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["LinearProgram", "SimplexSolution", "solve", "reoptimize", "PIVOT_TOL", "FEAS_TOL"]

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
    # optimal: each row's basic column of [a | slacks], a slack per row
    # that has one (not "="), in row order
    basis: tuple | None = None


class _Tableau:
    """Mutable simplex tableau: constraint rows plus one objective row.

    key is the column of each constraint row's slack, or of its
    artificial on an "=" row, in row order.
    """

    def __init__(self, mat: np.ndarray, basis: list, key: list):
        self.mat = mat
        self.basis = basis
        self.key = key
        self.iterations = 0

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

    def run(self, allowed_cols: np.ndarray) -> str:
        """Maximize until optimal ("optimal") or an unbounded ray ("unbounded").

        allowed_cols is an ascending index array of the columns that may
        enter the basis. The rows of key are those of a nonsingular
        matrix, so in exact arithmetic the lexicographic test leaves one.
        """
        mat = self.mat
        while True:
            # Dantzig: the first column at the strict minimum
            reduced = mat[-1, allowed_cols]
            k = int(reduced.argmin())
            if not reduced[k] < -PIVOT_TOL:
                return "optimal"
            col = int(allowed_cols[k])
            rows = (mat[:-1, col] > PIVOT_TOL).nonzero()[0]
            if not rows.size:
                return "unbounded"
            for j in [-1, *self.key]:  # b, then the key columns
                ratios = mat[rows, j] / mat[rows, col]
                rows = rows[ratios <= ratios.min() + PIVOT_TOL]
                if rows.size == 1:
                    break
            self.pivot(int(rows[0]), col)
            if self.iterations > 50_000:
                raise RuntimeError("simplex failed to terminate")


def solve(lp: LinearProgram) -> SimplexSolution:
    """Two-phase solve of lp: an exact vertex or the infeasible/unbounded flag."""
    a, relations, b, c = lp
    m, n = a.shape
    relations = np.asarray(relations, dtype=str)
    # rows are normalized to b >= 0, and a ">=" row with b == 0 to a +1
    # slack, so that every row of [b | key] starts lexicographically positive
    flip = (b < 0) | ((relations == ">=") & (b == 0))
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
    rows[:, -1] = np.abs(b)
    rows[has_slack, slack_at[has_slack]] = slack[has_slack]
    rows[art, art_at[art]] = 1.0
    key = np.where(has_slack, slack_at, art_at).tolist()
    tab = _Tableau(mat, np.where(art, art_at, slack_at).tolist(), key)

    if total > n_real:
        # phase 1: maximize -(sum of artificials), priced out over the basis
        mat[-1, n_real:total] = 1.0
        for i in np.flatnonzero(art):
            mat[-1] -= mat[i]
        tab.run(np.arange(total))
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
    return _phase2(tab, c, n_real)


def reoptimize(lp: LinearProgram, basic, inverse: np.ndarray) -> SimplexSolution:
    """Phase 2 of lp from a known basis: the primal simplex restarted
    where an earlier solve ended (Bertsimas & Tsitsiklis §3.4 and §5.1).

    Every row of lp has a slack (no "=" row), so its columns are a and
    one slack per row, +1 on "<=" and -1 on ">=", as in solve's basis.
    basic names m of them and inverse is the inverse of their matrix,
    row r for basic[r]. The tableau is inverse @ [a | diag(±1) | b], the
    key columns are the slacks, and the objective row is priced out by
    c_B inverse. Every row of [x_B | key] must start lexicographically
    positive, as solve's do: run keeps them so, and ends on an optimum of
    the same loosened LP as solve.
    """
    a, relations, b, c = lp
    m, n = a.shape
    inverse = np.asarray(inverse, dtype=float)  # an integer one would skip BLAS in the products
    signs = np.where(np.asarray(relations, dtype=str) == "<=", 1.0, -1.0)
    mat = np.empty((m + 1, n + m + 1))
    mat[:m, :n] = inverse @ a
    mat[:m, n:-1] = inverse * signs
    mat[:m, -1] = inverse @ b
    mat[:m, basic] = np.eye(m)
    costs = np.concatenate([c, np.zeros(m + 1)])
    mat[-1] = costs[basic] @ mat[:m] - costs
    mat[-1, basic] = 0.0
    return _phase2(_Tableau(mat, list(basic), list(range(n, n + m))), c, n + m)


def _phase2(tab: _Tableau, c: np.ndarray, n_real: int) -> SimplexSolution:
    """Run tab, whose objective row prices c, over its first n_real columns."""
    if tab.run(np.arange(n_real)) == "unbounded":
        return SimplexSolution("unbounded", None, None, tab.iterations)
    x = np.zeros(len(c))
    for i, col in enumerate(tab.basis):
        if col < len(c):
            x[col] = tab.mat[i, -1]
    x[np.abs(x) < PIVOT_TOL] = 0.0
    value = float(c @ x)
    x = tuple(map(float, x))
    return SimplexSolution("optimal", x, value, tab.iterations, tuple(tab.basis))


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

