"""Two-phase primal simplex on a dense tableau, with the lexicographic rule.

Dantzig pricing picks the entering column. The ratio test takes the
least ratio, and breaks ties within PIVOT_TOL by the lexicographically
least row of key / pivot entry, where key holds each constraint row's
slack column: mat[:m, key] is B^-1 diag(±1). Every row of [b | key]
starts lexicographically positive (rows are normalized to b >= 0, and a
row with b within the zero floor of fuzzyplan.basis to a +1 slack), and
the rule keeps it so, which is the simplex on the LP with every bound
loosened by (ε, ε², …) (Dantzig, Orden & Wolfe, Pacific J. Math. 5,
1955; Bertsimas & Tsitsiklis, Introduction to Linear Optimization,
§3.4).

Phase 2 breaks ties in c by the same rule applied to the dual. Its
pricing tolerance is PIVOT_TOL max |c|, and once no column is priced
beyond it, the columns within it of 0 are the ties: their objective-row
entries are set to 0, and the tableau enters each one whose reduced cost
is not negative once every profit c_k is raised by δ^(k+1) (tie_passes),
through the lexicographic ratio test, until every tie passes. That is
the simplex on the optimal face with both perturbations, an LP that is
primal and dual nondegenerate: it cannot cycle, and it ends on the one
optimal basis that fuzzyplan.basis certifies, whether or not the
optimum of c is unique. A tie pivot needs the lexicographic ratio test:
at a degenerate vertex the least ratio can sit on a row whose 0 rounded
to -6e-17, and leaving that row puts another row at 0 with a key that
leads negative.

Each step is a numpy operation over the tableau:
pricing is one argmin over the allowed columns, the ratio test visits
only the rows with a positive pivot-column entry, and a pivot updates
only the rows whose pivot-column entry is nonzero.

solve runs both phases from the slack basis. reoptimize runs phase 2
alone from a basis the caller knows, such as the optimum of a nearby LP
of the same constraint matrix. It builds the tableau at that basis and
runs the same _Tableau.run, so the pivot rule is the same.

An LP is a LinearProgram of arrays, as the distributor path holds it:
the shape's constraint matrix, its slack signs, and one scenario's b
and c. Every row has a slack, so the standard form is
a x + diag(signs) s = b with x, s >= 0 (Bertsimas & Tsitsiklis §1.1).
Its sense is always max; checking that the arrays are finite is the
caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "LinearProgram",
    "SimplexSolution",
    "solve",
    "reoptimize",
    "tie_passes",
    "PIVOT_TOL",
    "FEAS_TOL",
]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7


class LinearProgram(NamedTuple):
    """max c.x subject to a x + diag(signs) s = b and x, s >= 0."""

    a: np.ndarray  # (m, n)
    signs: np.ndarray  # (m,): +1 where a x <= b, -1 where a x >= b
    b: np.ndarray  # (m,)
    c: np.ndarray  # (n,)


@dataclass(frozen=True)
class SimplexSolution:
    status: str  # optimal | infeasible | unbounded
    x: tuple | None
    objective_value: float | None
    iterations: int
    # optimal: each row's basic column of [a | diag(signs)], in row order
    basis: tuple | None = None


class _Tableau:
    """Mutable simplex tableau: constraint rows plus one objective row.

    key is the column of each constraint row's slack, in row order.
    """

    def __init__(self, mat: np.ndarray, basis: list, key: list):
        self.mat = mat
        self.basis = basis
        self.key = key
        self.iterations = 0

    def pivot(self, row: int, col: int):
        mat = self.mat
        mat[row] /= mat[row, col]
        # rows with a zero pivot-column entry would subtract nothing
        rows = mat[:, col].nonzero()[0]
        rows = rows[rows != row]
        mat[rows] -= mat[rows, col, None] * mat[row]
        self.basis[row] = col
        self.iterations += 1

    def run(self, allowed_cols: np.ndarray, tie: float | None = None) -> str:
        """Maximize until optimal ("optimal") or an unbounded ray ("unbounded").

        allowed_cols is an ascending index array of the columns that may
        enter the basis. The rows of key are those of a nonsingular
        matrix, so in exact arithmetic the lexicographic test leaves one.
        A column enters while one's objective-row entry is below -tie,
        or -PIVOT_TOL without tie (phase 1). Then, with tie (phase 2),
        the entries within tie of 0 are set to 0, which moves c by at
        most tie on each such column, and the first column at 0 that
        fails tie_passes enters (_tied_entering), until none does. Such a
        pivot leaves the objective row as it is, so the columns at 0 stay
        those of the optimal face, exactly, and it cannot cycle.
        """
        mat = self.mat
        while True:
            # Dantzig: the first column at the strict minimum
            reduced = mat[-1, allowed_cols]
            k = int(reduced.argmin())
            if reduced[k] < -(PIVOT_TOL if tie is None else tie):
                col = int(allowed_cols[k])
            elif tie is None:
                return "optimal"
            else:
                tied = allowed_cols[reduced <= tie]
                mat[-1, tied] = 0.0
                col = self._tied_entering(tied)
                if col < 0:
                    return "optimal"
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

    def _tied_entering(self, tied: np.ndarray) -> int:
        """The first of the tied columns that is nonbasic, fails tie_passes
        and has a positive entry to pivot on, or -1 where none does."""
        basic = np.array(self.basis)
        tied = tied[~np.isin(tied, basic)]
        entries = self.mat[:-1, tied]
        fails = ~tie_passes(entries, basic, tied) & (entries > PIVOT_TOL).any(axis=0)
        return int(tied[fails][0]) if fails.any() else -1


def solve(lp: LinearProgram) -> SimplexSolution:
    """Two-phase solve of lp: an exact vertex or the infeasible/unbounded flag."""
    a, signs, b, c = lp
    m, n = a.shape
    if not np.isin(signs, (1.0, -1.0)).all():
        raise ValueError("slack signs must be +1 or -1")
    # rows are normalized to b >= 0, and a row whose |b| is within
    # PIVOT_TOL * max(1, max |b|) of 0 to a +1 slack, so that every row of
    # [b | key] starts lexicographically positive with such a b counted as
    # 0, as fuzzyplan.basis counts it on its LPs, where max |b| < 1
    zero = np.abs(b) <= PIVOT_TOL * max(1.0, np.abs(b).max())
    flip = np.where(zero, signs < 0, b < 0)
    # each normalized row's slack coefficient; a row without a +1 slack
    # starts from an artificial
    slack = np.where(flip, -signs, signs)
    art = slack < 0
    # tableau columns: x, the slacks, the artificials (each in row order), b
    n_real = n + m
    total = n_real + int(art.sum())
    art_at = n_real - 1 + np.cumsum(art)
    key = list(range(n, n_real))
    mat = np.zeros((m + 1, total + 1))
    rows = mat[:m]
    rows[:, :n] = a
    rows[flip, :n] *= -1.0  # only the flipped rows: negating all of a would copy it
    rows[:, -1] = np.where(flip, -b, b)
    rows[:, n:n_real] = np.diag(slack)
    rows[art, art_at[art]] = 1.0
    tab = _Tableau(mat, np.where(art, art_at, key).tolist(), key)

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

    The columns of lp are those of [a | diag(signs)], as in solve's
    basis. basic names m of them and inverse is the inverse of their
    matrix, row r for basic[r]. The tableau is
    inverse @ [a | diag(signs) | b], the key columns are the slacks, as
    in solve, and the objective row is priced out by c_B inverse. Every
    row of [x_B | key] must start lexicographically positive, as solve's
    do: run keeps them so, and ends on the one optimal basis of the same
    perturbed LP as solve.
    """
    a, signs, b, c = lp
    m, n = a.shape
    inverse = np.asarray(inverse, dtype=float)  # an integer one would skip BLAS in the products
    mat = np.empty((m + 1, n + m + 1))
    mat[:m, :n] = inverse @ a
    mat[:m, n:-1] = inverse * signs
    mat[:m, -1] = inverse @ b
    mat[:m, basic] = np.eye(m)
    costs = np.concatenate([c, np.zeros(m + 1)])
    mat[-1] = costs[basic] @ mat[:m] - costs
    mat[-1, basic] = 0.0
    return _phase2(_Tableau(mat, list(basic), list(range(n, n + m))), c, n + m)


def tie_passes(entries: np.ndarray, basic, cols: np.ndarray) -> np.ndarray:
    """Whether each tied nonbasic column of cols prices below 0 once every
    profit c_k is raised by δ^(k+1), δ > 0 infinitesimal.

    entries holds B^-1 M_j for each j in cols, one column each, its rows
    those of basic. The δ-terms of j's reduced cost are +1 at j itself
    and -entries[i] at basic[i], so a tie passes where the first of them
    that is nonzero, in column order, is negative: where some basic
    column before j has a nonzero entry, and the first such entry is
    positive. With these c the dual is nondegenerate as well.
    """
    basic = np.asarray(basic)
    earlier = (np.abs(entries) > PIVOT_TOL) & (basic[:, None] < cols)
    first = np.where(earlier, basic[:, None], np.inf).argmin(axis=0)
    return earlier.any(axis=0) & (entries[first, np.arange(len(cols))] > 0)


def _phase2(tab: _Tableau, c: np.ndarray, n_real: int) -> SimplexSolution:
    """Run tab, whose objective row prices c, over its first n_real columns."""
    if tab.run(np.arange(n_real), PIVOT_TOL * np.abs(c).max()) == "unbounded":
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

    An artificial's column is minus its row's slack column, bit for bit,
    since pivots are row operations; so where the artificial is basic
    the slack has -1, and there is always an entry to pivot on among the
    first n_real columns.
    """
    for i in range(len(tab.basis)):
        if tab.basis[i] >= n_real:
            tab.pivot(i, int(np.argmax(np.abs(tab.mat[i, :n_real]) > PIVOT_TOL)))

