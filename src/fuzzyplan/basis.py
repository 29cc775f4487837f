"""Strict optimal-basis certificates for the distributor LP.

The LP of one shape always has the same constraint matrix; only the
profits c and the right-hand side b change. So an optimal basis found
by one cold solve can be tested on another (c, b) without a simplex
run: basis B is the unique optimum of (c, b) when x_B = B^-1 b is
strictly positive and every nonbasic reduced cost is strictly negative
(the sensitivity-analysis test of Bertsimas & Tsitsiklis, Introduction
to Linear Optimization, ch. 5). Strictness means at most one basis can
answer a given (c, b), and the certifier sums in a fixed order, so a
certified answer does not depend on which bases were tried, or in what
order.

_BasisCache.answer is the one way to answer a batch of these LPs, for
the crisp midpoint LP (a batch of one), Monte Carlo's chunks of
scenarios and the fuzzy solver's alpha-cut corners alike: screen,
certify the cached bases, and cold-solve what is left from the row's
own (c, b) and the shape's lp_skeleton, learning its basis. So every
answer is a function of its own row's (c, b), whatever the other rows
of the batch are and in whatever order they come. This is the only
module that calls simplex.solve.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import lp_skeleton, necessary_violations
from .simplex import PIVOT_TOL, LinearProgram, solve

__all__ = ["CERTIFY_MARGIN", "FIRST_BASICS"]

# A cached basis answers a scenario only when every nonbasic reduced
# cost is below -CERTIFY_MARGIN * max(1, max |c|): then it is the unique
# optimum, and the cold solve would end on it as well.
CERTIFY_MARGIN = 1e-7

# How many basic variables certify tests before it computes the rest of
# x_B. Results do not depend on it; it only saves work on the scenarios
# a basis does not fit.
FIRST_BASICS = 8


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
    and -1 on contract rows.
    """

    def __init__(self, shape):
        self.skeleton = lp_skeleton(shape)
        a, relations = self.skeleton
        self.shape = shape
        self.signs = np.array([1.0 if rel == "<=" else -1.0 for rel in relations])
        self.lanes = shape[0] * shape[1]
        self.matrix = np.hstack([a, np.diag(self.signs)])
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

    @np.errstate(over="ignore", invalid="ignore")
    def answer(self, c: np.ndarray, b: np.ndarray):
        """(feasible, benefit, x) of each LP in a batch: one per row of c and b.

        c is (K, MN) lane profits in lane order and b the (K, 2(M+N))
        right-hand sides in constraint-row order, both finite. Results
        are (K,) bool, (K,) and (K, MN); an infeasible row has benefit 0
        and x all zeros.

        A row that breaks a necessary feasibility condition is
        infeasible without a solve. Every cached basis, and every basis
        learned here, is tested on every row still waiting for an
        answer; the first row none certifies is solved cold, by
        simplex.solve on that row's c and b and the shape's skeleton.
        Afterwards the cache holds only the bases that answered a row
        other than the one they were learned from: where optimal
        supports do not repeat, no basis is retested on the next batch.

        Finite data can still overflow on the way, in the simplex's
        pricing or in a benefit past the float maximum: numpy stays
        quiet, and a feasible row whose benefit or x is not finite
        raises ValueError.
        """
        m, n = self.shape
        feasible = np.ones(len(b), dtype=bool)
        for mask in necessary_violations(*np.split(b, [m, m + n, 2 * m + n], axis=1)):
            feasible &= ~mask.reshape(len(b), -1).any(axis=1)
        benefit, x = np.zeros(len(b)), np.zeros((len(b), self.lanes))
        pending = np.flatnonzero(feasible)

        def settle(basis) -> int:
            """Answer the pending rows basis certifies; return how many."""
            nonlocal pending
            ok, x_ok, benefit_ok = self.certify(basis, c[pending], b[pending])
            x[pending[ok]], benefit[pending[ok]] = x_ok, benefit_ok
            pending = pending[~ok]
            return len(x_ok)

        useful = [basis for basis in self.bases.values() if settle(basis)]
        while pending.size:
            row = int(pending[0])
            sol = solve(LinearProgram(*self.skeleton, b[row], c[row]))
            basis = self.learn(np.array(sol.x), b[row]) if sol.status == "optimal" else None
            others = settle(basis) if basis is not None else 0
            if pending.size and pending[0] == row:  # not certified: the cold answer stands
                feasible[row] = sol.status == "optimal"
                if feasible[row]:
                    benefit[row], x[row] = sol.objective_value, sol.x
                pending = pending[1:]
            else:
                others -= 1  # its own row
            if others:
                useful.append(basis)
        self.bases = {basis.basic.tobytes(): basis for basis in useful}
        if not (np.isfinite(benefit[feasible]).all() and np.isfinite(x[feasible]).all()):
            raise ValueError("optimal benefit must be finite")
        return feasible, benefit, x
