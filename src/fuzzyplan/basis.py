"""Strict optimal-basis certificates for the distributor LP.

The LP of one shape always has the same constraint matrix; only the
profits c and the right-hand side b change. So an optimal basis found
by one cold solve can be tested on another (c, b) without a simplex
run. Basis B certifies (c, b) when every basic variable is strictly
positive, or 0 with its row of B^-1 diag(±1) lexicographically positive
(Dantzig, Orden & Wolfe, Pacific J. Math. 5, 1955; Bertsimas &
Tsitsiklis, Introduction to Linear Optimization, §3.4), and every
nonbasic reduced cost is strictly negative, or 0 and negative once each
profit c_k is raised by δ^(k+1) (simplex.tie_passes: the same rule on
the dual). B is then the one optimal basis of (c, b) with every bound
loosened by (ε, ε², …) and every profit raised by (δ, δ², …), an LP
that is primal and dual nondegenerate. So exactly one basis answers a
(c, b) that has an optimum, degenerate, tied in c or neither, and its x
is an optimum of (c, b). In floats, strictly negative means below
-CERTIFY_MARGIN max|c|, and 0 means within TIE_MARGIN max|c|; a reduced
cost between the two, a near tie, is certified by no basis. The
certifier decides with BLAS products and a guard band: a row whose
value is too near its threshold for the product's rounding bound is
decided by the fixed-order sum (_accumulate), which also gives every
value it writes.

Batches are feature-major inside the engine: answer writes each batch's
scaled b once as a (2(M+N), K) array and its c as (MN, K), one column
per LP, and fresh, certify, _clears and _accumulate read that layout. So
every per-LP test (a largest |c|, a least gap) reduces along the long
contiguous axis, and each step of a fixed-order sum adds whole
contiguous rows. What depends only on the basis (how many basic and
nonbasic columns are lanes: the columns ascend, so lanes come first) is
made with its _Basis in _basis, stored with it, and dropped with it.
No bit depends on the layout:
each product commutes, and each fixed-order sum adds the same terms in
the same order, r ascending. certify's sums leave out only exact zeros:
the duals sum over the basic lanes alone, since a slack's profit is 0,
and x_B is summed for the basic lanes alone, the entries it writes. A
left-out term would add ±0 to a sum that starts at +0, which moves no
bit.

_BasisCache.answer is the one way to answer a batch of these LPs, for
the crisp midpoint LP (a batch of one), Monte Carlo's blocks of
scenarios and the fuzzy solver's alpha-cut corners alike: screen, scale
each row's b and c by powers of two, certify the stored bases, and
answer what is left from the row's own (c, b), finding its basis
(_BasisCache.fresh). The cache has one store of bases, each B^-1 held as
int8 since its entries are 0 and ±1. A batch tests every stored basis on
every row; fresh stores each basis that certifies its own row, after
testing it on every row still pending; and the batch ends keeping only
the bases that answered a row other than their own. So every stored
basis has been tested on every pending row, and certify's primal test
is the one test of a start: answer keeps, for each row, the newest
stored basis whose test it passed. The engines of fresh come in order:
- warm: phase 2 of the tableau (simplex.reoptimize) from that basis,
  whichever engine found it.
- propose: the transport solver, since the distributor LP is a
  transportation problem once each node splits in two.
- the tableau from the slack basis of the shape's lp_skeleton.
The first two only propose a basis. It stands only where it certifies
its own row, as the one basis the tableau would end on too; otherwise
the next engine runs. The tableau breaks ties by the same two rules, in
b by its ratio test and in c by the columns it enters within its band,
so it ends on the one basis certify can accept, degenerate or tied, and
certify tests that basis as it stands; at a near tie, the tableau's
answer stands. So every answer is a function of its own row's (c, b),
whatever the other rows of the batch are, in whatever order they come
and whatever the store holds. This is the only module that calls the
simplex.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import lp_skeleton, necessary_violations
from .simplex import PIVOT_TOL, LinearProgram, reoptimize, solve, tie_passes
from .transport import modi_optimize, vogel_approximation

__all__ = ["CERTIFY_MARGIN", "TIE_MARGIN"]

# A basis answers a scenario only where every nonbasic reduced cost is
# below -CERTIFY_MARGIN * max |c|, or a tie: within TIE_MARGIN * max |c|
# of 0, and passed by simplex.tie_passes. The tableau's own tie band,
# PIVOT_TOL * max |c|, lies a hundredfold inside the one and outside the
# other, so the cold solve ends on such a basis as well, whatever the
# last bits of its values.
CERTIFY_MARGIN = 1e-7
TIE_MARGIN = 1e-11


def _accumulate(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix @ vectors for (P, R) by (R, K), summed in a fixed order.

    The layout is feature-major, as answer writes its batches: column k
    of vectors is one LP, and so is column k of the result. Entry (p, k)
    is the sum over r ascending of matrix[p, r] vectors[r, k], from +0,
    whatever K is; a BLAS product may block differently with the batch
    size and move the last bits, and then results would depend on how a
    run is split. A column of matrix that is all zeros would add exact
    zeros, so it is skipped. Each step adds the contiguous row
    vectors[r], times column r of matrix, to every row of the result.
    These are the products, in the same order, of the row-major sum
    vectors.T @ matrix.T, and a product commutes: every bit is the same
    in either layout. certify passes views of its basis's arrays (B^-1,
    its rows at the basic lanes transposed, and M_N transposed); where
    the lanes end among the basic and nonbasic columns is made with the
    basis, in _BasisCache._basis.
    """
    out = np.zeros((matrix.shape[0], vectors.shape[1]))
    for r in np.flatnonzero(matrix.any(axis=0)):
        out += matrix[:, r : r + 1] * vectors[r]
    return out


def _guard(scale, n: int):
    """4nu scale, u = 2^-53: twice γ_n scale, which absorbs the rounding
    of scale itself."""
    return scale * (4 * n) * 2.0**-53


def _clears(value, threshold, bound, exact) -> np.ndarray:
    """(exact(cols) > threshold[..., cols]).all(axis=0) for every column
    (LP), threshold broadcast to value's shape, read from value wherever
    that decides it.

    value is the BLAS form of the fixed-order exact, and bound (one per
    column, or one for all) a bound on their difference. A column passes
    where its least value - threshold exceeds bound, and fails where that
    is below -bound; rounding the gap cannot carry it across ±bound.
    exact decides the other columns, those within bound of a threshold.
    """
    threshold = np.broadcast_to(threshold, value.shape)
    least = (value - threshold).min(axis=0)
    passed = least > bound
    unsure = np.flatnonzero(~(np.abs(least) > bound))
    if unsure.size:
        passed[unsure] = (exact(unsure) > threshold[..., unsure]).all(axis=0)
    return passed


class _Basis(NamedTuple):
    basic: np.ndarray  # standard-form columns, ascending: lanes, then slacks
    nonbasic: np.ndarray  # likewise
    inverse: np.ndarray  # of the basis matrix; row r gives basic variable r
    lead: np.ndarray  # sign of the first nonzero of row r of inverse @ diag(signs)
    basic_lanes: int  # basic[:basic_lanes] are lanes
    nonbasic_lanes: int  # nonbasic[:nonbasic_lanes] are lanes


class _BasisCache:
    """Optimal bases found so far in a run, and the test that reuses them.

    Columns index the standard form [A | diag(signs)] of the shape's
    lp_skeleton: MN shipments, then one slack per row.

    Every method below answer (fresh, warm, _proposed, propose,
    _basis_at, certify) gets its LPs as answer scales them: each LP's
    max|b| and max|c| is 0 or in [0.5, 1). So a value within PIVOT_TOL
    of 0 counts as 0, which is also the zero floor of simplex.solve on
    such an LP, and no total or product of b and c comes near the float
    maximum. [A | diag(±1)] is totally unimodular (Hoffman & Kruskal,
    1956; Schrijver, Theory of Linear and Integer Programming, ch. 19),
    so every B^-1 has entries 0 and ±1; _basis rounds it to them, as int8.
    """

    def __init__(self, shape):
        self.skeleton = lp_skeleton(shape)
        a, self.signs = self.skeleton
        self.shape = shape
        self.lanes = shape[0] * shape[1]
        self.matrix = np.hstack([a, np.diag(self.signs)])
        self.column_weight = np.abs(self.matrix).sum(axis=0).max()  # for certify's bound
        self.bases = []  # _Basis, oldest first; what answer keeps and warm starts from

    def _basis(self, chosen: np.ndarray):
        """The basis of the columns in mask chosen, or None where they are
        not one. B^-1 is rounded to its exact entries 0 and ±1, and a row's
        lead is the sign of its first nonzero entry. The _Basis also holds
        what certify reads of the basis alone: where the lanes end among
        its basic and nonbasic columns."""
        basic = np.flatnonzero(chosen)
        if len(basic) != self.matrix.shape[0]:
            return None
        try:
            inverse = np.rint(np.linalg.inv(self.matrix[:, basic])).astype(np.int8)
        except np.linalg.LinAlgError:
            return None
        signed = inverse * self.signs
        lead = np.sign(signed[np.arange(len(basic)), np.argmax(signed != 0, axis=1)])
        nonbasic = np.flatnonzero(~chosen)
        lanes = [int(np.searchsorted(columns, self.lanes)) for columns in (basic, nonbasic)]
        return _Basis(basic, nonbasic, inverse, lead, *lanes)

    def _basis_at(self, x: np.ndarray, b: np.ndarray, c: np.ndarray):
        """The basis certify accepts at vertex x of LP (c, b), or None.

        The support of [x, slacks], and for each folded pair of b (a
        capacity equal to its minimum) its contract slack, or both its
        slacks where the node ships on no lane (a pair folded at 0). Then
        the capacity slack goes in for the contract slack wherever the
        duals price it above 0; a swap moves only its own pair's duals,
        so the swaps are made together. Any other degenerate support
        gives None. Only proposals come here: the fold completion lets
        a proposal at a repaired corner certify without the tableau,
        which ends on its own basis. It only proposes; certify decides.
        """
        pairs = len(b) // 2
        shipping = self.matrix[:, : self.lanes]
        chosen = np.concatenate([x, (b - shipping @ x) * self.signs]) > PIVOT_TOL
        folded = b[:pairs] == b[pairs:]
        idle = folded & (shipping[:pairs] @ chosen[: self.lanes] == 0)
        chosen[self.lanes :] |= np.concatenate([idle, folded])
        basis = self._basis(chosen)
        if basis is None:
            return None
        costs = np.concatenate([c, np.zeros(len(b))])
        reduced = costs - costs[basis.basic] @ basis.inverse @ self.matrix
        swap = folded & ~idle & (reduced[self.lanes : self.lanes + pairs] > 0)
        chosen[self.lanes :] ^= np.concatenate([swap, swap])
        return self._basis(chosen) if swap.any() else basis

    def propose(self, c: np.ndarray, b: np.ndarray):
        """Lane shipments of an optimum of one LP, by the transport solver.

        The LP is a balanced transportation problem to minimize -c once
        each supplier splits into a mandatory node (the positive part of
        its minimum) and an optional node (the rest of its capacity),
        each customer likewise, and a dummy supplier and a dummy customer
        take up the capacity left unused. A unit between a mandatory node
        and a dummy costs a big M; one between an optional node and a
        dummy, or between the dummies, costs 0. A lane ships the sum of
        its four node pairs. M only has to be large in practice: the
        certificate decides.

        Returns None, and leaves the LP to the tableau, where a capacity
        is below its minimum or 0 (by at most FEAS_TOL, or the screen
        would have answered the row), or where MODI runs out of pivots.
        A capacity equal to its minimum, as on a repaired corner, leaves
        an optional node with nothing to supply; certify still decides.
        """
        m, n = self.shape
        least = np.maximum(b[m + n :], 0.0)
        spare = b[: m + n] - least
        if (spare < 0).any():
            return None
        big = 1.0 + 4 * (m + n) * np.abs(c).max()
        supply = np.concatenate([least[:m], spare[:m], [least[m:].sum() + spare[m:].sum()]])
        demand = np.concatenate([least[m:], spare[m:], [least[:m].sum() + spare[:m].sum()]])
        costs = np.zeros((2 * m + 1, 2 * n + 1))
        costs[: 2 * m, : 2 * n] = np.tile(-c.reshape(m, n), (2, 2))
        costs[:m, -1] = costs[-1, :n] = big
        plan = modi_optimize(costs, *vogel_approximation(costs, supply.tolist(), demand.tolist()))
        if plan is None:
            return None
        f = np.array(plan[0])
        return (f[:m, :n] + f[m:-1, :n] + f[:m, n:-1] + f[m:-1, n:-1]).ravel()

    def warm(self, c: np.ndarray, b: np.ndarray, start: _Basis):
        """The basis phase 2 ends on from start, a stored basis that passed
        certify's primal test on b (answer chooses it; warm tests nothing).

        Such a start has every row of [x_B | B^-1 diag(±1)]
        lexicographically positive, so simplex.reoptimize keeps them so
        and ends on the one basis certify can accept where c has one.
        """
        lp = LinearProgram(*self.skeleton, b, c)
        return self._solved(reoptimize(lp, start.basic, start.inverse))

    def _proposed(self, c: np.ndarray, b: np.ndarray):
        """The basis of propose's plan, or None."""
        x = self.propose(c, b)
        return None if x is None else self._basis_at(x, b, c)

    def _solved(self, sol):
        """The _Basis a simplex solution ends on, or None where it has no optimum."""
        if sol.status != "optimal":
            return None
        return self._basis(np.isin(np.arange(self.matrix.shape[1]), sol.basis))

    def fresh(self, c: np.ndarray, b: np.ndarray, start: _Basis | None):
        """Answer LP 0 of the pending LPs (columns of c and b): none certifies it.

        Returns (basis, certified, cold solution): the basis found for LP 0
        (None where it has no optimum), what certify gives for it on every
        column, and the tableau's solution of LP 0. The stored bases have
        been tried, and start is the newest whose primal test LP 0 passed,
        or None. The engines: warm (phase 2 from start), _proposed (the
        transport solver) and simplex.solve, in this order. The first two
        only propose. Where the basis they give certifies LP 0 there is no
        cold solution, since the tableau would end on the same basis;
        otherwise the next engine runs. The tableau breaks ties in b and in
        c by certify's rules, so it ends on the one basis certify can
        accept, tied or not, and that basis is certified as it stands; where
        it fails the test (a near tie: a reduced cost between TIE_MARGIN and
        CERTIFY_MARGIN times max |c|), the tableau's answer stands. A basis
        that certifies LP 0 is stored, whichever engine found it.
        """
        c0, b0 = c[:, 0].copy(), b[:, 0].copy()
        warm = () if start is None else (lambda: self.warm(c0, b0, start),)
        for find in (*warm, lambda: self._proposed(c0, b0)):
            basis = find()
            if basis is not None:
                certified = self.certify(basis, c, b)
                if certified[0][0]:
                    self.bases.append(basis)
                    return basis, certified, None
        sol = solve(LinearProgram(*self.skeleton, b0, c0))
        basis = self._solved(sol)
        if basis is None:
            return None, None, sol
        certified = self.certify(basis, c, b)
        if certified[0][0]:
            self.bases.append(basis)
        return basis, certified, sol

    def certify(self, basis: _Basis, c: np.ndarray, b: np.ndarray):
        """Which scenarios (columns of c and b) basis answers, as their one certified basis.

        c is (MN, K) and b (2(M+N), K), one LP a column. Returns the mask,
        the optimal shipments of the certified columns, (MN, r), their
        benefits, and the mask of the primal test alone, from which answer
        chooses warm starts. Certified means: every basic variable above
        PIVOT_TOL, or within it of 0 with a positive lead, and every
        nonbasic reduced cost below -CERTIFY_MARGIN max|c|, or within
        TIE_MARGIN max|c| of 0 where simplex.tie_passes passes its column
        (the lexicographic rules of the module docstring). A tie's test is
        one of the basis alone, made only for the columns within the band on
        some LP, from B^-1 M_j, whose entries are 0 and ±1; only the LPs
        that fail outright are then decided again, so a batch with no tie
        does no more work. At most one basis certifies an LP. The tableau's
        final basis passes the primal test, since its zero floor on these
        LPs is PIVOT_TOL too, and outside near ties the dual test: its own
        tie band, PIVOT_TOL max|c|, lies a hundredfold inside the margin and
        outside TIE_MARGIN.

        An LP's tests, on x_B = B^-1 b and on the reduced costs
        c_N - M_N^T (B^-T c_B), M_N the nonbasic columns of the standard
        form, are read off BLAS products where the value
        clears its threshold by more than a bound on its distance from
        the _accumulate sum, and are decided by _accumulate on the other
        LPs (_clears). c_B and c_N are read off c's lanes: a slack's
        profit is 0, so the duals sum over the basic lanes alone, and a
        nonbasic slack's reduced cost is its price. A sum of n products
        errs by at most γ_n Σ|v||m|,
        γ_n = nu/(1 - nu) with u = 2^-53, in any order (Higham, Accuracy
        and Stability of Numerical Algorithms, §3.1), so two orders differ
        by at most 2γ_n Σ|v||m|. The entries of B^-1 are 0 and ±1; let n
        be the rows of B, k the largest column sum of |[A | diag(±1)]|
        (column_weight), which bounds those of |M_N|, and s = n max|c|.
        - x_B: Σ|v||m| is at most n max|b| < n, so the bound is
          _guard(n, n).
        - Reduced costs: Σ|c_B| is at most n max|c|, so the duals differ
          by at most 2γ_n s and are at most (1 + γ_n) s in size. The
          products with M_N then differ by at most 4γ_n s k to first
          order, and the subtraction from c_N adds a rounding of each
          side, 2u (max|c| + s k): the bound is _guard(max|c| (n k + 1),
          2n + 2). The outright test is decided so; a column out of the
          tie band by more than the bound on every LP is no tie, and the
          LPs a tie could pass are decided again on the fixed-order sums.
        The thresholds are at least PIVOT_TOL in size, so underflow, which
        the bound leaves out, moves no decision. So every decision is
        that of the fixed-order sums, and the written x_B and benefits
        are those sums: no bit depends on the batch or on BLAS.
        """
        n, ships, prices = len(basis.basic), basis.basic_lanes, basis.nonbasic_lanes
        passed = _clears(
            basis.inverse @ b,
            -basis.lead[:, None] * PIVOT_TOL,
            _guard(n, n),
            lambda cols: _accumulate(basis.inverse, b[:, cols]),
        )
        rows = np.flatnonzero(passed)
        c = c[:, rows]
        c_basic, c_nonbasic = c[basis.basic[:ships]], c[basis.nonbasic[:prices]]
        by_lane = basis.inverse[:ships].T  # the duals are by_lane @ c_basic
        nonbasic = self.matrix[:, basis.nonbasic].T
        largest = np.abs(c).max(axis=0)
        spread = n * self.column_weight

        def priced(k, product):
            """Minus the reduced costs of columns k, from product."""
            value = product(nonbasic, product(by_lane, c_basic[:, k]))
            value[:prices] -= c_nonbasic[:, k]
            return value

        value, bound = priced(slice(None), np.matmul), _guard(largest * (spread + 1.0), 2 * n + 2)
        margin, tie = CERTIFY_MARGIN * largest, TIE_MARGIN * largest
        optimal = _clears(value, margin, bound, lambda k: priced(k, _accumulate))
        tied = ~(np.abs(value) > tie + bound).all(axis=1)  # within the band somewhere
        if tied.any() and not optimal.all():
            cols = basis.nonbasic[tied]
            passes = np.zeros(len(tied), dtype=bool)
            passes[tied] = tie_passes(basis.inverse @ self.matrix[:, cols], basis.basic, cols)
            if passes.any():  # the LPs that fail outright, decided again by the sums
                retry = np.flatnonzero(~optimal)
                exact = priced(retry, _accumulate)
                ties = passes[:, None] & (np.abs(exact) <= tie[retry])
                optimal[retry] = ((exact > margin[retry]) | ties).all(axis=0)
        rows, c_basic = rows[optimal], c_basic[:, optimal]
        x_basic = _accumulate(basis.inverse[:ships], b[:, rows])  # the shipping lanes' x_B
        ok = np.zeros(b.shape[1], dtype=bool)
        ok[rows] = True
        x = np.zeros((self.lanes, len(rows)))
        x[basis.basic[:ships]] = x_basic
        benefit = np.zeros(len(rows))
        for r in range(ships):
            benefit += c_basic[r] * x_basic[r]
        return ok, x, benefit, passed

    @np.errstate(over="ignore", invalid="ignore")
    def answer(self, c: np.ndarray, b: np.ndarray):
        """(feasible, benefit, x) of each LP in a batch: one per row of c and b.

        c is (K, MN) lane profits in lane order and b the (K, 2(M+N))
        right-hand sides in constraint-row order, both finite. Results
        are (K,) bool, (K,) and (K, MN); an infeasible row has benefit 0
        and x all zeros.

        A row that fails the feasibility screen is infeasible without a
        solve. The rest are written once, scaled, into feature-major
        arrays: b as (2(M+N), P) and c as (MN, P), one column an LP. Each
        LP's b is divided by 2^k and its c by 2^j, k and j the frexp
        exponents of its max |b| and max |c|; its x is multiplied back by
        2^k and its benefit by 2^(k+j). That is exact in binary, it leaves
        the screen's absolute FEAS_TOL on the unscaled row, and it puts
        every LP in the frame the methods below assume (_BasisCache). Every
        stored basis is tested on every LP still waiting for an answer; the
        first LP none certifies goes to fresh, which starts warm from the
        newest stored basis that passed certify's primal test on it
        (starts), proposes a basis or solves the LP cold, tests the basis it
        finds on the LPs still pending, and stores it, and so lets it start
        them, only where it certifies its own LP. The pending columns are
        kept packed: answered columns are dropped as they settle. So every
        stored basis has been tested on every pending LP, and a basis found
        again answers nothing new and is not stored twice: certify is a
        function of (basis, LP). Within a batch the store grows by at most
        one basis for each LP that reaches fresh, (2(M+N))^2 bytes each. At
        the end it keeps only the bases that answered an LP other than the
        one they were found at: where optimal supports do not repeat, no
        basis is retested on the next batch.

        Finite data can still overflow where a benefit is multiplied back
        past the float maximum: numpy stays quiet, and a feasible row
        whose benefit or x is not finite raises ValueError.
        """
        m, n = self.shape
        feasible = np.ones(len(b), dtype=bool)
        for mask in necessary_violations(*np.split(b, [m, m + n, 2 * m + n], axis=1)):
            feasible &= ~mask.reshape(len(b), -1).any(axis=1)
        screened = np.flatnonzero(feasible)
        c, b = c.T.take(screened, axis=1), b.T.take(screened, axis=1)
        k, j = (np.frexp(np.abs(values).max(axis=0))[1] for values in (b, c))
        np.ldexp(b, -k, out=b)
        np.ldexp(c, -j, out=c)
        benefit, x = np.zeros(len(screened)), np.zeros((self.lanes, len(screened)))
        pending = np.arange(len(screened))  # columns of x still to answer, and of c and b
        starts = np.full(len(screened), -1)  # per column: the newest basis in self.bases it passed

        def settle(ok, x_ok, benefit_ok, passed, stored) -> int:
            """Answer the pending LPs a basis certifies (ok), start those it passed
            from it if it is self.bases[stored], and return how many it answered."""
            nonlocal pending, c, b
            if stored is not None:
                starts[pending[passed]] = stored
            if len(benefit_ok):
                cols, keep = pending[ok], ~ok
                x[:, cols], benefit[cols] = x_ok, benefit_ok
                pending, c, b = pending[keep], c.compress(keep, axis=1), b.compress(keep, axis=1)
            return len(benefit_ok)

        useful = [old for i, old in enumerate(self.bases) if settle(*self.certify(old, c, b), i)]
        while pending.size:
            col, newest = int(pending[0]), starts[pending[0]]
            basis, certified, sol = self.fresh(c, b, self.bases[newest] if newest >= 0 else None)
            stored = len(self.bases) - 1 if basis is not None and certified[0][0] else None
            others = settle(*certified, stored) if basis is not None else 0
            if pending.size and pending[0] == col:  # not certified: the cold answer stands
                if sol.status == "optimal":
                    benefit[col], x[:, col] = sol.objective_value, sol.x
                else:
                    feasible[screened[col]] = False
                pending, c, b = pending[1:], c[:, 1:], b[:, 1:]
            else:
                others -= 1  # its own LP
            if others:
                useful.append(basis)
        self.bases = useful
        benefit, x = np.ldexp(benefit, k + j), np.ldexp(x, k)
        if not (np.isfinite(benefit).all() and np.isfinite(x).all()):
            raise ValueError("optimal benefit must be finite")
        benefits, shipments = np.zeros(len(feasible)), np.zeros((len(feasible), self.lanes))
        benefits[screened], shipments[screened] = benefit, x.T
        return feasible, benefits, shipments
