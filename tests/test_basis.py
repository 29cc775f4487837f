"""basis._BasisCache.answer against scipy's HiGHS on random small batches."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dual_lexicographic_negative, fixed_order_certify, fixed_order_sum

import fuzzyplan.basis as basis_module
from fuzzyplan.basis import CERTIFY_MARGIN, TIE_MARGIN, _BasisCache
from fuzzyplan.simplex import PIVOT_TOL, LinearProgram, solve


# test_exactly_one_basis_certifies_each_optimal_vertex enumerates a row
# only where its optimal support has at most this many completions
COMPLETIONS = 20_000


def certify(cache, basis, c, b):
    """cache.certify on c and b with one LP a row, as answer lays them out
    (one LP a column), and x given back one LP a row."""
    ok, x, benefit, passed = cache.certify(basis, *map(np.ascontiguousarray, (c.T, b.T)))
    return ok, np.ascontiguousarray(x.T), benefit, passed


def random_batch(rng, m, n, k):
    """k distributor LPs around one random scenario, as (c, b).

    Each row moves by none, a little or a lot, so some rows share an
    optimal basis and others do not. Contract minimums reach below zero
    (the simplex flips those rows), and the larger moves make some rows
    infeasible, which the screen answers.
    """
    lo = np.repeat([300.0, -100.0], m + n)
    hi = np.repeat([700.0, 300.0], m + n)
    spread = rng.choice([0.0, 0.01, 0.3], size=(k, 1))
    b = rng.uniform(lo, hi) + spread * (hi - lo) * rng.normal(size=(k, lo.size))
    c = rng.normal(50.0, 100.0, m * n) + spread * 100.0 * rng.normal(size=(k, m * n))
    return c, b


@pytest.mark.parametrize("seed", range(3))
def test_batch_answers_match_highs(seed, counted_solves):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(seed)
    answered = 0
    for m, n in ((1, 1), (1, 3), (2, 2), (3, 2), (3, 4)):
        cache = _BasisCache((m, n))
        sums = cache.matrix[: m + n, : m * n]
        a_ub = np.vstack([sums, -sums])  # >= contract rows as <= rows
        for _ in range(3):  # later batches start from the bases the earlier ones kept
            c, b = random_batch(rng, m, n, 30)
            feasible, benefit, _ = cache.answer(c, b)
            answered += int(feasible.sum())
            for row in range(len(b)):
                b_ub = np.concatenate([b[row, : m + n], -b[row, m + n :]])
                ref = linprog(-c[row], A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
                assert ref.status in (0, 2), ref.message
                assert feasible[row] == (ref.status == 0)
                if feasible[row]:
                    scale = max(1.0, np.abs(c[row]).max() * np.abs(b[row]).max())
                    assert abs(benefit[row] + ref.fun) <= 1e-7 * scale
    assert 0 < len(counted_solves) < answered  # certified bases answered rows besides their own


def proposal_batches(rng, m, n):
    """Three batches of one shape that probe the transport proposal.

    On top of random_batch's negative minimums and infeasible rows,
    some rows get lane profits drawn from three values (ties), some a
    minimum set to its capacity (a repaired corner), some a minimum
    5e-8 above its capacity, under FEAS_TOL, which the screen passes and
    propose refuses, and the last batch profits near the float maximum.
    """
    for k in range(3):
        c, b = random_batch(rng, m, n, 24)
        tied = rng.random(len(c)) < 0.25
        c[tied] = rng.choice([40.0, 60.0, 90.0], size=(tied.sum(), c.shape[1]))
        for row in np.flatnonzero(rng.random(len(b)) < 0.2):
            cap = int(rng.integers(m + n))
            b[row, m + n + cap] = b[row, cap]
        for row in np.flatnonzero(rng.random(len(b)) < 0.1):
            cap = int(rng.integers(m + n))
            b[row, m + n + cap] = b[row, cap] + 5e-8
        if k == 2:
            c *= rng.choice([1e200, 1e306, 1e308]) / np.abs(c).max()
        yield c, b


@pytest.mark.parametrize("seed", range(6))
def test_proposals_leave_answers_and_cache_as_the_tableau_does(seed, monkeypatch):
    # a proposed basis is kept only where it certifies its own row, as
    # the unique optimum the tableau ends on too: so every answer and
    # the cache after every batch are byte for byte those of runs in
    # which the proposer proposes nothing
    rng = np.random.default_rng(100 + seed)
    outcomes = {"proposal certified": 0, "proposal refused": 0, "skipped": 0}
    outcomes["repaired row, proposal certified"] = 0
    plain = []  # caches whose proposer proposes nothing
    fresh = _BasisCache.fresh

    def observed(cache, c, b, start):
        basis, certified, sol = fresh(cache, c, b, start)
        m, n = cache.shape
        if (b[: m + n, 0] < np.maximum(b[m + n :, 0], 0.0)).any():
            outcomes["skipped"] += 1
        elif cache not in plain:
            outcomes["proposal certified" if sol is None else "proposal refused"] += 1
            folded_row = (b[: m + n, 0] == b[m + n :, 0]).any()
            outcomes["repaired row, proposal certified"] += bool(folded_row and sol is None)
        return basis, certified, sol

    monkeypatch.setattr(_BasisCache, "fresh", observed)
    # proposals are under test here, not warm starts
    monkeypatch.setattr(_BasisCache, "warm", lambda cache, c, b, start: None)

    def outcome(cache, c, b):
        try:
            result = [a.tobytes() for a in cache.answer(c, b)]
        except ValueError as exc:  # a benefit past the float maximum
            result = str(exc)
        return result, [basis.basic.tobytes() for basis in cache.bases]

    for _ in range(4):
        m, n = (int(v) for v in rng.integers(1, 9, 2))
        cache = _BasisCache((m, n))
        plain.append(_BasisCache((m, n)))
        plain[-1].propose = lambda c, b: None
        for c, b in proposal_batches(rng, m, n):
            assert outcome(cache, c, b) == outcome(plain[-1], c, b)
    assert all(outcomes.values()), outcomes


def folded_batch(rng, m, n, k):
    """random_batch with some pairs folded: a minimum set to its capacity,
    as repair leaves a corner, and some of those pairs at 0 on both sides."""
    c, b = random_batch(rng, m, n, k)
    pairs = rng.random((k, m + n)) < 0.3
    b[:, : m + n][pairs & (rng.random((k, m + n)) < 0.15)] = 0.0
    b[:, m + n :][pairs] = b[:, : m + n][pairs]
    return c, b


@pytest.mark.parametrize("seed", range(4))
def test_folded_pairs_match_highs(seed, tableau_solves):
    # on a folded pair both slacks are 0 at every feasible point; certify
    # answers such rows anyway, and every answer is HiGHS's optimum at a
    # point that meets every constraint
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(200 + seed)
    kinds = {"folded": 0, "folded at 0": 0}
    by_tableau = dict.fromkeys(kinds, 0)
    for m, n in ((1, 1), (1, 3), (2, 2), (3, 2), (4, 5)):
        cache = _BasisCache((m, n))
        sums = cache.matrix[: m + n, : m * n]
        a_ub = np.vstack([sums, -sums])
        for _ in range(2):
            c, b = folded_batch(rng, m, n, 30)
            before = len(tableau_solves)
            feasible, benefit, x = cache.answer(c, b)
            for lp in tableau_solves[before:]:
                folds = lp.b[: m + n] == lp.b[m + n :]
                by_tableau["folded"] += bool(folds.any())
                by_tableau["folded at 0"] += bool((folds & (lp.b[: m + n] == 0.0)).any())
            for row in range(len(b)):
                b_ub = np.concatenate([b[row, : m + n], -b[row, m + n :]])
                ref = linprog(-c[row], A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
                assert ref.status in (0, 2), ref.message
                assert feasible[row] == (ref.status == 0)
                if not feasible[row]:
                    continue
                scale = max(1.0, np.abs(c[row]).max() * np.abs(b[row]).max())
                assert abs(benefit[row] + ref.fun) <= 1e-7 * scale
                tol = 1e-9 * max(1.0, np.abs(b[row]).max())
                assert (x[row] >= 0.0).all() and (a_ub @ x[row] <= b_ub + tol).all()
                folded = b[row, : m + n] == b[row, m + n :]
                kinds["folded"] += int(folded.any())
                kinds["folded at 0"] += int((folded & (b[row, : m + n] == 0.0)).any())
    assert all(kinds.values()), kinds
    assert by_tableau["folded"] < kinds["folded"] / 2  # certify answered most folded rows
    assert by_tableau["folded at 0"] < kinds["folded at 0"]  # and some folded at 0


@pytest.mark.parametrize("seed, size", [(0, 30), (1, 30), (2, 1), (3, 64), (4, 1024), (5, 5000)])
def test_certify_reads_each_row_alone(seed, size):
    # certify reads nothing but the basis and the row, so a basis
    # certifies a row, folded or not, and writes its x and benefit, the
    # same bytes in a batch as alone. Folded batches of 30 rows, and
    # random_batch batches of 1 to 5000 rows, past the sizes at which
    # BLAS changes kernels and threads; those take the bases of their
    # first rows
    rng = np.random.default_rng(300 + seed)
    certified = folded_certified = 0
    for m, n in ((1, 3), (2, 2), (3, 2), (4, 5)):
        cache = _BasisCache((m, n))
        c, b = folded_batch(rng, m, n, size) if size == 30 else random_batch(rng, m, n, size)
        c, b = scaled_as_answer_does(c), scaled_as_answer_does(b)
        bases = {}
        for row in range(len(b)):
            if len(bases) == (30 if size <= 64 else 2):
                break
            sol = solve(LinearProgram(*cache.skeleton, b[row], c[row]))
            optimal = sol.status == "optimal"
            basis = cache._basis_at(np.array(sol.x), b[row], c[row]) if optimal else None
            if basis is not None:
                bases.setdefault(basis.basic.tobytes(), basis)
        for basis in bases.values():
            batch = certify(cache, basis, c, b)
            alone = [certify(cache, basis, c[k : k + 1], b[k : k + 1]) for k in range(len(b))]
            for part, parts in zip(batch, zip(*alone)):
                assert part.tobytes() == np.concatenate(parts).tobytes()
            folds = (b[:, : m + n] == b[:, m + n :]).any(axis=1)
            certified += int(batch[0].sum())
            folded_certified += int((batch[0] & folds).sum())
    assert certified
    assert folded_certified or size != 30


@pytest.fixture
def fixed_order_calls(monkeypatch):
    """The batch sizes of the fixed-order sums basis runs: certify runs
    one for the x_B it writes, and more where BLAS leaves a row unsure."""
    calls = []
    accumulate = basis_module._accumulate

    def counted(matrix, vectors):
        calls.append(vectors.shape[1])
        return accumulate(matrix, vectors)

    monkeypatch.setattr(basis_module, "_accumulate", counted)
    return calls


def assert_certify_matches_fixed_order(cache, basis, c, b):
    """Banded certify equals fixed_order_certify bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = certify(cache, basis, c, b)
        want = fixed_order_certify(cache, basis, c, b)
    assert len(got) == len(want)
    for part, ref in zip(got, want):
        assert part.dtype == ref.dtype and part.tobytes() == ref.tobytes()


def placed_rows(cache, basis, c, b, pick):
    """(c, b) rows of one LP at the edges of the certificate: basic
    variable pick % n moved to its floor, then a nonbasic lane's reduced
    cost moved to minus the margin and to either edge of the tie band,
    each from 3 ulps below to 3 above. c and b are scaled as answer
    scales them."""
    steps = np.arange(-3, 4)
    c_rows, b_rows = np.tile(c, (28, 1)), np.tile(b, (28, 1))
    j = pick % len(basis.basic)
    column = cache.matrix[:, basis.basic[j]]
    x_j = fixed_order_sum(b[None], basis.inverse.T)[0, j]
    at_floor = b + (-basis.lead[j] * PIVOT_TOL - x_j) * column
    r = np.flatnonzero(column)[0]
    b_rows[:7] = at_floor
    b_rows[:7, r] += steps * np.spacing(at_floor[r])
    lanes = basis.nonbasic[basis.nonbasic < cache.lanes]
    if not lanes.size:
        return c_rows[:7], b_rows[:7]
    lane = lanes[pick % len(lanes)]
    costs = np.concatenate([c, np.zeros(len(b))])
    duals = fixed_order_sum(costs[None, basis.basic], basis.inverse)
    price = fixed_order_sum(duals, cache.matrix[:, [lane]])[0, 0]
    for k, edge in enumerate([-CERTIFY_MARGIN, -TIE_MARGIN, TIE_MARGIN], start=1):
        at_edge = c.copy()
        for _ in range(3):  # the edge moves with max |c|
            at_edge[lane] = price + edge * np.abs(at_edge).max()
        c_rows[7 * k : 7 * k + 7] = at_edge
        c_rows[7 * k : 7 * k + 7, lane] += steps * np.spacing(at_edge[lane])
    return c_rows, b_rows


def test_banded_certify_equals_fixed_order(fixed_order_calls):
    # certify decides on BLAS products only where the value clears its
    # threshold by more than the rounding bound, and on fixed-order sums
    # elsewhere, so it equals the fixed-order certify bit for bit; rows
    # at the floor, at the margin and at the edges of the tie band, and
    # ulps either side, fall inside the guard band and take the
    # fixed-order sums
    unsure = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 2), (4, 5)]),
        seed=st.integers(0, 2**32 - 1),
        pick=st.integers(0, 10**6),
    )
    def check(shape, seed, pick):
        cache = _BasisCache(shape)
        c, b = random_batch(np.random.default_rng(seed), *shape, 8)
        c, b = scaled_as_answer_does(c), scaled_as_answer_does(b)
        sol = solve(LinearProgram(*cache.skeleton, b[0], c[0]))
        if sol.status != "optimal":
            return
        basis = cache._basis_at(np.array(sol.x), b[0], c[0])
        if basis is None:
            return
        placed_c, placed_b = placed_rows(cache, basis, c[0], b[0], pick)
        c, b = np.vstack([c, placed_c]), np.vstack([b, placed_b])
        before = len(fixed_order_calls)
        assert_certify_matches_fixed_order(cache, basis, c, b)
        unsure.append(len(fixed_order_calls) - before > 1)

    check()
    assert unsure and all(unsure)


def test_rows_near_the_float_maximum_match_fixed_order(fixed_order_calls):
    # rows scaled toward the float maximum, outside the frame that answer
    # gives the engine, overflow the BLAS products to inf, and prices of
    # both signs meet in a reduced cost as inf - inf = NaN; certify still
    # decides such rows as the fixed-order sums do, and a NaN never passes
    rng = np.random.default_rng(600)
    tops = np.array([1e300, 1e306, 1e307, 1.7e308])[:, None]
    nan_rows = 0
    for m, n in ((1, 3), (2, 2), (3, 2), (4, 5)):
        cache = _BasisCache((m, n))
        c, b = random_batch(rng, m, n, 6)
        for row in range(len(b)):
            sol = solve(LinearProgram(*cache.skeleton, b[row], c[row]))
            optimal = sol.status == "optimal"
            basis = cache._basis_at(np.array(sol.x), b[row], c[row]) if optimal else None
            if basis is None:
                continue
            near_max_c = c[row] / np.abs(c[row]).max() * tops
            near_max_b = b[row] / np.abs(b[row]).max() * tops
            big_c = np.vstack([c, near_max_c, np.tile(c[row], (len(tops), 1))])
            big_b = np.vstack([b, np.tile(b[row], (len(tops), 1)), near_max_b])
            before = len(fixed_order_calls)
            assert_certify_matches_fixed_order(cache, basis, big_c, big_b)
            assert len(fixed_order_calls) - before > 1
            costs = np.hstack([big_c, np.zeros_like(big_b)])
            with np.errstate(over="ignore", invalid="ignore"):
                duals = fixed_order_sum(costs[:, basis.basic], basis.inverse)
                priced = fixed_order_sum(duals, cache.matrix[:, basis.nonbasic])
            nan_rows += int(np.isnan(priced).any(axis=1).sum())
    assert nan_rows


def test_both_slacks_of_a_folded_pair_basic_do_not_certify():
    # one supplier, two customers; customer 1 loses money, so it gets its
    # minimum of 1 and customer 0 its capacity of 8. Unfolded, supplier
    # 0 ships 9 between its minimum 2 and capacity 10: both slacks of the
    # pair are basic. Folded at 9.5, that basis puts the capacity slack
    # at 0.5 and the contract slack at -0.5, a point that breaks the
    # minimum; certify must refuse it, and the optimum ships 1.5 to
    # customer 1. The engine's methods get b over 16 and c over 8, as
    # answer scales them
    cache = _BasisCache((1, 2))
    c = np.array([5.0, -1.0])
    unfolded = np.array([10.0, 8.0, 8.0, 2.0, 0.0, 1.0])
    basis = cache._basis_at(np.array([8.0, 1.0]) / 16, unfolded / 16, c / 8)
    lanes, pairs = 2, 3
    assert {lanes, lanes + pairs} <= set(basis.basic.tolist())  # s_cap and s_min of supplier 0
    folded = unfolded.copy()
    folded[[0, 3]] = 9.5
    assert not certify(cache, basis, c[None] / 8, folded[None] / 16)[0][0]
    feasible, benefit, x = cache.answer(c[None], folded[None])
    assert feasible[0] and x[0].tolist() == [8.0, 1.5] and benefit[0] == 38.5


@pytest.mark.parametrize("seed", range(3))
def test_exactly_one_basis_certifies_each_optimal_vertex(seed):
    # the lexicographic rules: of the bases that complete the support of a
    # row's optimum, exactly one certifies the row, degenerate, tied in c
    # or neither, and it is the tableau's; of the bases so found in a
    # batch, at most one certifies any of its rows. Half the rows draw
    # their profits from three values, so that optimal faces are edges
    # and more, and the balanced batches are degenerate without a fold. A
    # row is enumerated where it has at most COMPLETIONS completions:
    # every row of the smaller shapes, and the 4x5 rows up to 4 short
    seen = {"degenerate": 0, "tied": 0}
    rng = np.random.default_rng(400 + seed)
    for m, n in ((1, 3), (2, 2), (3, 2), (4, 5)):
        cache = _BasisCache((m, n))
        for kind in (folded_batch, balanced_batch):
            c, b = kind(rng, m, n, 30)
            tied = rng.random(len(c)) < 0.5
            c[tied] = rng.choice([40.0, 60.0, 90.0], size=(tied.sum(), c.shape[1]))
            c, b = scaled_as_answer_does(c), scaled_as_answer_does(b)
            found = {}
            for row in range(len(b)):
                one = c[row : row + 1], b[row : row + 1]
                sol = solve(LinearProgram(*cache.skeleton, b[row], c[row]))
                if sol.status != "optimal":
                    continue
                x = np.array(sol.x)
                slacks = (b[row] - cache.matrix[:, : cache.lanes] @ x) * cache.signs
                support = np.concatenate([x, slacks]) > PIVOT_TOL
                missing = len(b[row]) - int(support.sum())
                if math.comb(int((~support).sum()), missing) > COMPLETIONS:
                    continue
                certifying = []
                for extra in itertools.combinations(np.flatnonzero(~support), missing):
                    chosen = support.copy()
                    chosen[list(extra)] = True
                    basis = cache._basis(chosen)
                    if basis is not None and certify(cache, basis, *one)[0][0]:
                        certifying.append(basis)
                assert len(certifying) == 1, (m, n, row)
                basis = certifying[0]
                assert basis.basic.tolist() == sorted(sol.basis)  # the tableau's final basis
                found[basis.basic.tobytes()] = basis
                costs = np.concatenate([c[row], np.zeros(len(b[row]))])
                duals = costs[basis.basic] @ basis.inverse
                reduced = costs[basis.nonbasic] - duals @ cache.matrix[:, basis.nonbasic]
                seen["degenerate"] += missing > 0
                seen["tied"] += bool((np.abs(reduced) <= TIE_MARGIN * np.abs(c[row]).max()).any())
            answered = sum(certify(cache, basis, c, b)[0].astype(int) for basis in found.values())
            assert (answered <= 1).all()
    assert all(seen.values()), seen


def test_a_minimum_within_the_floor_counts_as_0_in_the_tableau():
    # supplier 1's purchase minimum is 5e-67, within the zero floor of
    # the primal test. The tableau gives that row a +1 slack as it does a
    # minimum of 0, so its basis holds that slack basic at about 0 with
    # a positive lead, and certify accepts it; with the row's -1 slack and
    # an artificial, lane (1, 0) would be basic at 5e-67, leading negative
    cache = _BasisCache((2, 1))
    c = np.array([0.78125, 0.78125])
    b = np.array([0.78125, 0.78125, 0.78125, 0.0, 4.86e-67, 0.0])
    sol = solve(LinearProgram(*cache.skeleton, b, c))
    assert sol.x == (0.78125, 0.0)
    assert certify(cache, cache._solved(sol), c[None], b[None])[0][0]


@pytest.mark.parametrize("c, solves", [([5.0, 4.0, -1.0, -2.0], 0), ([5.0, 4.0, 3.0, -2.0], 1)])
def test_pair_folded_at_0_is_certified(c, solves, tableau_solves):
    # supplier 1 has capacity and minimum 0, so it ships nothing, and its
    # basis holds both of its slacks (columns 5 and 9) at 0. In the
    # second case its lane (1, 0) would pay: that basis prices it above
    # 0, and the row takes the tableau, to the same answer. _basis_at gets
    # b over 16 and c over 8, as answer scales them
    b = np.array([10.0, 0.0, 8.0, 8.0, 1.0, 0.0, 1.0, 1.0])
    cache = _BasisCache((2, 2))
    basis = cache._basis_at(np.array([8.0, 2.0, 0.0, 0.0]) / 16, b / 16, np.array(c) / 8)
    assert {5, 9} <= set(basis.basic.tolist())
    feasible, benefit, x = cache.answer(np.array([c]), b[None])
    assert len(tableau_solves) == solves
    assert feasible[0] and benefit[0] == 48.0 and x[0].tolist() == [8.0, 2.0, 0.0, 0.0]


def balanced_batch(rng, m, n, k):
    """folded_batch rows, then random_batch rows, every third one with
    its customers' capacities scaled to total its suppliers': where every
    node ships at capacity, such a vertex is degenerate without a fold."""
    halves = folded_batch(rng, m, n, k // 2), random_batch(rng, m, n, k - k // 2)
    c, b = (np.vstack(a) for a in zip(*halves))
    supplied, demanded = b[::3, :m].sum(axis=1), b[::3, m : m + n].sum(axis=1)
    both = (supplied > 0) & (demanded > 0)
    scale = np.divide(supplied, demanded, out=np.ones_like(supplied), where=both)
    b[::3, m : m + n] *= scale[:, None]
    return c, b


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4, 1e7])
@pytest.mark.parametrize("seed", range(3))
def test_rows_answer_alone_as_in_a_batch(seed, scale):
    # the tableau ends on the one basis certify can accept, at every
    # scale of b, so each row's answer is the same bytes alone as in its
    # batch and in the reversed batch, with capacity totals balanced or
    # not
    rng = np.random.default_rng(500 + seed)
    for m, n in ((2, 2), (3, 3), (4, 5)):
        c, b = balanced_batch(rng, m, n, 60)
        b *= scale
        batch = _BasisCache((m, n)).answer(c, b)
        reverse = _BasisCache((m, n)).answer(c[::-1], b[::-1])
        for row in range(len(b)):
            alone = _BasisCache((m, n)).answer(c[row : row + 1], b[row : row + 1])
            want = [a[0].tobytes() for a in alone]
            assert [a[row].tobytes() for a in batch] == want
            assert [a[-1 - row].tobytes() for a in reverse] == want


def test_answer_is_a_function_of_each_row():
    # each answer is a function of its own row alone, which is what lets
    # answer reorder its work (feature-major batches, pending columns
    # packed as they settle): on a fresh cache, a permuted batch gets the
    # permuted answers, bit for bit. Shapes up to 5x5, with infeasible
    # rows, degenerate rows (folded and balanced) and tied rows mixed in
    seen = {"infeasible": 0, "folded": 0, "tied": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        kind=st.sampled_from([random_batch, folded_batch, balanced_batch]),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 24),
        data=st.data(),
    )
    def check(shape, kind, seed, size, data):
        m, n = shape
        rng = np.random.default_rng(seed)
        c, b = kind(rng, m, n, size)
        tied = rng.random(size) < 0.3
        c[tied] = rng.choice([40.0, 60.0, 90.0], size=(tied.sum(), m * n))
        perm = np.array(data.draw(st.permutations(range(size))))
        want = _BasisCache(shape).answer(c, b)
        got = _BasisCache(shape).answer(c[perm], b[perm])
        assert [a.tobytes() for a in got] == [a[perm].tobytes() for a in want]
        feasible = want[0]
        seen["infeasible"] += int((~feasible).sum())
        seen["folded"] += int((feasible & (b[:, : m + n] == b[:, m + n :]).any(axis=1)).sum())
        seen["tied"] += int((feasible & tied).sum())

    check()
    assert all(seen.values()), seen


def scaled_as_answer_does(rows):
    """Each row over 2^k, k the frexp exponent of its max |value|, as
    answer scales the rows of b and of c."""
    return np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1))[1][:, None])


def test_the_tableau_ends_on_the_basis_certify_accepts():
    # the lexicographic ratio test keeps every row of [x_B | B^-1 diag(±1)]
    # lexicographically positive, which is certify's primal test, and the
    # tableau enters every tied column whose δ-perturbed reduced cost does
    # not lead negative, which is certify's tie test; so certify accepts
    # the tableau's final basis, degenerate or not, tied or not. Profits
    # drawn from three values tie
    seen = {"degenerate": 0, "strict": 0, "tied": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (4, 5)]),
        kind=st.sampled_from([random_batch, folded_batch, balanced_batch]),
        seed=st.integers(0, 2**32 - 1),
        tied=st.booleans(),
    )
    def check(shape, kind, seed, tied):
        cache = _BasisCache(shape)
        rng = np.random.default_rng(seed)
        c, b = kind(rng, *shape, 6)
        if tied:
            c = rng.choice([40.0, 60.0, 90.0], size=c.shape)
        c, b = scaled_as_answer_does(c), scaled_as_answer_does(b)
        for row in range(len(b)):
            sol = solve(LinearProgram(*cache.skeleton, b[row], c[row]))
            if sol.status != "optimal":
                continue
            basis = cache._basis(np.isin(np.arange(cache.matrix.shape[1]), sol.basis))
            x_basic = fixed_order_sum(b[row : row + 1], basis.inverse.T)[0]
            assert (x_basic > -basis.lead * PIVOT_TOL).all()
            seen["degenerate"] += bool((x_basic <= PIVOT_TOL).any())
            costs = np.concatenate([c[row], np.zeros(len(b[row]))])
            duals = fixed_order_sum(costs[None, basis.basic], basis.inverse)
            priced = fixed_order_sum(duals, cache.matrix[:, basis.nonbasic])[0]
            reduced = costs[basis.nonbasic] - priced
            largest = np.abs(c[row]).max()
            tied = np.abs(reduced) <= TIE_MARGIN * largest
            assert (reduced[~tied] < -CERTIFY_MARGIN * largest).all()
            assert all(dual_lexicographic_negative(cache, basis, j) for j in basis.nonbasic[tied])
            assert certify(cache, basis, c[row : row + 1], b[row : row + 1])[0][0]
            seen["tied" if tied.any() else "strict"] += 1

    check()
    assert all(seen.values()), seen


def test_answers_scale_exactly_with_b():
    # answer scales each row of b by a power of two before the tableau
    # and certify, so b * 2^k keeps each row's feasibility and gives
    # exactly 2^k times its x and benefit
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from([(1, 1), (2, 2), (3, 2), (4, 5)]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-40, 40),
    )
    def check(shape, seed, k):
        c, b = balanced_batch(np.random.default_rng(seed), *shape, 12)
        feasible, benefit, x = _BasisCache(shape).answer(c, b)
        got = _BasisCache(shape).answer(c, np.ldexp(b, k))
        want = feasible, np.ldexp(benefit, k), np.ldexp(x, k)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    check()


def test_answers_scale_exactly_with_c():
    # answer scales each row of c by a power of two, as it does b, before
    # the tableau and certify, so c * 2^j keeps each row's feasibility
    # and x, and gives exactly 2^j times its benefit
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from([(1, 1), (2, 2), (3, 2), (4, 5)]),
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-40, 40),
    )
    def check(shape, seed, j):
        c, b = balanced_batch(np.random.default_rng(seed), *shape, 12)
        feasible, benefit, x = _BasisCache(shape).answer(c, b)
        got = _BasisCache(shape).answer(np.ldexp(c, j), b)
        want = feasible, np.ldexp(benefit, j), x
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    check()


def test_warm_starts_leave_every_answer_as_it_is(monkeypatch, engine_counts):
    # a warm start only proposes a basis, and at most one basis certifies
    # a row, so a cache that never starts warm gives the same bytes and
    # keeps the same bases, whatever the cache holds. Two batches a
    # cache, so the stored bases also carry over from one batch to the
    # next; some batches draw tied profits
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from([(1, 3), (2, 2), (3, 2), (3, 3), (4, 5)]),
        kind=st.sampled_from([random_batch, folded_batch, balanced_batch]),
        seed=st.integers(0, 2**32 - 1),
        tied=st.booleans(),
    )
    def check(shape, kind, seed, tied):
        rng = np.random.default_rng(seed)
        batches = [kind(rng, *shape, 20) for _ in range(2)]
        if tied:
            batches = [(rng.choice([40.0, 60.0, 90.0], size=c.shape), b) for c, b in batches]

        def outcome(cache):
            answers = [[a.tobytes() for a in cache.answer(c, b)] for c, b in batches]
            return answers, [basis.basic.tobytes() for basis in cache.bases]

        want = outcome(_BasisCache(shape))
        with monkeypatch.context() as patch:
            patch.setattr(_BasisCache, "warm", lambda cache, c, b, start: None)
            assert outcome(_BasisCache(shape)) == want

    check()
    counts = engine_counts()
    assert counts["warm"] > 100  # rows a warm start certified, in the runs that start warm
    assert counts["phase 2"] == counts["warm"]  # phase 2 ends on the basis certify accepts


def near_tied(cache, c, b, rows):
    """c with each of rows moved to a near tie: where the tableau's basis
    of the row has a nonbasic lane, that lane's reduced cost is set to
    -1e-8 max|c|, between TIE_MARGIN and CERTIFY_MARGIN, so no basis
    certifies the row and the tableau's answer stands."""
    c = c.copy()
    costs = np.zeros(cache.matrix.shape[1])
    for row in rows:
        basis = cache._solved(solve(LinearProgram(*cache.skeleton, b[row], c[row])))
        lanes = [] if basis is None else basis.nonbasic[basis.nonbasic < cache.lanes]
        if len(lanes):
            costs[: cache.lanes] = c[row]
            price = costs[basis.basic] @ basis.inverse @ cache.matrix[:, lanes[0]]
            for _ in range(3):  # the band moves with max |c|
                c[row, lanes[0]] = price - 1e-8 * np.abs(c[row]).max()
    return c


def test_warm_starts_from_the_newest_stored_basis_the_row_passed(monkeypatch):
    # certify's primal test is the only one that chooses a start: fresh
    # gets, and passes to warm, the newest basis in the store whose mask
    # passed on its row, or None where none did (and then warm does not
    # run). Every stored basis has been through certify on the row by
    # then. A basis that fresh finds but does not store (a near tie on
    # its own row) is never a start in its batch
    masks = {}  # (basic, row) -> certify's primal mask
    seen = dict.fromkeys(["start", "none", "newest of several", "unstored", "unstored, passed"], 0)
    state = {"start": None, "warm": 0, "unstored": []}
    certify, warm = _BasisCache.certify, _BasisCache.warm
    fresh, answer = _BasisCache.fresh, _BasisCache.answer

    def key(c, b, k):
        return c[:, k].tobytes() + b[:, k].tobytes()

    def recorded(cache, basis, c, b):
        result = certify(cache, basis, c, b)
        for k, passed in enumerate(result[3]):
            masks[basis.basic.tobytes(), key(c, b, k)] = passed
        return result

    def checked_fresh(cache, c, b, start):
        row = key(c, b, 0)
        passed = [masks[basis.basic.tobytes(), row] for basis in cache.bases]
        newest = [basis for basis, ok in zip(cache.bases, passed) if ok][-1:]
        assert start is (newest[0] if newest else None)
        assert all(start is not basis for basis in state["unstored"])
        seen["start" if newest else "none"] += 1
        seen["newest of several"] += sum(passed) > 1
        state["start"], calls = start, state["warm"]
        basis, certified, sol = fresh(cache, c, b, start)
        assert state["warm"] - calls == (start is not None)
        if basis is not None and not certified[0][0]:
            assert all(basis is not kept for kept in cache.bases)
            state["unstored"].append(basis)
            seen["unstored"] += 1
            seen["unstored, passed"] += bool(masks[basis.basic.tobytes(), row])
        return basis, certified, sol

    def checked_warm(cache, c, b, start):
        assert start is state["start"]
        state["warm"] += 1
        return warm(cache, c, b, start)

    def batch(cache, c, b):
        state["unstored"] = []  # a kept basis may start the next batch
        return answer(cache, c, b)

    monkeypatch.setattr(_BasisCache, "certify", recorded)
    monkeypatch.setattr(_BasisCache, "fresh", checked_fresh)
    monkeypatch.setattr(_BasisCache, "warm", checked_warm)
    monkeypatch.setattr(_BasisCache, "answer", batch)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from([(1, 3), (2, 2), (3, 2), (3, 3), (4, 5)]),
        kind=st.sampled_from([random_batch, folded_batch, balanced_batch]),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(shape, kind, seed):
        rng = np.random.default_rng(seed)
        cache = _BasisCache(shape)
        for _ in range(2):
            c, b = kind(rng, *shape, 20)
            c = near_tied(cache, c, b, np.flatnonzero(rng.random(len(c)) < 0.2))
            cache.answer(c, b)

    check()
    assert all(seen.values()), seen


def test_engine_methods_get_lps_in_answers_frame(monkeypatch):
    # every method below answer gets its LPs scaled as answer scales
    # them: each LP's max|b| and max|c| is 0 or in [0.5, 1), at any
    # scale of the batch and with all-zero rows mixed in; and every
    # basis the engine meets has an inverse that np.linalg.inv already
    # gives with entries 0 and ±1, at 40x40 as well, which _basis rounds
    reads = {  # (c, b) from each method's arguments
        "certify": lambda cache, basis, c, b: (c, b),
        "warm": lambda cache, c, b, start: (c, b),
        "propose": lambda cache, c, b: (c, b),
        "_basis_at": lambda cache, x, b, c: (c, b),
    }
    seen = dict.fromkeys([*reads, "solve"], 0)
    inverses = []

    def in_frame(values):
        top = np.abs(values).max(axis=0)
        return ((top == 0.0) | ((top >= 0.5) & (top < 1.0))).all()

    def recorded(name, method, read):
        def record(*args):
            assert all(map(in_frame, read(*args))), name
            seen[name] += 1
            return method(*args)

        return record

    for name, read in reads.items():
        monkeypatch.setattr(_BasisCache, name, recorded(name, getattr(_BasisCache, name), read))
    monkeypatch.setattr(basis_module, "solve", recorded("solve", solve, lambda lp: (lp.c, lp.b)))
    inv = np.linalg.inv

    def recorded_inv(matrix):
        inverses.append(inv(matrix))
        return inverses[-1]

    monkeypatch.setattr(np.linalg, "inv", recorded_inv)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        kind=st.sampled_from([random_batch, folded_batch, balanced_batch]),
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-40, 40),
        k=st.integers(-40, 40),
    )
    def check(shape, kind, seed, j, k):
        rng = np.random.default_rng(seed)
        c, b = kind(rng, *shape, 12)
        tied = rng.random(len(c)) < 0.3
        c[tied] = rng.choice([40.0, 60.0, 90.0], size=(tied.sum(), c.shape[1]))
        c[rng.random(len(c)) < 0.2] = 0.0
        b[rng.random(len(b)) < 0.2] = 0.0
        _BasisCache(shape).answer(np.ldexp(c, j), np.ldexp(b, k))

    check()
    _BasisCache((40, 40)).answer(*random_batch(np.random.default_rng(40), 40, 40, 2))
    assert all(seen.values()), seen
    assert any(len(inverse) == 160 for inverse in inverses)
    assert all(np.array_equal(inverse, np.rint(inverse)) for inverse in inverses)
