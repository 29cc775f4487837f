"""basis._BasisCache.answer against scipy's HiGHS on random small batches."""

import numpy as np
import pytest

from fuzzyplan.basis import _BasisCache


def random_batch(rng, m, n, k):
    """k distributor LPs around one random scenario, as (c, b).

    Each row moves by none, a little or a lot, so some rows share an
    optimal basis and others do not. Contract minimums reach below zero
    (the simplex flips those rows), and the larger moves make some rows
    infeasible. Some of those pass the screen, since a negative minimum
    lowers a screened total but not what the other rows must carry;
    phase 1 decides them.
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

    On top of random_batch's negative minimums and infeasible rows that
    pass the screen, some rows get lane profits drawn from three values
    (ties), some a minimum set to its capacity (a repaired corner), and
    the last batch profits near the float maximum.
    """
    for k in range(3):
        c, b = random_batch(rng, m, n, 24)
        tied = rng.random(len(c)) < 0.25
        c[tied] = rng.choice([40.0, 60.0, 90.0], size=(tied.sum(), c.shape[1]))
        for row in np.flatnonzero(rng.random(len(b)) < 0.2):
            cap = int(rng.integers(m + n))
            b[row, m + n + cap] = b[row, cap]
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
    plain = []  # caches whose proposer proposes nothing
    fresh = _BasisCache.fresh

    def observed(cache, c, b):
        basis, certified, sol = fresh(cache, c, b)
        m, n = cache.shape
        if (b[0, : m + n] <= np.maximum(b[0, m + n :], 0.0)).any():
            outcomes["skipped"] += 1
        elif cache not in plain:
            outcomes["proposal certified" if sol is None else "proposal refused"] += 1
        return basis, certified, sol

    monkeypatch.setattr(_BasisCache, "fresh", observed)

    def outcome(cache, c, b):
        try:
            result = [a.tobytes() for a in cache.answer(c, b)]
        except ValueError as exc:  # a benefit past the float maximum
            result = str(exc)
        return result, list(cache.bases)

    for _ in range(4):
        m, n = (int(v) for v in rng.integers(1, 9, 2))
        cache = _BasisCache((m, n))
        plain.append(_BasisCache((m, n)))
        plain[-1].propose = lambda c, b: None
        for c, b in proposal_batches(rng, m, n):
            assert outcome(cache, c, b) == outcome(plain[-1], c, b)
    assert all(outcomes.values()), outcomes
