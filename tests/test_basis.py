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
