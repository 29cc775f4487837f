import math

import numpy as np
import pytest

from fuzzyplan.intervals import Interval, prob_geq

from oracles import mc_prob_geq


def test_construction_and_props():
    iv = Interval(1.0, 3.0)
    assert iv.lo == 1.0
    assert iv.hi == 3.0
    assert iv.width == 2.0
    assert iv.midpoint == 2.0


def test_invalid_construction():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


def test_contains():
    a = Interval(0.0, 2.0)
    b = Interval(1.0, 3.0)
    assert Interval(0.0, 3.0).contains(a)
    assert Interval(0.0, 3.0).contains(b)
    assert not a.contains(b)
    assert Interval(0.0, 4.0).contains(Interval(1.0, 2.0))


def test_prob_geq_disjoint():
    assert prob_geq(Interval(5.0, 6.0), Interval(0.0, 1.0)) == 1.0
    assert prob_geq(Interval(0.0, 1.0), Interval(5.0, 6.0)) == 0.0


def test_prob_geq_identical():
    assert prob_geq(Interval(2.0, 4.0), Interval(2.0, 4.0)) == pytest.approx(0.5)


def test_prob_geq_overlap_exact():
    # unit-square geometry: overlap [1,2], area of {x >= y} is 1/8 of
    # the 2x2 rectangle... the triangle above y=x in the overlap square
    assert prob_geq(Interval(0.0, 2.0), Interval(1.0, 3.0)) == pytest.approx(0.125)
    assert prob_geq(Interval(1.0, 3.0), Interval(0.0, 2.0)) == pytest.approx(0.875)


def test_prob_geq_nested():
    # b inside a, symmetric: should be exactly 0.5
    assert prob_geq(Interval(0.0, 4.0), Interval(1.0, 3.0)) == pytest.approx(0.5)


def test_prob_geq_degenerate():
    assert prob_geq(Interval(2.0, 2.0), Interval(2.0, 2.0)) == 0.5
    assert prob_geq(Interval(3.0, 3.0), Interval(2.0, 2.0)) == 1.0
    assert prob_geq(Interval(1.0, 1.0), Interval(2.0, 2.0)) == 0.0
    # point vs interval: P(y <= 1) for y ~ U[0,2]
    assert prob_geq(Interval(1.0, 1.0), Interval(0.0, 2.0)) == pytest.approx(0.5)
    assert prob_geq(Interval(0.5, 0.5), Interval(0.0, 2.0)) == pytest.approx(0.25)
    # interval vs point
    assert prob_geq(Interval(0.0, 2.0), Interval(0.5, 0.5)) == pytest.approx(0.75)


def test_prob_geq_complementarity_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        pts = np.sort(rng.uniform(-10, 10, 4))
        order = rng.permutation(4)
        a = Interval(min(pts[order[0]], pts[order[1]]), max(pts[order[0]], pts[order[1]]))
        b = Interval(min(pts[order[2]], pts[order[3]]), max(pts[order[2]], pts[order[3]]))
        p = prob_geq(a, b)
        q = prob_geq(b, a)
        assert 0.0 <= p <= 1.0
        assert p + q == pytest.approx(1.0, abs=1e-9)


def test_prob_geq_translation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(100):
        lo1, hi1 = np.sort(rng.uniform(-5, 5, 2))
        lo2, hi2 = np.sort(rng.uniform(-5, 5, 2))
        t = rng.uniform(-100, 100)
        p0 = prob_geq(Interval(lo1, hi1), Interval(lo2, hi2))
        p1 = prob_geq(Interval(lo1 + t, hi1 + t), Interval(lo2 + t, hi2 + t))
        assert p1 == pytest.approx(p0, abs=1e-9)


def test_prob_geq_matches_monte_carlo():
    rng = np.random.default_rng(23)
    for k in range(12):
        lo1, hi1 = np.sort(rng.uniform(-3, 3, 2))
        lo2, hi2 = np.sort(rng.uniform(-3, 3, 2))
        exact = prob_geq(Interval(lo1, hi1), Interval(lo2, hi2))
        est = mc_prob_geq(lo1, hi1, lo2, hi2, n=400_000, seed=100 + k)
        assert est == pytest.approx(exact, abs=0.005)


def test_midpoint_of_huge_and_subnormal_endpoints():
    # 0.5 * (lo + hi) overflows on these sums; the midpoint must not
    assert Interval(1e308, 1e308).midpoint == 1e308
    assert Interval(-1e308, -1e308).midpoint == -1e308
    assert 1e308 < Interval(1e308, 1.7e308).midpoint < 1.7e308
    assert Interval(-1e308, 1e308).midpoint == 0.0
    # halving a subnormal endpoint first would round it to zero
    assert Interval(5e-324, 5e-324).midpoint == 5e-324
