import dataclasses
import math

import numpy as np
import pytest

from fuzzyplan.intervals import Interval, midpoint


def test_construction_and_props():
    iv = Interval(1.0, 3.0)
    assert iv.lo == 1.0
    assert iv.hi == 3.0
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


def test_midpoint_of_huge_and_subnormal_endpoints():
    # 0.5 * (lo + hi) overflows on these sums; the midpoint must not
    assert Interval(1e308, 1e308).midpoint == 1e308
    assert Interval(-1e308, -1e308).midpoint == -1e308
    assert 1e308 < Interval(1e308, 1.7e308).midpoint < 1.7e308
    assert Interval(-1e308, 1e308).midpoint == 0.0
    # halving a subnormal endpoint first would round it to zero
    assert Interval(5e-324, 5e-324).midpoint == 5e-324


def test_invalid_construction_messages():
    with pytest.raises(ValueError, match=r"^interval lower bound 2.0 exceeds upper bound 1.0$"):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError, match=r"^interval endpoints must be finite, got \[0.0, inf\]$"):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError, match=r"^interval endpoints must be finite, got \[nan, 1.0\]$"):
        Interval(math.nan, 1.0)


def test_degenerate_point_interval():
    point = Interval(2.0, 2.0)
    assert point.midpoint == 2.0
    assert point.contains(point)
    assert Interval(1.0, 3.0).contains(point)
    assert not point.contains(Interval(2.0, 2.5))


def test_contains_within_tolerance():
    outer = Interval(0.0, 1.0)
    assert outer.contains(Interval(-5e-10, 1.0 + 5e-10))  # default tolerance 1e-9
    assert not outer.contains(Interval(-1e-8, 1.0))
    assert not outer.contains(Interval(0.0, 1.0 + 1e-8))
    assert not outer.contains(Interval(-5e-10, 1.0), tol=0.0)
    assert outer.contains(Interval(-0.1, 1.1), tol=0.1 + 1e-12)


def test_interval_is_immutable():
    iv = Interval(0.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        iv.lo = 2.0
    assert iv == Interval(0.0, 1.0)


def test_midpoint_function_matches_property():
    assert midpoint(-3.0, 5.0) == 1.0
    rng = np.random.default_rng(11)
    for lo, hi in np.sort(rng.uniform(-1e3, 1e3, (50, 2)), axis=1).tolist():
        iv = Interval(lo, hi)
        assert iv.midpoint == midpoint(lo, hi) == 0.5 * (lo + hi)
        assert lo <= iv.midpoint <= hi
