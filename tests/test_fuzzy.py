import dataclasses
import math

import numpy as np
import pytest

from fuzzyplan.fuzzy import AlphaGrid, TrapezoidalFuzzyNumber, cut_ends
from fuzzyplan.intervals import Interval


def test_ordering_validation():
    with pytest.raises(ValueError):
        TrapezoidalFuzzyNumber(1.0, 0.5, 2.0, 3.0)
    with pytest.raises(ValueError):
        TrapezoidalFuzzyNumber(0.0, 1.0, 3.0, 2.0)
    with pytest.raises(ValueError):
        TrapezoidalFuzzyNumber(0.0, float("nan"), 1.0, 2.0)


@pytest.mark.parametrize(
    "corners, message",
    [
        ((0.0, float("nan"), 1.0, 2.0), "must be finite"),
        ((0.0, 1.0, 2.0, float("inf")), "must be finite"),
        ((-float("inf"), 1.0, 2.0, 3.0), "must be finite"),
        ((3.0, 2.0, float("nan"), 1.0), "must be finite"),  # finiteness is reported first
        ((0.0, 1.0, 3.0, 2.0), "must be ordered a <= b <= c <= d"),
        ((1.0, 0.5, 2.0, 3.0), "must be ordered a <= b <= c <= d"),
    ],
    ids=["nan", "inf", "minus-inf", "nan-and-unordered", "c-above-d", "a-above-b"],
)
def test_invalid_trapezoid_messages(corners, message):
    with pytest.raises(ValueError, match=f"^trapezoid parameters {message}, got "):
        TrapezoidalFuzzyNumber(*corners)


def test_membership_shape():
    t = TrapezoidalFuzzyNumber(0.0, 1.0, 2.0, 4.0)
    assert t.membership(-1.0) == 0.0
    assert t.membership(0.0) == 0.0
    assert t.membership(0.5) == pytest.approx(0.5)
    assert t.membership(1.0) == 1.0
    assert t.membership(1.7) == 1.0
    assert t.membership(2.0) == 1.0
    assert t.membership(3.0) == pytest.approx(0.5)
    assert t.membership(4.0) == 0.0
    assert t.membership(5.0) == 0.0


def test_membership_crisp_and_triangular():
    c = TrapezoidalFuzzyNumber.crisp(3.0)
    assert c.membership(3.0) == 1.0
    assert c.membership(3.0001) == 0.0
    tri = TrapezoidalFuzzyNumber(0.0, 1.0, 1.0, 2.0)
    assert tri.b == tri.c == 1.0
    assert tri.membership(1.0) == 1.0
    assert tri.membership(0.5) == pytest.approx(0.5)


def test_alpha_cut_endpoints():
    corners = (0.0, 1.0, 2.0, 4.0)
    t = TrapezoidalFuzzyNumber(*corners)
    assert cut_ends(*corners, 0.0) == (0.0, 4.0)
    assert cut_ends(*corners, 1.0) == (1.0, 2.0)
    assert cut_ends(*corners, 0.5) == (0.5, 3.0)
    assert t.support == Interval(0.0, 4.0)
    assert t.core == Interval(1.0, 2.0)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1.5$"):
        cut_ends(*corners, 1.5)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got -0.1$"):
        cut_ends(*corners, -0.1)


def test_alpha_cuts_nest():
    rng = np.random.default_rng(5)
    for _ in range(50):
        corners = np.sort(rng.uniform(-10, 10, 4))
        lo_alpha, hi_alpha = np.sort(rng.uniform(0, 1, 2))
        outer = Interval(*map(float, cut_ends(*corners, lo_alpha)))
        assert outer.contains(Interval(*map(float, cut_ends(*corners, hi_alpha))))


def test_cut_membership_roundtrip():
    t = TrapezoidalFuzzyNumber(2.0, 3.0, 5.0, 9.0)
    for alpha in (0.2, 0.5, 0.8):
        lo, hi = cut_ends(t.a, t.b, t.c, t.d, alpha)
        assert t.membership(lo) == pytest.approx(alpha)
        assert t.membership(hi) == pytest.approx(alpha)


def test_alpha_grid_uniform():
    g = AlphaGrid.uniform(11)
    assert len(g) == 11
    assert g.levels == tuple(i / 10 for i in range(11))
    assert g.levels[0] == 0.0
    assert g.levels[-1] == 1.0
    with pytest.raises(ValueError):
        AlphaGrid.uniform(1)
    with pytest.raises(ValueError):
        AlphaGrid((0.5, 0.5))
    with pytest.raises(ValueError):
        AlphaGrid((0.0, 1.2))
    with pytest.raises(ValueError):
        AlphaGrid(())


def test_cut_ends_broadcast_over_trapezoids_and_alphas():
    corners = np.array([[0.0, 1.0, 2.0, 4.0], [-3.0, -1.0, -1.0, 5.0], [2.0, 2.0, 2.0, 2.0]])
    alphas = np.array([0.0, 0.25, 1.0])
    lo, hi = cut_ends(*corners.T, alphas)
    for i, (row, alpha) in enumerate(zip(corners, alphas)):
        assert (lo[i], hi[i]) == cut_ends(*row, alpha)
    assert lo.tolist() == [0.0, -2.5, 2.0]
    assert hi.tolist() == [4.0, 3.5, 2.0]


@pytest.mark.parametrize(
    "corners",
    [(-9.9, 0.9, 6.3, 8.7), (-4.0, -1.5, 0.8, 7.3)],
    ids=["lo-rounds-above-b", "hi-rounds-below-c"],
)
def test_cut_at_alpha_one_is_exactly_the_core(corners):
    a, b, c, d = corners
    # the raw formula misses the core by one rounding on these corners
    assert (a + 1.0 * (b - a), d - 1.0 * (d - c)) != (b, c)
    assert cut_ends(*corners, 1.0) == (b, c)


def test_cut_ends_rejects_nan_alpha():
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got nan$"):
        cut_ends(0.0, 1.0, 2.0, 4.0, math.nan)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\]"):
        cut_ends(0.0, 1.0, 2.0, 4.0, np.array([0.5, 1.5]))


def test_crisp_number_cuts_to_its_value():
    t = TrapezoidalFuzzyNumber.crisp(3.0)
    assert t == TrapezoidalFuzzyNumber(3.0, 3.0, 3.0, 3.0)
    assert t.support == t.core == Interval(3.0, 3.0)
    for alpha in (0.0, 0.5, 1.0):
        assert cut_ends(t.a, t.b, t.c, t.d, alpha) == (3.0, 3.0)


def test_membership_on_vertical_edges():
    # a == b and c == d: the core reaches the support, with no division by zero
    t = TrapezoidalFuzzyNumber(1.0, 1.0, 2.0, 2.0)
    assert t.membership(0.999) == 0.0
    assert t.membership(1.0) == 1.0
    assert t.membership(2.0) == 1.0
    assert t.membership(2.001) == 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.a = 0.0


def test_alpha_grid_levels_and_messages():
    assert list(AlphaGrid.uniform(5)) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert AlphaGrid.uniform(2).levels == (0.0, 1.0)
    assert len(AlphaGrid((0.3,))) == 1
    with pytest.raises(ValueError, match=r"^alpha level nan outside \[0, 1\]$"):
        AlphaGrid((0.0, math.nan))
    with pytest.raises(ValueError, match=r"^alpha level -0.1 outside \[0, 1\]$"):
        AlphaGrid((-0.1, 1.0))
    with pytest.raises(ValueError, match="^alpha levels must be strictly increasing$"):
        AlphaGrid((1.0, 0.5))
    with pytest.raises(ValueError, match="^alpha grid must contain at least one level$"):
        AlphaGrid(())
    with pytest.raises(ValueError, match="^uniform grid needs at least 2 levels, got 1$"):
        AlphaGrid.uniform(1)
