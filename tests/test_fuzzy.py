import numpy as np
import pytest

from fuzzyplan.fuzzy import AlphaGrid, TrapezoidalFuzzyNumber, prob_geq_fuzzy
from fuzzyplan.intervals import Interval, prob_geq


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
    tri = TrapezoidalFuzzyNumber.triangular(0.0, 1.0, 2.0)
    assert tri.b == tri.c == 1.0
    assert tri.membership(1.0) == 1.0
    assert tri.membership(0.5) == pytest.approx(0.5)


def test_alpha_cut_endpoints():
    t = TrapezoidalFuzzyNumber(0.0, 1.0, 2.0, 4.0)
    assert t.alpha_cut(0.0) == Interval(0.0, 4.0)
    assert t.alpha_cut(1.0) == Interval(1.0, 2.0)
    assert t.alpha_cut(0.5) == Interval(0.5, 3.0)
    assert t.support == Interval(0.0, 4.0)
    assert t.core == Interval(1.0, 2.0)
    with pytest.raises(ValueError):
        t.alpha_cut(1.5)
    with pytest.raises(ValueError):
        t.alpha_cut(-0.1)


def test_alpha_cuts_nest():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, c, d = np.sort(rng.uniform(-10, 10, 4))
        t = TrapezoidalFuzzyNumber(a, b, c, d)
        lo_alpha, hi_alpha = np.sort(rng.uniform(0, 1, 2))
        assert t.alpha_cut(lo_alpha).contains(t.alpha_cut(hi_alpha))


def test_cut_membership_roundtrip():
    t = TrapezoidalFuzzyNumber(2.0, 3.0, 5.0, 9.0)
    for alpha in (0.2, 0.5, 0.8):
        cut = t.alpha_cut(alpha)
        assert t.membership(cut.lo) == pytest.approx(alpha)
        assert t.membership(cut.hi) == pytest.approx(alpha)


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


def test_prob_geq_fuzzy_three_level():
    # hand-integrated on the 3-level grid: levels give 2/9, 1/8, 0
    x = TrapezoidalFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    y = TrapezoidalFuzzyNumber(1.0, 2.0, 3.0, 4.0)
    grid = AlphaGrid((0.0, 0.5, 1.0))
    expected = (2.0 / 9.0 + 1.0 / 8.0 + 0.0) / 3.0
    assert prob_geq_fuzzy(x, y, grid) == pytest.approx(expected, abs=1e-12)
    assert prob_geq_fuzzy(y, x, grid) == pytest.approx(1.0 - expected, abs=1e-12)


def test_prob_geq_fuzzy_per_level_closed_form():
    # same pair admits the closed form P(alpha) = (2-2a)^2 / (2 (3-2a)^2)
    x = TrapezoidalFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    y = TrapezoidalFuzzyNumber(1.0, 2.0, 3.0, 4.0)
    for alpha in np.linspace(0.0, 1.0, 21):
        want = (2 - 2 * alpha) ** 2 / (2 * (3 - 2 * alpha) ** 2)
        got = prob_geq(x.alpha_cut(alpha), y.alpha_cut(alpha))
        assert got == pytest.approx(want, abs=1e-12)


def test_prob_geq_fuzzy_defaults_and_symmetry():
    x = TrapezoidalFuzzyNumber(0.0, 2.0, 3.0, 6.0)
    assert prob_geq_fuzzy(x, x) == pytest.approx(0.5)
    y = TrapezoidalFuzzyNumber(10.0, 11.0, 12.0, 13.0)
    assert prob_geq_fuzzy(y, x) == 1.0
    assert prob_geq_fuzzy(x, y) == 0.0
    rng = np.random.default_rng(29)
    for _ in range(30):
        u = TrapezoidalFuzzyNumber(*np.sort(rng.uniform(-4, 4, 4)))
        v = TrapezoidalFuzzyNumber(*np.sort(rng.uniform(-4, 4, 4)))
        assert prob_geq_fuzzy(u, v) + prob_geq_fuzzy(v, u) == pytest.approx(1.0, abs=1e-9)


def test_prob_geq_fuzzy_shift_dominance():
    # shifting a fuzzy number up can only raise its rank
    rng = np.random.default_rng(31)
    for _ in range(30):
        u = TrapezoidalFuzzyNumber(*np.sort(rng.uniform(-4, 4, 4)))
        v = TrapezoidalFuzzyNumber(*np.sort(rng.uniform(-4, 4, 4)))
        base = prob_geq_fuzzy(u, v)
        shifted = TrapezoidalFuzzyNumber(u.a + 1, u.b + 1, u.c + 1, u.d + 1)
        assert prob_geq_fuzzy(shifted, v) >= base - 1e-12
