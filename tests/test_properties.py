"""Property tests over random fuzzy problems, 1x1 to 3x3, non-square included."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuzzyplan.fuzzy import AlphaGrid, TrapezoidalFuzzyNumber, cut_ends
from fuzzyplan.fuzzy_solver import solve_fuzzy
from fuzzyplan.model import CrispInstance, DistributionProblem, to_lp
from fuzzyplan.simplex import solve

POINTS_PER_LEVEL = 3
unit = st.floats(0.0, 1.0)


@st.composite
def trapezoids(draw, lo, hi):
    """A trapezoid around a center in [lo, hi], each spread up to 20% of it."""
    center = draw(st.floats(lo, hi))
    w = draw(st.lists(st.floats(0.0, 0.2), min_size=4, max_size=4))
    return TrapezoidalFuzzyNumber(
        center - center * (w[0] + w[1]),
        center - center * w[0],
        center + center * w[2],
        center + center * (w[2] + w[3]),
    )


@st.composite
def problems(draw):
    m, n = draw(st.sampled_from([(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]))

    def vector(size, lo, hi):
        return tuple(draw(st.lists(trapezoids(lo, hi), min_size=size, max_size=size)))

    return DistributionProblem(
        supply_max=vector(m, 100.0, 600.0),
        demand_max=vector(n, 100.0, 600.0),
        purchase_min=vector(m, 0.0, 150.0),
        sale_min=vector(n, 0.0, 150.0),
        purchase_price=vector(m, 100.0, 600.0),
        sale_price=vector(n, 300.0, 1200.0),
        transport_cost=tuple(vector(n, 0.0, 200.0) for _ in range(m)),
    )


# the end of each cut that raises the benefit, written out independently
# of the solver's own FIELDS directions
OPTIMISTIC_END = {
    "supply_max": 1.0,
    "demand_max": 1.0,
    "purchase_min": 0.0,
    "sale_min": 0.0,
    "purchase_price": 0.0,
    "sale_price": 1.0,
    "transport_cost": 0.0,
}


def _optimistic(field):
    return OPTIMISTIC_END[field.name]


def _pessimistic(field):
    return 1.0 - OPTIMISTIC_END[field.name]


def _drawn(fractions):
    """Fractions drawn for every parameter, handed out in values() order."""
    it = iter(fractions)
    return lambda field: next(it)


def _point(p: DistributionProblem, alpha: float, fraction) -> CrispInstance:
    """The crisp instance at fraction(field) of each parameter's alpha-cut."""

    def pick(field, index, t):
        lo, hi = map(float, cut_ends(t.a, t.b, t.c, t.d, alpha))
        return lo + fraction(field) * (hi - lo)

    return p.map(CrispInstance, pick)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(p=problems(), data=st.data())
def test_alpha_cuts_bracket_crisp_optima_and_nest(p, data):
    """Every crisp optimum in an unrepaired level's box lies in its benefit cut."""
    sol = solve_fuzzy(p, AlphaGrid.uniform(5))
    size = len(list(p.values()))
    for level in sol.levels:
        if not level.feasible or level.repaired:
            continue
        fractions = [_optimistic, _pessimistic]
        for _ in range(POINTS_PER_LEVEL):
            fractions.append(_drawn(data.draw(st.lists(unit, min_size=size, max_size=size))))
        for fraction in fractions:
            crisp = solve(to_lp(_point(p, level.alpha, fraction)))
            # the pessimistic corner is feasible and every point in the box relaxes it
            assert crisp.status == "optimal"
            value = crisp.objective_value
            tol = 1e-7 * max(1.0, abs(value))
            assert level.cuts[0, 0] - tol <= value <= level.cuts[0, 1] + tol

    # cuts nest: benefit and every lane, each feasible level inside the one below
    cuts = [lv.cuts for lv in sol.levels if lv.feasible]
    for lower, upper in zip(cuts, cuts[1:]):
        assert lower.shape == upper.shape == (1 + p.shape[0] * p.shape[1], 2)
        assert np.all(lower[:, 0] <= upper[:, 0]) and np.all(upper[:, 1] <= lower[:, 1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    corners=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4),
    triangular=st.booleans(),
    alpha=unit | st.just(1.0),
)
@example(
    corners=[-147.8186406236996, -91.69534310295919, -91.69534310295919, 778.3148120736806],
    triangular=True,
    alpha=1.0,
)
def test_alpha_cut_ends_stay_ordered(corners, triangular, alpha):
    """A valid trapezoid's cut never raises, and its ends bracket the core."""
    a, b, c, d = sorted(corners)
    if triangular:
        c = b
    t = TrapezoidalFuzzyNumber(a, b, c, d)
    lo, hi = cut_ends(t.a, t.b, t.c, t.d, alpha)
    assert a <= lo <= b <= c <= hi <= d
