import dataclasses

import numpy as np
import pytest

from fuzzyplan.model import (
    FIELDS,
    CrispInstance,
    feasibility_precheck,
    lane_profits,
    lp_rows,
    lp_skeleton,
    midpoint_instance,
    necessary_violations,
    to_lp,
)
from fuzzyplan.monte_carlo import ParameterSpecs
from fuzzyplan.simplex import solve
from fuzzyplan.transport import modi_optimize, plan_cost

from conftest import DEMO, DEMO_OPTIMUM
from oracles import north_west_corner


def one_by_one(purchase_price, sale_price, a=10.0, b=10.0, p=5.0, q=5.0):
    return CrispInstance(
        supply_max=(a,),
        demand_max=(b,),
        purchase_min=(p,),
        sale_min=(q,),
        purchase_price=(purchase_price,),
        sale_price=(sale_price,),
        transport_cost=((0.0,),),
    )


def test_dimension_validation():
    with pytest.raises(ValueError, match="purchase_min"):
        CrispInstance(
            supply_max=(1.0, 2.0),
            demand_max=(3.0,),
            purchase_min=(0.0,),
            sale_min=(0.0,),
            purchase_price=(1.0, 1.0),
            sale_price=(1.0,),
            transport_cost=((1.0,), (1.0,)),
        )
    with pytest.raises(ValueError, match="transport_cost"):
        CrispInstance(
            supply_max=(1.0,),
            demand_max=(2.0, 3.0),
            purchase_min=(0.0,),
            sale_min=(0.0, 0.0),
            purchase_price=(1.0,),
            sale_price=(1.0, 1.0),
            transport_cost=((1.0,),),
        )
    with pytest.raises(ValueError):
        one_by_one(float("nan"), 1.0)
    with pytest.raises(ValueError, match="contract_sale_price"):
        CrispInstance(
            supply_max=(1.0,),
            demand_max=(1.0,),
            purchase_min=(0.0,),
            sale_min=(0.0,),
            purchase_price=(1.0,),
            sale_price=(1.0,),
            transport_cost=((1.0,),),
            contract_sale_price=(1.0, 2.0),
        )


def test_to_lp_single_lane_positive_profit():
    sol = solve(to_lp(one_by_one(0.0, 7.0)))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(70.0)
    assert sol.x == pytest.approx((10.0,))


def test_to_lp_single_lane_negative_profit():
    sol = solve(to_lp(one_by_one(7.0, 0.0)))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-35.0)
    assert sol.x == pytest.approx((5.0,))


def test_to_lp_demo_optimum(demo_means):
    lp = to_lp(demo_means)
    assert lp.a.shape == (12, 9)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(DEMO_OPTIMUM)


def test_to_lp_rows_and_relations():
    inst = CrispInstance(
        supply_max=(10.0, 11.0),
        demand_max=(5.0, 6.0, 7.0),
        purchase_min=(1.0, 2.0),
        sale_min=(3.0, 4.0, 4.5),
        purchase_price=(1.0, 2.0),
        sale_price=(5.0, 6.0, 7.0),
        transport_cost=((0.5, 0.25, 1.0), (2.0, 0.0, 1.5)),
    )
    row = [(1.0, 1.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)]
    col = [tuple(1.0 if k % 3 == j else 0.0 for k in range(6)) for j in range(3)]
    # capacities are a x <= b, a +1 slack; contracts a x >= b, a -1 slack
    want = (
        [(row[i], 1.0, inst.supply_max[i]) for i in range(2)]
        + [(col[j], 1.0, inst.demand_max[j]) for j in range(3)]
        + [(row[i], -1.0, inst.purchase_min[i]) for i in range(2)]
        + [(col[j], -1.0, inst.sale_min[j]) for j in range(3)]
    )
    lp = to_lp(inst)
    assert tuple(zip(map(tuple, lp.a.tolist()), lp.signs.tolist(), lp.b.tolist())) == tuple(want)
    assert lp.signs.dtype == float
    assert tuple(lp.c.tolist()) == (3.5, 4.75, 5.0, 1.0, 4.0, 3.5)
    assert lp_skeleton((2, 3)) is lp_skeleton((2, 3))
    assert lp.a is lp_skeleton((2, 3))[0]
    assert lp.signs is lp_skeleton((2, 3))[1]
    with pytest.raises(ValueError, match="read-only"):
        lp.a[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        lp.signs[0] = -1.0


def test_scenario_row_layout():
    # lp_rows reads a scenario row by position: b is the first four
    # fields' entries, the prices the next three's. Reordering FIELDS
    # must fail here, not quietly swap a capacity for a price.
    rhs = ["supply_max", "demand_max", "purchase_min", "sale_min"]
    assert [f.name for f in FIELDS[:4]] == rhs
    assert [f.name for f in FIELDS[4:7]] == ["purchase_price", "sale_price", "transport_cost"]
    assert [f.axis for f in FIELDS[:7]] == ["rows", "cols"] * 3 + ["lanes"]
    assert all(f.optional for f in FIELDS[7:])
    # a 2x3 row of distinct values, 1 to 21, and one row of 21 zeros
    rows = np.vstack([np.arange(1.0, 22.0), np.zeros(21)])
    c, b = lp_rows((2, 3), rows)
    assert b.tolist() == [list(range(1, 11)), [0] * 10]
    purchase, sale, haul = [11.0, 12.0], [13.0, 14.0, 15.0], np.arange(16.0, 22.0).reshape(2, 3)
    want = [[(sale[j] - purchase[i]) - haul[i, j] for i in range(2) for j in range(3)], [0] * 6]
    assert c.tolist() == want


@pytest.mark.parametrize("excess, feasible", [(5e-8, True), (5e-7, False)])
def test_precheck_tolerance_agrees_with_simplex(demo_means, excess, feasible):
    # the simplex accepts a phase-1 optimum down to -FEAS_TOL, so a
    # violation below FEAS_TOL is not proof of infeasibility
    purchase_min = (demo_means.supply_max[0] + excess,) + demo_means.purchase_min[1:]
    inst = dataclasses.replace(demo_means, purchase_min=purchase_min)
    assert feasibility_precheck(inst).ok is feasible
    assert (solve(to_lp(inst)).status == "optimal") is feasible


def test_precheck_demo_passes(demo_means):
    report = feasibility_precheck(demo_means)
    assert report.ok
    assert bool(report)
    assert report.violations == ()


def test_precheck_reports_violations(demo_means):
    bad = CrispInstance(
        supply_max=demo_means.supply_max,
        demand_max=demo_means.demand_max,
        purchase_min=(461.0,) + demo_means.purchase_min[1:],
        sale_min=demo_means.sale_min,
        purchase_price=demo_means.purchase_price,
        sale_price=demo_means.sale_price,
        transport_cost=demo_means.transport_cost,
    )
    report = feasibility_precheck(bad)
    assert not report.ok
    assert any("purchase_min[0]" in v for v in report.violations)


def test_precheck_totals():
    inst = CrispInstance(
        supply_max=(5.0, 5.0),
        demand_max=(20.0, 20.0),
        purchase_min=(0.0, 0.0),
        sale_min=(8.0, 8.0),
        purchase_price=(1.0, 1.0),
        sale_price=(2.0, 2.0),
        transport_cost=((0.0, 0.0), (0.0, 0.0)),
    )
    report = feasibility_precheck(inst)
    assert not report.ok
    assert any("total sale_min" in v for v in report.violations)


def test_precheck_trivial_pass():
    assert feasibility_precheck(one_by_one(1.0, 2.0, p=0.0, q=0.0)).ok


def test_precheck_names_a_capacity_below_zero():
    # a minimum at or below 0 asks for nothing, so what breaks is the
    # capacity itself, which no shipment x >= 0 meets; the total counts
    # only positive minimums
    report = feasibility_precheck(one_by_one(1.0, 2.0, a=-3.0, p=-5.0, q=-1.0))
    assert report.violations == (
        "supply_max[0]=-3 is below 0",
        "total sale_min 0 (positive minimums only) exceeds total supply_max -3",
    )


def test_screen_flags_exactly_the_infeasible_rows():
    # the lanes are uncapped on a complete bipartite graph, so the LP is
    # feasible exactly when each capacity meets its positive minimum and
    # each side's positive minimums fit the other side's total capacity
    # (Gale). Integer data keeps every violation far above FEAS_TOL.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    flagged = []
    for _ in range(600):
        m, n = (int(v) for v in rng.integers(1, 5, 2))
        b = np.concatenate([rng.integers(-1, 15, m + n), rng.integers(-6, 6, m + n)])
        b = b.astype(float)[None]
        masks = necessary_violations(*np.split(b, [m, m + n, 2 * m + n], axis=1))
        flagged.append(any(mask.any() for mask in masks))
        sums = lp_skeleton((m, n))[0][: m + n].astype(float)
        b_ub = np.concatenate([b[0, : m + n], -b[0, m + n :]])
        ref = linprog(
            np.zeros(m * n), A_ub=np.vstack([sums, -sums]), b_ub=b_ub, bounds=(0, None)
        )
        assert ref.status in (0, 2), ref.message
        assert flagged[-1] == (ref.status == 2), b
    assert 0.3 < np.mean(flagged) < 0.7  # both outcomes are common


def test_midpoint_instance(demo_problem, demo_means):
    assert midpoint_instance(demo_problem) == demo_means


def test_midpoint_instance_takes_each_core_midpoint(demo_crisp_problem):
    # the core sums of the first two overflow; halving first would drop
    # the last bit of the subnormal one
    T = type(demo_crisp_problem.sale_price[0])
    sale = (
        T(1e308, 1e308, 1.7e308, 1.7e308),
        T(-1e308, -1e308, 1e308, 1e308),
        T(0.0, 5e-324, 5e-324, 1e-323),
    )
    problem = dataclasses.replace(demo_crisp_problem, sale_price=sale)
    inst = midpoint_instance(problem)
    assert inst.sale_price == tuple(t.core.midpoint for t in sale)
    assert inst.sale_price[1:] == (0.0, 5e-324)
    assert 1e308 < inst.sale_price[0] < 1.7e308


def test_huge_crisp_prices_keep_finite_midpoints(demo_crisp_problem):
    # each price's core sums to +-2e308; its midpoint is the price itself,
    # and only the lane profit between the two overflows
    sale, purchase = demo_crisp_problem.sale_price, demo_crisp_problem.purchase_price
    huge = dataclasses.replace(
        demo_crisp_problem,
        sale_price=(sale[0].crisp(1e308),) + sale[1:],
        purchase_price=(purchase[0].crisp(-1e308),) + purchase[1:],
    )
    inst = midpoint_instance(huge)
    assert (inst.sale_price[0], inst.purchase_price[0]) == (1e308, -1e308)
    specs = ParameterSpecs.from_problem(huge)
    assert (specs.sale_price[0].mean, specs.purchase_price[0].mean) == (1e308, -1e308)
    with pytest.raises(ValueError, match="^lane profits must be finite$"):
        to_lp(inst)


def test_lane_profits_batch_matches_scalar_formula(demo_means):
    # a scenario gets the same floats alone (to_lp) as inside a batch
    rng = np.random.default_rng(3)
    purchase = rng.normal(500.0, 50.0, (4, 3)).tolist()
    sale = rng.normal(1000.0, 50.0, (4, 3)).tolist()
    haul = rng.normal(100.0, 20.0, (4, 3, 3)).tolist()
    batch = lane_profits(np.array(purchase), np.array(sale), np.array(haul))
    for k in range(4):
        want = tuple(
            tuple((sale[k][j] - purchase[k][i]) - haul[k][i][j] for j in range(3))
            for i in range(3)
        )
        inst = dataclasses.replace(
            demo_means,
            purchase_price=tuple(purchase[k]),
            sale_price=tuple(sale[k]),
            transport_cost=tuple(map(tuple, haul[k])),
        )
        assert tuple(map(tuple, to_lp(inst).c.reshape(inst.shape).tolist())) == want
        assert tuple(map(tuple, batch[k].tolist())) == want


def test_lp_matches_transport_on_saturated_instances():
    # with zero contract minimums, balanced totals, and all-positive
    # profits, the model is exactly a max-profit transportation problem
    rng = np.random.default_rng(606)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        supply = rng.integers(5, 30, m).astype(float)
        demand = rng.integers(5, 30, n).astype(float)
        demand *= supply.sum() / demand.sum()
        profits = rng.integers(1, 50, (m, n)).astype(float)
        inst = CrispInstance(
            supply_max=tuple(supply),
            demand_max=tuple(demand),
            purchase_min=(0.0,) * m,
            sale_min=(0.0,) * n,
            purchase_price=(0.0,) * m,
            sale_price=tuple(profits.max(axis=0) * 0.0),
            transport_cost=tuple(tuple(-profits[i][j] for j in range(n)) for i in range(m)),
        )
        sol = solve(to_lp(inst))
        assert sol.status == "optimal"
        x, _ = modi_optimize(-profits, *north_west_corner(supply.tolist(), demand.tolist()))
        assert sol.objective_value == pytest.approx(plan_cost(profits.tolist(), x), abs=1e-6)
