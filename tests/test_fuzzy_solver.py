import numpy as np
import pytest

from fuzzyplan.fuzzy import AlphaGrid, TrapezoidalFuzzyNumber
from fuzzyplan.ingest import gaussian_to_trapezoid
from fuzzyplan.intervals import Interval
from fuzzyplan.model import DistributionProblem, to_lp
from fuzzyplan.fuzzy_solver import (
    AlphaLevelResult,
    FuzzySolution,
    corner_instances,
    enforce_nesting,
    fit_trapezoid,
    rank_fuzzy,
    repair_bounds,
    solve_fuzzy,
)
from fuzzyplan.simplex import solve

from conftest import DEMO_OPTIMUM

T = TrapezoidalFuzzyNumber
Z_CORE = 0.38532046640756773
Z_SUPPORT = 1.6448536269514722


def single_lane_problem(sale=T(1.0, 2.0, 3.0, 4.0)):
    return DistributionProblem(
        supply_max=(T.crisp(10.0),),
        demand_max=(T.crisp(10.0),),
        purchase_min=(T.crisp(5.0),),
        sale_min=(T.crisp(5.0),),
        purchase_price=(T.crisp(0.0),),
        sale_price=(sale,),
        transport_cost=((T.crisp(0.0),),),
    )


def test_corners_collapse_on_crisp(demo_crisp_problem, demo_means):
    for alpha in (0.0, 0.4, 1.0):
        opt, pes = corner_instances(demo_crisp_problem, alpha)
        assert opt == demo_means
        assert pes == demo_means


def test_corners_at_core_of_gaussians(demo_problem):
    opt, pes = corner_instances(demo_problem, 1.0)
    assert opt.supply_max[0] == pytest.approx(460.0 + Z_CORE * 10.0, abs=1e-9)
    assert pes.supply_max[0] == pytest.approx(460.0 - Z_CORE * 10.0, abs=1e-9)
    assert opt.purchase_min[0] == pytest.approx(440.0 - Z_CORE * 10.0, abs=1e-9)
    assert pes.purchase_min[0] == pytest.approx(440.0 + Z_CORE * 10.0, abs=1e-9)
    assert opt.sale_price[2] == pytest.approx(1180.0 + Z_CORE * 10.0, abs=1e-9)
    assert pes.transport_cost[1][2] == pytest.approx(405.0 + Z_CORE * 10.0, abs=1e-9)


def test_corner_boxes_nest(demo_problem):
    opt0, pes0 = corner_instances(demo_problem, 0.0)
    opt1, pes1 = corner_instances(demo_problem, 1.0)
    for field in (
        "supply_max",
        "demand_max",
        "purchase_min",
        "sale_min",
        "purchase_price",
        "sale_price",
    ):
        wide = list(zip(getattr(pes0, field), getattr(opt0, field)))
        narrow = list(zip(getattr(pes1, field), getattr(opt1, field)))
        for (w1, w2), (n1, n2) in zip(wide, narrow):
            assert min(w1, w2) <= min(n1, n2) <= max(n1, n2) <= max(w1, w2)


def test_repair_clips_contracts(demo_problem):
    _, pes = corner_instances(demo_problem, 0.0)
    # widest pessimistic corner: minimum purchase ~456 vs capacity ~444
    assert pes.purchase_min[0] == pytest.approx(440.0 + Z_SUPPORT * 10.0, abs=1e-9)
    assert pes.supply_max[0] == pytest.approx(460.0 - Z_SUPPORT * 10.0, abs=1e-9)
    fixed, repaired = repair_bounds(pes)
    assert repaired
    assert fixed.purchase_min == fixed.supply_max
    assert fixed.sale_min == fixed.demand_max


def test_repair_identity(demo_means):
    fixed, repaired = repair_bounds(demo_means)
    assert not repaired
    assert fixed == demo_means


def test_repair_allows_equality(demo_means):
    from dataclasses import replace

    boundary = replace(demo_means, sale_min=demo_means.demand_max)
    fixed, repaired = repair_bounds(boundary)
    assert not repaired
    assert fixed == boundary


def test_solve_fuzzy_crisp_collapses(demo_crisp_problem):
    sol = solve_fuzzy(demo_crisp_problem)
    assert len(sol.levels) == 11
    assert not sol.nesting_adjusted
    for lv in sol.levels:
        assert lv.feasible
        assert not lv.repaired
        assert lv.benefit.width <= 1e-6
        assert lv.benefit.lo == pytest.approx(DEMO_OPTIMUM, abs=1e-6)
        for iv in lv.shipments:
            assert iv.width <= 1e-6


def test_solve_fuzzy_single_lane_closed_form():
    sol = solve_fuzzy(single_lane_problem())
    at0 = sol.level_at(0.0)
    at1 = sol.level_at(1.0)
    assert at0.benefit.lo == pytest.approx(10.0)
    assert at0.benefit.hi == pytest.approx(40.0)
    assert at1.benefit.lo == pytest.approx(20.0)
    assert at1.benefit.hi == pytest.approx(30.0)
    assert at0.shipments[0].lo == pytest.approx(10.0)
    assert at0.shipments[0].hi == pytest.approx(10.0)
    assert fit_trapezoid(sol, "benefit") == T(10.0, 20.0, 30.0, 40.0)
    assert fit_trapezoid(sol, 0) == T(10.0, 10.0, 10.0, 10.0)


def test_solve_fuzzy_demo(demo_problem):
    sol = solve_fuzzy(demo_problem)
    assert all(lv.feasible for lv in sol.levels)
    # clipping kicks in once contract minimums cross capacities, which
    # for these spreads happens on the wide half of the grid
    assert [lv.repaired for lv in sol.levels] == [True] * 6 + [False] * 5
    core = sol.level_at(1.0).benefit
    assert core.lo <= DEMO_OPTIMUM <= core.hi
    for lo_lv, hi_lv in zip(sol.levels, sol.levels[1:]):
        assert lo_lv.benefit.contains(hi_lv.benefit)
        for k in range(9):
            assert lo_lv.shipments[k].contains(hi_lv.shipments[k])


def test_solve_fuzzy_corner_dominance(demo_problem):
    for alpha in AlphaGrid.uniform(5):
        opt, pes = corner_instances(demo_problem, alpha)
        opt, _ = repair_bounds(opt)
        pes, _ = repair_bounds(pes)
        v_opt = solve(to_lp(opt))
        v_pes = solve(to_lp(pes))
        assert v_opt.status == v_pes.status == "optimal"
        assert v_pes.objective_value <= v_opt.objective_value + 1e-9


def test_solve_fuzzy_all_infeasible_reported():
    p = DistributionProblem(
        supply_max=(T.crisp(5.0),),
        demand_max=(T.crisp(10.0), T.crisp(10.0)),
        purchase_min=(T.crisp(0.0),),
        sale_min=(T.crisp(8.0), T.crisp(8.0)),
        purchase_price=(T.crisp(1.0),),
        sale_price=(T.crisp(2.0), T.crisp(2.0)),
        transport_cost=((T.crisp(0.0), T.crisp(0.0)),),
    )
    sol = solve_fuzzy(p)
    assert all(not lv.feasible for lv in sol.levels)
    assert all(lv.benefit is None and lv.shipments is None for lv in sol.levels)
    with pytest.raises(ValueError, match="feasible"):
        fit_trapezoid(sol, "benefit")


def test_enforce_nesting_widens():
    grid = AlphaGrid((0.0, 1.0))
    raw = FuzzySolution(
        grid,
        (1, 1),
        (
            AlphaLevelResult(0.0, True, False, Interval(5.5, 5.8), (Interval(1.0, 2.0),)),
            AlphaLevelResult(1.0, True, False, Interval(5.0, 6.0), (Interval(1.2, 1.8),)),
        ),
    )
    fixed = enforce_nesting(raw)
    assert fixed.nesting_adjusted
    assert fixed.level_at(0.0).benefit == Interval(5.0, 6.0)
    assert fixed.level_at(1.0).benefit == Interval(5.0, 6.0)
    assert fixed.level_at(0.0).shipments[0] == Interval(1.0, 2.0)


def test_enforce_nesting_identity():
    grid = AlphaGrid((0.0, 1.0))
    raw = FuzzySolution(
        grid,
        (1, 1),
        (
            AlphaLevelResult(0.0, True, False, Interval(0.0, 10.0), (Interval(0.0, 5.0),)),
            AlphaLevelResult(1.0, True, False, Interval(2.0, 8.0), (Interval(1.0, 4.0),)),
        ),
    )
    fixed = enforce_nesting(raw)
    assert not fixed.nesting_adjusted
    assert fixed.levels == raw.levels


def test_fit_trapezoid_requires_end_levels():
    grid = AlphaGrid((0.2, 0.8))
    sol = FuzzySolution(
        grid,
        (1, 1),
        (
            AlphaLevelResult(0.2, True, False, Interval(0.0, 1.0), (Interval(0.0, 1.0),)),
            AlphaLevelResult(0.8, True, False, Interval(0.2, 0.8), (Interval(0.2, 0.8),)),
        ),
    )
    with pytest.raises(ValueError, match="levels 0 and 1"):
        fit_trapezoid(sol, "benefit")


def test_grid_refinement_keeps_end_levels(demo_problem):
    coarse = solve_fuzzy(demo_problem, AlphaGrid.uniform(11))
    fine = solve_fuzzy(demo_problem, AlphaGrid.uniform(21))
    for pick in (0.0, 1.0):
        a = coarse.level_at(pick).benefit
        b = fine.level_at(pick).benefit
        assert a.lo == pytest.approx(b.lo, abs=1e-9)
        assert a.hi == pytest.approx(b.hi, abs=1e-9)


def test_rank_fuzzy():
    x = T(0.0, 1.0, 2.0, 3.0)
    y = T(1.0, 2.0, 3.0, 4.0)
    same = rank_fuzzy(x, x)
    assert same.probability == pytest.approx(0.5)
    assert same.preference == "tie"
    high = rank_fuzzy(T(10.0, 11.0, 12.0, 13.0), x)
    assert high.probability == 1.0
    assert high.preference == "first"
    report = rank_fuzzy(x, y, AlphaGrid((0.0, 0.5, 1.0)))
    assert report.probability == pytest.approx((2 / 9 + 1 / 8) / 3, abs=1e-9)
    assert report.preference == "second"


def _random_problem(rng):
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))

    def fz(mean):
        return gaussian_to_trapezoid(float(mean), float(rng.uniform(0.0, 6.0)))

    supply = rng.uniform(50, 150, m)
    demand = rng.uniform(50, 150, n)
    return DistributionProblem(
        supply_max=tuple(fz(v) for v in supply),
        demand_max=tuple(fz(v) for v in demand),
        purchase_min=tuple(fz(v * rng.uniform(0.1, 0.6)) for v in supply),
        sale_min=tuple(fz(v * rng.uniform(0.1, 0.6)) for v in demand),
        purchase_price=tuple(fz(v) for v in rng.uniform(10, 80, m)),
        sale_price=tuple(fz(v) for v in rng.uniform(120, 250, n)),
        transport_cost=tuple(
            tuple(fz(v) for v in row) for row in rng.uniform(1, 30, (m, n))
        ),
    )


def test_random_problems_nest_and_dominate():
    rng = np.random.default_rng(515)
    grid = AlphaGrid.uniform(6)
    solved = 0
    for _ in range(15):
        problem = _random_problem(rng)
        sol = solve_fuzzy(problem, grid)
        feasible = [lv for lv in sol.levels if lv.feasible]
        if len(feasible) == len(sol.levels):
            solved += 1
        for lo_lv, hi_lv in zip(feasible, feasible[1:]):
            assert lo_lv.benefit.contains(hi_lv.benefit)
        for lv in feasible:
            assert lv.benefit.lo <= lv.benefit.hi
    assert solved >= 5  # generator must produce mostly solvable problems
