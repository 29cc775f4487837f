import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fuzzyplan import cli
from fuzzyplan.basis import _BasisCache
from fuzzyplan.fuzzy import AlphaGrid, TrapezoidalFuzzyNumber, cut_ends
from fuzzyplan.ingest import gaussian_to_trapezoid
from fuzzyplan.intervals import midpoint
from fuzzyplan.model import (
    CrispInstance,
    DistributionProblem,
    lp_rows,
    necessary_violations,
    to_lp,
)
import fuzzyplan.fuzzy_solver as fuzzy_solver
from fuzzyplan.fuzzy_solver import (
    AlphaLevelResult,
    FuzzySolution,
    corner_instances,
    corner_rows,
    enforce_nesting,
    fit_trapezoid,
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
        assert lv.cuts.shape == (10, 2)
        assert np.all(lv.cuts[:, 1] - lv.cuts[:, 0] <= 1e-6)  # benefit and every lane
        assert lv.cuts[0, 0] == pytest.approx(DEMO_OPTIMUM, abs=1e-6)


def test_solve_fuzzy_single_lane_closed_form():
    sol = solve_fuzzy(single_lane_problem())
    at0, at1 = sol.levels[0], sol.levels[-1]
    assert at0.cuts == pytest.approx(np.array([[10.0, 40.0], [10.0, 10.0]]))
    assert at1.cuts[0] == pytest.approx([20.0, 30.0])
    assert fit_trapezoid(sol) == (T(10.0, 20.0, 30.0, 40.0), T(10.0, 10.0, 10.0, 10.0))


def test_solve_fuzzy_demo(demo_problem):
    sol = solve_fuzzy(demo_problem)
    assert all(lv.feasible for lv in sol.levels)
    # clipping kicks in once contract minimums cross capacities, which
    # for these spreads happens on the wide half of the grid
    assert [lv.repaired for lv in sol.levels] == [True] * 6 + [False] * 5
    core_lo, core_hi = sol.levels[-1].cuts[0]
    assert core_lo <= DEMO_OPTIMUM <= core_hi
    for lo_lv, hi_lv in zip(sol.levels, sol.levels[1:]):
        assert lo_lv.cuts.shape == hi_lv.cuts.shape == (10, 2)  # benefit and 9 lanes
        assert np.all(lo_lv.cuts[:, 0] <= hi_lv.cuts[:, 0] + 1e-9)
        assert np.all(hi_lv.cuts[:, 1] <= lo_lv.cuts[:, 1] + 1e-9)


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
    assert all(lv.cuts is None for lv in sol.levels)
    with pytest.raises(ValueError, match="feasible"):
        fit_trapezoid(sol)


def level(alpha, *cuts):
    """A level as the solver reports it: feasible with [lo, hi] rows, or infeasible."""
    if not cuts:
        return AlphaLevelResult(alpha, False, False, None)
    return AlphaLevelResult(alpha, True, False, np.array(cuts, dtype=float))


def test_enforce_nesting_widens():
    grid = AlphaGrid((0.0, 1.0))
    raw = FuzzySolution(
        grid, (1, 1), (level(0.0, (5.5, 5.8), (1.0, 2.0)), level(1.0, (5.0, 6.0), (1.2, 1.8)))
    )
    fixed = enforce_nesting(raw)
    assert fixed.nesting_adjusted
    assert np.array_equal(fixed.levels[0].cuts, [[5.0, 6.0], [1.0, 2.0]])
    assert np.array_equal(fixed.levels[1].cuts, [[5.0, 6.0], [1.2, 1.8]])
    assert np.array_equal(raw.levels[0].cuts, [[5.5, 5.8], [1.0, 2.0]])  # input untouched


def test_enforce_nesting_identity():
    grid = AlphaGrid((0.0, 1.0))
    raw = FuzzySolution(
        grid, (1, 1), (level(0.0, (0.0, 10.0), (0.0, 5.0)), level(1.0, (2.0, 8.0), (1.0, 4.0)))
    )
    fixed = enforce_nesting(raw)
    assert not fixed.nesting_adjusted
    assert_same_levels(fixed.levels, raw.levels)


def test_enforce_nesting_keeps_tied_floats():
    # a hull end moves only where the lower level lies strictly outside:
    # on a tie the float of the level above stays, signed zero included
    below, above = level(0.0, (0.0, 1.0), (0.0, -0.0)), level(1.0, (-0.0, 1.0), (-0.0, 0.0))
    raw = FuzzySolution(AlphaGrid((0.0, 1.0)), (1, 1), (below, above))
    fixed = enforce_nesting(raw)
    assert not fixed.nesting_adjusted
    assert np.signbit(fixed.levels[0].cuts).tolist() == [[True, False], [True, False]]


def test_enforce_nesting_carries_hull_across_infeasible_level(tmp_path, monkeypatch):
    raw = FuzzySolution(
        AlphaGrid((0.0, 0.5, 1.0)),
        (1, 1),
        (level(0.0, (5.5, 5.8), (1.0, 2.0)), level(0.5), level(1.0, (5.0, 6.0), (1.2, 1.8))),
    )
    fixed = enforce_nesting(raw)
    assert fixed.nesting_adjusted
    assert np.array_equal(fixed.levels[0].cuts, [[5.0, 6.0], [1.0, 2.0]])
    assert fixed.levels[1].cuts is None and not fixed.levels[1].feasible

    doc = {"schema_version": 1, "kind": "distribution", "supply_max": [9], "demand_max": [9]}
    doc.update(purchase_min=[0], sale_min=[0], purchase_price=[1], sale_price=[2])
    doc.update(transport_cost=[[0]])
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "solve_fuzzy", lambda p, grid: fixed)
    out = tmp_path / "out"
    argv = [str(problem), "--mode", "fuzzy", "--alpha-levels", "3", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    assert (out / "fuzzy_levels.csv").read_text().splitlines() == [
        "alpha,D_lo,D_hi,x_11_lo,x_11_hi,feasible,repaired",
        "0,5,6,1,2,true,false",
        "0.5,,,,,false,false",
        "1,5,6,1.2,1.8,true,false",
    ]
    quads = json.loads((out / "fuzzy_quadruples.json").read_text())
    assert quads == {"D": [5, 5, 6, 6], "x_11": [1, 1.2, 1.8, 2]}


def test_fit_trapezoid_requires_end_levels():
    grid = AlphaGrid((0.2, 0.8))
    sol = FuzzySolution(
        grid, (1, 1), (level(0.2, (0.0, 1.0), (0.0, 1.0)), level(0.8, (0.2, 0.8), (0.2, 0.8)))
    )
    with pytest.raises(ValueError, match="levels 0 and 1"):
        fit_trapezoid(sol)
    # the first and last levels are the ends, each to within 1e-12
    for ends, fits in [((0.0, 0.8), False), ((0.2, 1.0), False), ((1e-13, 1 - 1e-13), True)]:
        levels = (level(ends[0], (0.0, 1.0), (0.0, 1.0)), level(ends[1], (0.2, 0.8), (0.2, 0.8)))
        sol = FuzzySolution(AlphaGrid(ends), (1, 1), levels)
        if fits:
            assert fit_trapezoid(sol) == (T(0.0, 0.2, 0.8, 1.0),) * 2
        else:
            with pytest.raises(ValueError, match="^grid must include levels 0 and 1"):
                fit_trapezoid(sol)


def test_fit_trapezoid_reads_the_end_level_cuts(demo_problem):
    sol = solve_fuzzy(demo_problem)
    support, core = sol.levels[0].cuts, sol.levels[-1].cuts
    traps = fit_trapezoid(sol)
    assert len(traps) == 1 + 9
    for row, trap in enumerate(traps):
        (a, d), (b, c) = support[row].tolist(), core[row].tolist()
        assert trap == T(a, b, c, d)


def test_fit_trapezoid_needs_both_end_levels_feasible():
    for infeasible in (0.0, 1.0):
        levels = tuple(
            level(alpha) if alpha == infeasible else level(alpha, (0.0, 1.0), (0.0, 1.0))
            for alpha in (0.0, 1.0)
        )
        sol = FuzzySolution(AlphaGrid((0.0, 1.0)), (1, 1), levels)
        with pytest.raises(ValueError, match="^levels 0 and 1 must both be feasible"):
            fit_trapezoid(sol)


def test_grid_refinement_keeps_end_levels(demo_problem):
    coarse = solve_fuzzy(demo_problem, AlphaGrid.uniform(11))
    fine = solve_fuzzy(demo_problem, AlphaGrid.uniform(21))
    for pick in (0, -1):
        a = coarse.levels[pick].cuts[0]
        b = fine.levels[pick].cuts[0]
        assert a == pytest.approx(b, abs=1e-9)


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
            (lo_lo, lo_hi), (hi_lo, hi_hi) = lo_lv.cuts[0], hi_lv.cuts[0]
            assert lo_lo - 1e-9 <= hi_lo and hi_hi <= lo_hi + 1e-9
        for lv in feasible:
            assert np.all(lv.cuts[:, 0] <= lv.cuts[:, 1])
    assert solved >= 5  # generator must produce mostly solvable problems


@pytest.fixture
def raw_cold_solves(counted_solves, monkeypatch):
    """Counts the cold solves solve_fuzzy makes; its levels stay unnested."""
    monkeypatch.setattr(fuzzy_solver, "enforce_nesting", lambda sol: sol)
    return counted_solves


def cold_levels(p, grid):
    """Each level from one cold solve per repaired corner, before nesting."""
    levels = []
    for alpha in grid:
        corners = [repair_bounds(corner) for corner in corner_instances(p, alpha)]
        repaired = any(rep for _, rep in corners)
        opt, pes = (solve(to_lp(inst)) for inst, _ in corners)
        if opt.status != "optimal" or pes.status != "optimal":
            levels.append(AlphaLevelResult(alpha, False, repaired, None))
            continue
        ends = zip((pes.objective_value, *pes.x), (opt.objective_value, *opt.x))
        cuts = np.array([(min(a, b), max(a, b)) for a, b in ends])
        levels.append(AlphaLevelResult(alpha, True, repaired, cuts))
    return tuple(levels)


def assert_same_levels(got, want):
    assert [(lv.alpha, lv.feasible, lv.repaired) for lv in got] == [
        (lv.alpha, lv.feasible, lv.repaired) for lv in want
    ]
    for g, w in zip(got, want):
        assert (g.cuts is None and w.cuts is None) or np.array_equal(g.cuts, w.cuts)


def nondegenerate_problem(k=6, seed=0):
    # generic numbers, so corner optima are mostly unique and nondegenerate;
    # lane profits near zero, so the optimal bases change with alpha
    rng = np.random.default_rng(seed)

    def fz(means, sigma):
        return tuple(gaussian_to_trapezoid(float(v), sigma) for v in means)

    return DistributionProblem(
        supply_max=fz(rng.uniform(300.0, 700.0, k), 40.0),
        demand_max=fz(rng.uniform(300.0, 700.0, k), 40.0),
        purchase_min=fz(rng.uniform(50.0, 150.0, k), 10.0),
        sale_min=fz(rng.uniform(50.0, 150.0, k), 10.0),
        purchase_price=fz(rng.uniform(500.0, 600.0, k), 10.0),
        sale_price=fz(rng.uniform(600.0, 700.0, k), 10.0),
        transport_cost=tuple(fz(rng.uniform(30.0, 200.0, k), 20.0) for _ in range(k)),
    )


def infeasible_low_problem():
    # the pessimistic corner needs 11 - 4a units of sale contract from a
    # supply of 5 + 5a: infeasible below alpha 2/3, feasible above. The
    # optimistic corner ships min(15 - 5a, 12.2): its basis changes at
    # alpha 0.56, where the old one stops being feasible
    return DistributionProblem(
        supply_max=(T(5.0, 10.0, 10.0, 15.0),),
        demand_max=(T.crisp(12.2),),
        purchase_min=(T.crisp(1.0),),
        sale_min=(T(6.0, 7.0, 7.0, 11.0),),
        purchase_price=(T.crisp(1.0),),
        sale_price=(T(4.0, 5.0, 5.0, 6.0),),
        transport_cost=((T.crisp(0.0),),),
    )


@pytest.mark.parametrize(
    "name, levels, expected_cold",
    [
        # every corner optimum is degenerate, and 16 corners tie in c: 2
        # bases, each the one the tableau ends on, answer the 22 corners
        ("demo", 11, 2),
        ("nondegenerate", 21, None),
        ("infeasible_low", 11, None),
    ],
)
def test_warm_results_equal_cold_solves(name, levels, expected_cold, demo_problem, raw_cold_solves):
    p = {
        "demo": demo_problem,
        "nondegenerate": nondegenerate_problem(),
        "infeasible_low": infeasible_low_problem(),
    }[name]
    grid = AlphaGrid.uniform(levels)
    got = solve_fuzzy(p, grid).levels
    want = cold_levels(p, grid)
    assert [(lv.alpha, lv.feasible, lv.repaired) for lv in got] == [
        (lv.alpha, lv.feasible, lv.repaired) for lv in want
    ]
    for g, w in zip(got, want):
        if not w.feasible:
            continue
        assert g.cuts.shape == w.cuts.shape
        for value, cold in zip(g.cuts.ravel().tolist(), w.cuts.ravel().tolist()):
            assert (value == 0.0) == (cold == 0.0)  # same support
            assert abs(value - cold) <= 1e-9 * max(1.0, abs(cold))
    if expected_cold is None:
        assert len(raw_cold_solves) < levels  # most corners certified by the level below
    else:
        assert len(raw_cold_solves) == expected_cold
    if name == "infeasible_low":
        assert not got[0].feasible and got[-1].feasible


@pytest.mark.parametrize("sale_prices", [(5.0, 5.0), (5.0, 6.0)])
def test_tied_optimum_is_certified(sale_prices, raw_cold_solves, tableau_solves):
    # one supplier, two customers with equal crisp sale prices: every
    # split of the supply between them is optimal at every level. The
    # dual lexicographic rule picks one basis of each corner, as the
    # tableau does, so the first corner's proposal answers all 22 corners
    # with the cold solves' values, tied or not
    p = DistributionProblem(
        supply_max=(T(9.0, 10.0, 10.0, 11.0),),
        demand_max=(T.crisp(8.0), T.crisp(8.0)),
        purchase_min=(T.crisp(1.0),),
        sale_min=(T.crisp(1.0), T.crisp(1.0)),
        purchase_price=(T.crisp(1.0),),
        sale_price=tuple(map(T.crisp, sale_prices)),
        transport_cost=((T.crisp(0.0), T.crisp(0.0)),),
    )
    grid = AlphaGrid.uniform(11)
    got = solve_fuzzy(p, grid).levels
    assert len(raw_cold_solves) == 1 and not tableau_solves
    assert_same_levels(got, cold_levels(p, grid))


def repaired_problem():
    # nondegenerate_problem at 3x3 with supplier 0's purchase minimum on
    # its capacity: every pessimistic corner is repaired, no optimistic one
    p = nondegenerate_problem(k=3)
    return replace(p, purchase_min=(p.supply_max[0], *p.purchase_min[1:]))


def test_repaired_corner_is_certified(counted_solves, tableau_solves, monkeypatch):
    # repair sets a clipped minimum to its capacity, so both slacks of that
    # pair are 0 at every feasible point. The proposal's basis holds the
    # contract slack basic at 0, certifies the corner, and no tableau runs
    _, pes = corner_instances(repaired_problem(), 0.0)
    fixed, repaired = repair_bounds(pes)
    assert repaired
    proposals = []
    propose = _BasisCache.propose

    def recorded(cache, c, b):
        proposals.append(propose(cache, c, b))
        return proposals[-1]

    monkeypatch.setattr(_BasisCache, "propose", recorded)
    lp = to_lp(fixed)
    feasible, benefit, x = _BasisCache(fixed.shape).answer(lp.c[None], lp.b[None])
    assert len(proposals) == 1 and proposals[0] is not None
    assert len(counted_solves) == 1 and not tableau_solves
    sol = solve(lp)
    assert feasible[0] and sol.status == "optimal"
    for value, cold in zip([benefit[0], *x[0]], [sol.objective_value, *sol.x]):
        assert (value == 0.0) == (cold == 0.0)  # same support
        assert abs(value - cold) <= 1e-9 * max(1.0, abs(cold))
        assert cli._fmt(value) == cli._fmt(cold)


def test_screened_corners_skip_the_cold_solve(raw_cold_solves):
    # 7 of the pessimistic corners break "total sale_min <= total
    # supply_max"; they are infeasible without a simplex run
    p = infeasible_low_problem()
    grid = AlphaGrid.uniform(11)
    got = solve_fuzzy(p, grid).levels
    assert len(raw_cold_solves) == 2
    assert_same_levels(got, cold_levels(p, grid))


@pytest.mark.parametrize(
    "problem",
    [
        *(nondegenerate_problem(seed=seed) for seed in range(4)),
        infeasible_low_problem(),
        repaired_problem(),
    ],
)
def test_batch_answers_do_not_depend_on_row_order(problem, raw_cold_solves, tableau_solves):
    # solve_fuzzy's outputs rest on this: each row of a batch gets the
    # same bytes wherever it sits in the batch, on a fresh cache, also
    # where repaired (folded) and unrepaired corners mix
    grid = AlphaGrid.uniform(21)
    corners = [
        repair_bounds(corner) for alpha in grid for corner in corner_instances(problem, alpha)
    ]
    lps = [to_lp(corner) for corner, _ in corners]
    c, b = np.array([lp.c for lp in lps]), np.array([lp.b for lp in lps])
    want = _BasisCache(problem.shape).answer(c, b)
    repaired = sum(rep for _, rep in corners)
    if repaired:
        assert repaired < len(corners) and not tableau_solves
    assert len(raw_cold_solves) < want[0].sum()  # bases answered corners besides their own
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = rng.permutation(len(b))
        got = _BasisCache(problem.shape).answer(c[perm], b[perm])
        for g, w in zip(got, want):
            assert g.tobytes() == w[perm].tobytes()


def mixed_problem(rng, m, n, contracts):
    """Crisp, triangular and trapezoidal entries, drawn so that some corners
    need repair and some break a necessary feasibility condition."""

    def entry(center, spread):
        kind = rng.integers(3)
        if kind == 0:
            return T.crisp(float(center))
        a, b, c, d = np.sort(center + spread * rng.uniform(-1.0, 1.0, 4)).tolist()
        return T(a, b, b, d) if kind == 1 else T(a, b, c, d)

    def vector(size, center, spread):
        return tuple(entry(center, spread) for _ in range(size))

    fields = dict(
        supply_max=vector(m, 100.0, 40.0),
        demand_max=vector(n, 100.0, 40.0),
        purchase_min=vector(m, rng.uniform(20.0, 110.0), 30.0),
        sale_min=vector(n, rng.uniform(20.0, 110.0) * m / n, 30.0),
        purchase_price=vector(m, 50.0, 20.0),
        sale_price=vector(n, 150.0, 20.0),
        transport_cost=tuple(vector(n, 30.0, 20.0) for _ in range(m)),
    )
    if contracts:
        fields.update(contract_purchase_price=vector(m, 60.0, 20.0))
        fields.update(contract_sale_price=vector(n, 1e308, 5e307))  # midpoint sum overflows
    return DistributionProblem(**fields)


def mixed_problems():
    rng = np.random.default_rng(2024)
    shapes = [(1, 1), (8, 8), *(tuple(rng.integers(1, 9, 2)) for _ in range(22))]
    return [mixed_problem(rng, int(m), int(n), k % 2 == 0) for k, (m, n) in enumerate(shapes)]


def test_corner_rows_give_the_lps_of_the_corner_instances():
    # the batch (every level's corners, repaired in place, through
    # lp_rows) equals, byte for byte, the one-corner-at-a-time views
    levels = (*AlphaGrid.uniform(11), 0.37, 0.999)
    kinds = {"crisp": 0, "triangular": 0, "repaired": 0, "screened": 0}
    for p in mixed_problems():
        rows = corner_rows(p, levels)
        repaired = fuzzy_solver._repair(p.shape, rows)
        c, b = lp_rows(p.shape, rows)
        corners = [repair_bounds(inst) for alpha in levels for inst in corner_instances(p, alpha)]
        lps = [to_lp(inst) for inst, _ in corners]
        assert c.tobytes() == np.array([lp.c for lp in lps]).tobytes()
        assert b.tobytes() == np.array([lp.b for lp in lps]).tobytes()
        assert repaired.tolist() == [rep for _, rep in corners]
        m, n = p.shape
        screened = np.zeros(len(b), dtype=bool)
        for mask in necessary_violations(*np.split(b, [m, m + n, 2 * m + n], axis=1)):
            screened |= mask.reshape(len(b), -1).any(axis=1)
        kinds["crisp"] += sum(t.a == t.d for t in p.values())
        kinds["triangular"] += sum(t.b == t.c and t.a < t.d for t in p.values())
        kinds["repaired"] += int(repaired.sum())
        kinds["screened"] += int(screened.sum())
    assert all(kinds.values()), kinds


def reference_corners(p, alpha):
    """Each entry's cut end picked one at a time, by its field's direction."""

    def corner(sign):
        def pick(field, index, t):
            lo, hi = map(float, cut_ends(t.a, t.b, t.c, t.d, alpha))
            direction = sign * field.direction
            return hi if direction > 0 else lo if direction < 0 else midpoint(lo, hi)

        return p.map(CrispInstance, pick)

    return corner(+1), corner(-1)


def test_cut_past_the_float_maximum_raises():
    # b - a overflows: one cut or all of them, the error is the same, and
    # numpy's overflow warning does not surface on the way
    wide = T(-1e308, 1e308, 1e308, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^alpha-cut ends must be finite$"):
            cut_ends(wide.a, wide.b, wide.c, wide.d, 0.5)
        with pytest.raises(ValueError, match="^alpha-cut ends must be finite$"):
            solve_fuzzy(single_lane_problem(sale=wide))


def test_corner_instances_pick_each_entrys_cut_end():
    for p in mixed_problems()[:8]:
        for alpha in (0.0, 0.25, 0.6, 1.0):
            got, want = corner_instances(p, alpha), reference_corners(p, alpha)
            for g, w in zip(got, want):
                assert np.array(list(g.values())).tobytes() == np.array(list(w.values())).tobytes()
