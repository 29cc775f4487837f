import dataclasses
import functools
import math
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyplan.basis import _BasisCache
from fuzzyplan.cli import parse_problem
from fuzzyplan.fuzzy import TrapezoidalFuzzyNumber
from fuzzyplan.fuzzy_solver import solve_fuzzy
from fuzzyplan.ingest import gaussian_to_trapezoid
from fuzzyplan.model import CrispInstance, DistributionProblem, lp_rows, to_lp
import fuzzyplan.monte_carlo as monte_carlo
from fuzzyplan.monte_carlo import (
    CHUNK,
    GaussianSpec,
    ParameterSpecs,
    compare,
    finalize,
    merge_partials,
    run,
    run_range,
    sample_instance,
)
from fuzzyplan.simplex import solve

from conftest import DEMO, DEMO_OPTIMUM
from oracles import residuals

T = TrapezoidalFuzzyNumber


def single_lane_specs(sigma=10.0):
    z = GaussianSpec(0.0, 0.0)
    return ParameterSpecs(
        supply_max=(GaussianSpec(460.0, sigma),),
        demand_max=(GaussianSpec(460.0, sigma),),
        purchase_min=(z,),
        sale_min=(z,),
        purchase_price=(z,),
        sale_price=(GaussianSpec(100.0, 0.0),),
        transport_cost=((z,),),
    )


@pytest.fixture
def table1_specs():
    table1 = files("fuzzyplan").joinpath("data/table1.json")
    return ParameterSpecs.from_problem(parse_problem(str(table1)))


@pytest.fixture
def demo_specs(demo_problem):
    return ParameterSpecs.from_problem(demo_problem)


@pytest.fixture
def demo_crisp_specs(demo_crisp_problem):
    return ParameterSpecs.from_problem(demo_crisp_problem)


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianSpec(float("nan"), 1.0)


def test_from_problem_inverts_gaussian_construction(demo_problem):
    specs = ParameterSpecs.from_problem(demo_problem)
    assert specs.supply_max[0].mean == pytest.approx(460.0, abs=1e-9)
    assert specs.supply_max[0].sigma == pytest.approx(10.0, abs=1e-9)
    assert specs.transport_cost[1][2].mean == pytest.approx(405.0, abs=1e-9)
    assert specs.transport_cost[1][2].sigma == pytest.approx(10.0, abs=1e-9)
    assert specs.contract_sale_price[2].mean == pytest.approx(1197.0, abs=1e-9)


def test_from_problem_crisp_gives_zero_sigma(demo_crisp_specs):
    for spec in demo_crisp_specs.supply_max + demo_crisp_specs.sale_price:
        assert spec.sigma == 0.0


def test_sample_instance_degenerate_equals_means(demo_crisp_specs, demo_means):
    inst = sample_instance(demo_crisp_specs, 42, 7)
    assert inst == demo_means


def test_sample_instance_deterministic(demo_specs):
    a = sample_instance(demo_specs, 42, 3)
    b = sample_instance(demo_specs, 42, 3)
    assert a == b
    c = sample_instance(demo_specs, 42, 4)
    assert a != c
    d = sample_instance(demo_specs, 43, 3)
    assert a != d


# Exact draws for the bundled table1 specs. The draw order (supplies,
# demands, purchase minimums, sale minimums, purchase prices, sale
# prices, transport costs row by row, contract prices) is part of the
# (seed, index) reproducibility contract; reordering it fails here.
TABLE1_DRAWS = {
    0: dict(
        supply_max=(463.0471707975443, 449.60015893759504, 617.5045119580645),
        demand_max=(419.40564716391214, 490.4896481134616, 596.9782049313768),
        purchase_min=(441.27840403167284, 436.8375740765642, 589.8319884249571),
        sale_min=(381.4695607242642, 498.79397974862826, 597.7779193542895),
        purchase_price=(590.6603069756121, 491.27241206968034, 574.6750934225205),
        sale_price=(981.4070753711676, 1103.687507840825, 1170.41117399171),
        transport_cost=(
            (108.78450301307272, 29.50074089013747, 98.15137636454739),
            (103.19070455596058, 48.22541338674031, 403.454705179312),
            (115.71672177836894, 144.4786644951177, 16.323091855533487),
        ),
        contract_purchase_price=(603.6544406436408, 495.1273261159599, 585.3082100300788),
        contract_sale_price=(1021.4164760087046, 1125.935849836154, 1191.8775727092846),
    ),
    9999: dict(
        supply_max=(443.0676252729903, 472.3985788379115, 602.5855947737041),
        demand_max=(411.5196011465448, 520.0438874843543, 612.619376993776),
        purchase_min=(419.96244754283225, 451.2705206190844, 586.0908816950397),
        sale_min=(386.948811501506, 493.89646496469015, 601.0748966449946),
        purchase_price=(588.1839716801459, 483.35217054205583, 561.0424185541367),
        sale_price=(974.2093475074045, 1102.7958817025512, 1177.3138689632935),
        transport_cost=(
            (95.56774250285848, 35.98993798436149, 91.07808054146207),
            (100.57760078165401, 37.511317928737796, 412.6828892862544),
            (133.6787747383154, 157.40774883529917, 23.771169682381192),
        ),
        contract_purchase_price=(606.4162917100464, 496.74558413650686, 584.8207118632299),
        contract_sale_price=(990.9447360614096, 1146.0430365465622, 1222.707353902528),
    ),
}


@pytest.mark.parametrize("index", sorted(TABLE1_DRAWS))
def test_sample_instance_table1_draws_pinned(index):
    table1 = files("fuzzyplan").joinpath("data/table1.json")
    specs = ParameterSpecs.from_problem(parse_problem(str(table1)))
    assert sample_instance(specs, 42, index) == CrispInstance(**TABLE1_DRAWS[index])


def test_batch_draws_match_sample_instance(table1_specs):
    # a run of `stop` steps draws two chunks: [0, CHUNK) and [CHUNK, stop)
    stop = CHUNK + 300
    first = monte_carlo._draws(table1_specs, 42, 0, CHUNK)
    second = monte_carlo._draws(table1_specs, 42, CHUNK, stop)
    for draws, row, index in [
        (first, 0, 0),
        (first, -1, CHUNK - 1),
        (second, 0, CHUNK),
        (second, -1, stop - 1),
    ]:
        want = np.array(list(sample_instance(table1_specs, 42, index).values()))
        assert np.array_equal(draws[row], want)


@pytest.mark.parametrize("seed", [0, 83, 2**63, 2**128 + 5])
@pytest.mark.parametrize(
    "start, stop, rows",
    [
        (0, CHUNK + 2, [0, CHUNK - 1, CHUNK, CHUNK + 1]),
        (2**32 - 3, 2**32 + 3, range(6)),  # the index gains a 32-bit word
        (2**64 - 2, 2**64 + 2, range(4)),
    ],
)
@pytest.mark.parametrize("specs_name", ["table1", "some sigmas zero"])
def test_batch_draws_equal_default_rng(specs_name, seed, start, stop, rows, table1_specs):
    # seed 2**128 + 5 alone is five entropy words, more than the 4-word pool
    specs = table1_specs if specs_name == "table1" else single_lane_specs(sigma=3.0)
    means, sigmas = specs.moments
    draws = monte_carlo._draws(specs, seed, start, stop)
    assert draws.shape == (stop - start, means.size)
    for row in rows:
        want = np.random.default_rng((seed, start + row)).normal(means, sigmas)
        assert np.array_equal(draws[row], want), (seed, start + row)


def test_run_range_rejects_negative_seed(demo_specs):
    with pytest.raises(ValueError, match="seed >= 0"):
        run_range(demo_specs, 0, 5, -1)


def test_batch_draws_reject_non_finite():
    specs = single_lane_specs(sigma=1e308)
    with pytest.raises(ValueError, match="finite"):
        run_range(specs, 0, 20, 0)


def test_sample_moments_match_spec():
    specs = single_lane_specs(sigma=10.0)
    vals = np.array(
        [sample_instance(specs, 11, i).supply_max[0] for i in range(60_000)]
    )
    assert vals.mean() == pytest.approx(460.0, abs=0.2)
    assert vals.std(ddof=1) == pytest.approx(10.0, abs=0.2)


def test_run_rejects_zero_steps(demo_specs):
    with pytest.raises(ValueError):
        run(demo_specs, 0)


def test_run_degenerate_specs(demo_crisp_specs):
    res = run(demo_crisp_specs, 50, seed=1)
    assert res.feasible_count == 50
    assert res.infeasible_count == 0
    assert res.benefit_mean == pytest.approx(DEMO_OPTIMUM, abs=1e-6)
    assert res.benefit_std == 0.0
    hist = res.benefit_histogram
    assert len(hist.counts) == 1
    assert sum(hist.counts) == 50
    assert hist.bin_edges[0] <= DEMO_OPTIMUM <= hist.bin_edges[-1]


def test_run_counts_and_histogram_mass(demo_specs):
    res = run(demo_specs, 200, seed=42)
    assert res.feasible_count + res.infeasible_count == 200
    assert res.infeasible_count > 0  # no repair on this path, wide draws do fail
    assert sum(res.benefit_histogram.counts) == res.feasible_count
    for hist in res.shipment_histograms:
        assert sum(hist.counts) == res.feasible_count


def test_run_deterministic(demo_specs):
    assert run(demo_specs, 60, seed=9) == run(demo_specs, 60, seed=9)


def test_partial_runs_merge(demo_specs):
    whole = run_range(demo_specs, 0, 30, 42)
    left = run_range(demo_specs, 0, 12, 42)
    right = run_range(demo_specs, 12, 30, 42)
    merged = merge_partials([left, right])
    assert merged == whole
    assert finalize(merged) == finalize(whole)
    assert finalize(whole) == run(demo_specs, 30, seed=42)


def test_split_runs_merge_exactly(table1_specs):
    # the cuts cross a chunk boundary; each part has its own basis cache
    whole = run_range(table1_specs, 0, 3000, 7)
    cuts = [0, 1000, 1777, 3000]
    parts = [run_range(table1_specs, a, b, 7) for a, b in zip(cuts, cuts[1:])]
    assert merge_partials(parts) == whole


SHARD_STEPS = 2600  # three chunks, the last one partial


@functools.cache
def _table1_whole_run():
    table1 = files("fuzzyplan").joinpath("data/table1.json")
    specs = ParameterSpecs.from_problem(parse_problem(str(table1)))
    return specs, run_range(specs, 0, SHARD_STEPS, 3)


cut = st.integers(0, SHARD_STEPS) | st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK])


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(cuts=st.lists(cut, max_size=4).map(sorted))
def test_any_shard_cuts_merge_to_one_run(cuts):
    # cuts may repeat (an empty shard) and fall on or off chunk edges;
    # every shard starts with an empty basis cache
    specs, whole = _table1_whole_run()
    bounds = [0, *cuts, SHARD_STEPS]
    parts = [run_range(specs, a, b, 3) for a, b in zip(bounds, bounds[1:])]
    assert merge_partials(parts) == whole


def _support(x):
    return tuple(k for k, v in enumerate(x) if v != 0.0)


@pytest.mark.parametrize("specs_name, seed", [("table1", 1), ("table1", 42), ("demo", 5)])
def test_certified_results_agree_with_cold_solves(
    specs_name, seed, table1_specs, demo_specs, counted_solves
):
    specs = table1_specs if specs_name == "table1" else demo_specs
    part = run_range(specs, 0, 2000, seed)
    assert len(counted_solves) < 100  # most answers come from cached bases
    cold = [solve(to_lp(sample_instance(specs, seed, index))) for index in range(2000)]
    optimal = [sol for sol in cold if sol.status == "optimal"]
    assert part.infeasible_count == len(cold) - len(optimal)
    assert len(part.benefits) == len(optimal)
    for sol, benefit, x in zip(optimal, part.benefits, part.shipments):
        assert _support(x) == _support(sol.x)
        for got, want in zip(x, sol.x):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert abs(benefit - sol.objective_value) <= 1e-9 * abs(sol.objective_value)


def test_table1_cold_solve_count_pinned(table1_specs, counted_solves):
    # the Monte Carlo run of the mc-table1 benchmark workload at seed 1.
    # Any change to the screen, the certificate or which bases the cache
    # keeps moves this count; the benchmark's tracer does not see it
    run_range(table1_specs, 0, 10_000, 1)
    assert len(counted_solves) == 71


@pytest.mark.parametrize(
    "sale_prices, cold_solves, tableau", [((5.0, 5.0), 3, 3), ((5.0, 6.0), 1, 0)]
)
def test_tied_optimum_is_not_certified(
    sale_prices, cold_solves, tableau, counted_solves, tableau_solves
):
    # equal lane profits: every point between (8, 2) and (2, 8) is
    # optimal and both vertices are nondegenerate; no cached or proposed
    # basis may answer, so every step is today's tableau solve
    def fixed(*values):
        return tuple(GaussianSpec(v, 0.0) for v in values)

    specs = ParameterSpecs(
        supply_max=fixed(10.0),
        demand_max=fixed(8.0, 8.0),
        purchase_min=fixed(1.0),
        sale_min=fixed(1.0, 1.0),
        purchase_price=fixed(1.0),
        sale_price=fixed(*sale_prices),
        transport_cost=(fixed(0.0, 0.0),),
    )
    part = run_range(specs, 0, 3, 0)
    assert len(counted_solves) == cold_solves
    assert len(tableau_solves) == tableau
    if cold_solves == 3:
        sol = solve(to_lp(sample_instance(specs, 0, 0)))
        assert part.benefits == (sol.objective_value,) * 3
        assert part.shipments == (sol.x,) * 3


def test_cache_keeps_only_bases_that_answer_other_steps():
    # one supplier, two customers, no noise: every step is one scenario.
    # Customer 2 pays more, so the optimum fills lane 2 and sends the
    # rest down lane 1; the basis of the mirrored prices never fits.
    def specs(sale_prices):
        def fixed(*values):
            return tuple(GaussianSpec(v, 0.0) for v in values)

        return ParameterSpecs(
            supply_max=fixed(10.0),
            demand_max=fixed(8.0, 8.0),
            purchase_min=fixed(1.0),
            sale_min=fixed(1.0, 1.0),
            purchase_price=fixed(1.0),
            sale_price=fixed(*sale_prices),
            transport_cost=(fixed(0.0, 0.0),),
        )

    here, mirrored = specs((5.0, 6.0)), specs((6.0, 5.0))
    cache = _BasisCache(here.shape)
    other = solve(to_lp(sample_instance(mirrored, 0, 0)))
    stale = cache.learn(np.array(other.x), np.array([10.0, 8.0, 8.0, 1.0, 1.0, 1.0]))
    assert stale is not None
    _, _, x = cache.answer(*lp_rows(here.shape, monte_carlo._draws(here, 0, 0, 5)))
    assert [tuple(ship) for ship in x.tolist()] == [(2.0, 8.0)] * 5
    # the stale basis (supply and customer 1 tight: slacks 2 and 3 out)
    # answered nothing; the new one (slacks 2 and 4 out) answered steps 1 to 4
    assert stale.basic.tolist() == [0, 1, 4, 5, 6, 7]
    assert [basis.basic.tolist() for basis in cache.bases.values()] == [[0, 1, 3, 5, 6, 7]]
    # a basis that answers only the step it was learned from is dropped
    cache = _BasisCache(here.shape)
    cache.answer(*lp_rows(here.shape, monte_carlo._draws(here, 0, 0, 1)))
    assert cache.bases == {}


@pytest.mark.parametrize("excess, feasible", [(5e-8, True), (5e-7, False)])
def test_screen_tolerance(demo_crisp_specs, excess, feasible, counted_solves):
    first = demo_crisp_specs.supply_max[0].mean + excess
    purchase_min = (GaussianSpec(first, 0.0),) + demo_crisp_specs.purchase_min[1:]
    specs = dataclasses.replace(demo_crisp_specs, purchase_min=purchase_min)
    res = run(specs, 5, seed=0)
    assert res.feasible_count == (5 if feasible else 0)
    assert res.infeasible_count == (0 if feasible else 5)
    if not feasible:
        assert counted_solves == []  # screened out, never solved


def test_merge_validation(demo_specs):
    a = run_range(demo_specs, 0, 5, 42)
    b = run_range(demo_specs, 6, 10, 42)
    with pytest.raises(ValueError):
        merge_partials([a, b])
    c = run_range(demo_specs, 5, 10, 43)
    with pytest.raises(ValueError):
        merge_partials([a, c])
    with pytest.raises(ValueError, match="at least one partial run"):
        merge_partials([])


def test_feasible_samples_satisfy_their_scenarios(demo_specs):
    part = run_range(demo_specs, 0, 80, 42)
    checked = 0
    feasible_iter = iter(zip(part.benefits, part.shipments))
    for index in range(80):
        inst = sample_instance(demo_specs, 42, index)
        lp = to_lp(inst)
        if solve(lp).status != "optimal":
            continue
        benefit, x = next(feasible_iter)
        assert residuals(lp, x) <= 1e-7
        checked += 1
    assert checked == part.stop - part.start - part.infeasible_count


def test_all_infeasible_run():
    z = GaussianSpec(0.0, 0.0)
    specs = ParameterSpecs(
        supply_max=(GaussianSpec(5.0, 0.0),),
        demand_max=(GaussianSpec(10.0, 0.0), GaussianSpec(10.0, 0.0)),
        purchase_min=(z,),
        sale_min=(GaussianSpec(8.0, 0.0), GaussianSpec(8.0, 0.0)),
        purchase_price=(z,),
        sale_price=(GaussianSpec(2.0, 0.0), GaussianSpec(2.0, 0.0)),
        transport_cost=((z, z),),
    )
    res = run(specs, 10, seed=0)
    assert res.feasible_count == 0
    assert res.infeasible_count == 10
    assert res.benefit_histogram is None


def test_compare_degenerate_convention(demo_crisp_problem, demo_crisp_specs):
    fz = solve_fuzzy(demo_crisp_problem)
    mc = run(demo_crisp_specs, 40, seed=3)
    report = compare(fz, mc)
    d = report.entries[0]
    assert d.name == "D"
    assert d.width_ratio == 1.0
    assert d.mc_inside_fuzzy
    assert d.fuzzy.b == pytest.approx(DEMO_OPTIMUM, abs=1e-6)
    assert d.mc.b == pytest.approx(DEMO_OPTIMUM, abs=0.01)
    assert len(report.entries) == 1 + 9
    assert report.entry("x_11").width_ratio == 1.0
    with pytest.raises(KeyError):
        report.entry("x_99")


def test_compare_demo(demo_problem, demo_specs):
    fz = solve_fuzzy(demo_problem)
    mc = run(demo_specs, 400, seed=42)
    report = compare(fz, mc)
    d = report.entry("D")
    assert d.fuzzy_support_width > 0
    assert d.mc_support_width > 0
    assert d.width_ratio > 1.0
    assert d.mc_inside_fuzzy
    assert mc.benefit_mean is not None
    core_lo, core_hi = fz.level_at(1.0).cuts[0]
    assert core_lo <= mc.benefit_mean <= core_hi


def test_compare_shape_mismatch(demo_problem, demo_specs):
    fz = solve_fuzzy(demo_problem)
    lane = run(single_lane_specs(0.0), 5, seed=1)
    with pytest.raises(ValueError, match="3, 3"):
        compare(fz, lane)


def test_histogram_binning_spread():
    # wide spread with 10k samples wants more than the 20-bin floor
    rng = np.random.default_rng(5)
    from fuzzyplan.monte_carlo import _histogram

    hist = _histogram(rng.normal(0, 1, 10_000))
    assert len(hist.counts) >= 20
    assert sum(hist.counts) == 10_000
    tiny = _histogram(np.array([3.0, 3.0, 3.0]))
    assert len(tiny.counts) == 1
    assert math.isclose(sum(tiny.counts), 3.0)
