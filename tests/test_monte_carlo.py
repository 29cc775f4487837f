import dataclasses
import functools
import json
import math
import warnings
from importlib.resources import files
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyplan.basis import _BasisCache
from fuzzyplan.cli import parse_problem
from fuzzyplan.fuzzy import AlphaGrid, TrapezoidalFuzzyNumber
from fuzzyplan.fuzzy_solver import solve_fuzzy
from fuzzyplan.ingest import gaussian_to_trapezoid
from fuzzyplan.intervals import midpoint
from fuzzyplan.model import CrispInstance, DistributionProblem, lp_rows, midpoint_instance, to_lp
import fuzzyplan.monte_carlo as monte_carlo
from fuzzyplan.monte_carlo import (
    GaussianSpec,
    McResult,
    ParameterSpecs,
    compare,
    finalize,
    merge_partials,
    run,
    run_range,
    sample_instance,
)
from fuzzyplan.simplex import reoptimize, solve

from conftest import DEMO, DEMO_OPTIMUM
from oracles import residuals, step_draws

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


@functools.cache
def _table1_specs():
    table1 = files("fuzzyplan").joinpath("data/table1.json")
    return ParameterSpecs.from_problem(parse_problem(str(table1)))


# the steps per block of table1's draws, and of a run's batches
TABLE1_BLOCK = monte_carlo._block_steps(_table1_specs())


@pytest.fixture
def table1_specs():
    return _table1_specs()


@pytest.fixture
def demo_specs(demo_problem):
    return ParameterSpecs.from_problem(demo_problem)


@pytest.fixture
def demo_crisp_specs(demo_crisp_problem):
    return ParameterSpecs.from_problem(demo_crisp_problem)


def test_spec_validation():
    # a spec and a Gaussian trapezoid refuse the same pairs with one message
    for mean, sigma in [(0.0, -1.0), (float("nan"), 1.0), (1.0, float("inf"))]:
        message = f"need finite mean and sigma >= 0, got ({mean}, {sigma})"
        for make in (GaussianSpec, gaussian_to_trapezoid):
            with pytest.raises(ValueError) as exc:
                make(mean, sigma)
            assert str(exc.value) == message


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
# Step 0 is the first 33 normals of default_rng((42, 0)); step 9999 is
# row 9999 % 3030 = 909 of block 3's generator, default_rng((42, 3)).
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
        supply_max=(477.7062318783477, 455.30413604115915, 615.9202033265781),
        demand_max=(411.2581636807924, 500.5401129859154, 589.4369443472988),
        purchase_min=(446.7086371866738, 433.5658827035796, 585.2529019786763),
        sale_min=(391.82678490351094, 493.8647897608223, 586.3550260974996),
        purchase_price=(588.3620061959289, 478.5416217352417, 552.6813333813346),
        sale_price=(991.5228986732471, 1095.3352010217368, 1178.7957281706806),
        transport_cost=(
            (115.29686803860162, 45.13562597478081, 91.77441832795986),
            (99.33366662451269, 33.570195689591664, 390.1490270630593),
            (131.88419930301305, 131.73237793493976, 14.541604437574605),
        ),
        contract_purchase_price=(584.0042994501341, 497.8298277855147, 605.1586412736897),
        contract_sale_price=(996.1259553887113, 1131.3866229137773, 1198.3985570455814),
    ),
}


@pytest.mark.parametrize("index", sorted(TABLE1_DRAWS))
def test_sample_instance_table1_draws_pinned(index):
    table1 = files("fuzzyplan").joinpath("data/table1.json")
    specs = ParameterSpecs.from_problem(parse_problem(str(table1)))
    assert sample_instance(specs, 42, index) == CrispInstance(**TABLE1_DRAWS[index])


def test_batch_draws_match_the_step_definition(table1_specs):
    # a run of `stop` steps draws two blocks: [0, block) and [block, stop)
    block = TABLE1_BLOCK
    stop = block + 300
    first = monte_carlo._draws(table1_specs, 42, 0, block)
    second = monte_carlo._draws(table1_specs, 42, block, stop)
    for draws, row, index in [
        (first, 0, 0),
        (first, -1, block - 1),
        (second, 0, block),
        (second, -1, stop - 1),
    ]:
        assert draws[row].tolist() == step_draws(table1_specs, 42, index, block)


@pytest.mark.parametrize("seed", [0, 83, 2**63, 2**128 + 5])
@pytest.mark.parametrize(
    "start, stop, rows",
    [
        (0, TABLE1_BLOCK + 2, [0, TABLE1_BLOCK - 1, TABLE1_BLOCK, TABLE1_BLOCK + 1]),
        (2**32 - 3, 2**32 + 3, range(6)),  # the index gains a 32-bit word
        (2**64 - 2, 2**64 + 2, range(4)),
    ],
)
@pytest.mark.parametrize("specs_name", ["table1", "some sigmas zero"])
def test_batch_draws_equal_the_block_definition(specs_name, seed, start, stop, rows, table1_specs):
    # step i is row i % B of block i // B: the last two ranges start and
    # end inside a block. seed 2**128 + 5 alone is five entropy words,
    # more than SeedSequence's 4-word pool
    specs = table1_specs if specs_name == "table1" else single_lane_specs(sigma=3.0)
    block = monte_carlo._block_steps(specs)
    draws = monte_carlo._draws(specs, seed, start, stop)
    assert draws.shape == (stop - start, specs.moments[0].size)
    for row in rows:
        index = start + row
        assert draws[row].tolist() == step_draws(specs, seed, index, block), (seed, index)
        assert list(sample_instance(specs, seed, index).values()) == draws[row].tolist()


@pytest.mark.parametrize("block", [1, 7])
def test_batch_draws_cross_many_blocks(block, demo_specs):
    # blocks of 1 and 7 steps: a range that starts and ends inside a block
    # and crosses several gives each step its own block's row, by the
    # definition of a step's draws, and other blocks give other draws
    parameters = demo_specs.moments[0].size
    default = monte_carlo._draws(demo_specs, 5, 3, 40)
    with mock.patch.object(monte_carlo, "BLOCK_VALUES", block * parameters + block - 1):
        assert monte_carlo._block_steps(demo_specs) == block
        draws = monte_carlo._draws(demo_specs, 5, 3, 40)
        for row, index in enumerate(range(3, 40)):
            assert draws[row].tolist() == step_draws(demo_specs, 5, index, block)
    assert np.array_equal(draws[0], default[0]) == (block > 3)
    assert not np.array_equal(draws[-1], default[-1])


def test_run_range_rejects_negative_seed(demo_specs):
    with pytest.raises(ValueError, match="seed >= 0"):
        run_range(demo_specs, 0, 5, -1)


def test_batch_draws_reject_non_finite():
    specs = single_lane_specs(sigma=1e308)
    with pytest.raises(ValueError, match="finite"):
        run_range(specs, 0, 20, 0)


def test_sample_moments_match_spec():
    specs = single_lane_specs(sigma=10.0)
    vals = monte_carlo._draws(specs, 11, 0, 60_000)[:, 0]  # supply_max[0]
    assert vals.mean() == pytest.approx(460.0, abs=0.2)
    assert vals.std(ddof=1) == pytest.approx(10.0, abs=0.2)


def test_run_rejects_zero_steps(demo_specs):
    with pytest.raises(ValueError):
        run(demo_specs, 0)


def test_run_degenerate_specs(demo_crisp_specs):
    res = run(demo_crisp_specs, 50, seed=1)
    assert res.feasible_count == 50
    assert res.infeasible_count == 0
    assert res.means[0] == pytest.approx(DEMO_OPTIMUM, abs=1e-6)
    assert res.stds[0] == 0.0
    hist = res.histograms[0]
    assert len(hist.counts) == 1
    assert sum(hist.counts) == 50
    assert hist.bin_edges[0] <= DEMO_OPTIMUM <= hist.bin_edges[-1]


def test_run_counts_and_histogram_mass(demo_specs):
    res = run(demo_specs, 200, seed=42)
    assert res.feasible_count + res.infeasible_count == 200
    assert res.infeasible_count > 0  # no repair on this path, wide draws do fail
    assert sum(res.histograms[0].counts) == res.feasible_count
    for hist in res.histograms[1:]:
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
    # the cuts cross a block boundary; each part has its own basis cache
    block = TABLE1_BLOCK
    whole = run_range(table1_specs, 0, 3 * block - 72, 7)
    cuts = [0, block - 24, block + 753, 3 * block - 72]
    parts = [run_range(table1_specs, a, b, 7) for a, b in zip(cuts, cuts[1:])]
    assert merge_partials(parts) == whole


SHARD_STEPS = 2 * TABLE1_BLOCK + 552  # three blocks, the last one partial


@functools.cache
def _table1_whole_run():
    specs = _table1_specs()
    return specs, run_range(specs, 0, SHARD_STEPS, 3)


edges = [TABLE1_BLOCK - 1, TABLE1_BLOCK, TABLE1_BLOCK + 1, 2 * TABLE1_BLOCK]
inside = [1, TABLE1_BLOCK // 2, TABLE1_BLOCK + 909, 2 * TABLE1_BLOCK + 551]
cut = st.integers(0, SHARD_STEPS) | st.sampled_from(edges) | st.sampled_from(inside)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(cuts=st.lists(cut, max_size=4).map(sorted))
@example(cuts=inside[1:])
def test_any_shard_cuts_merge_to_one_run(cuts):
    # cuts may repeat (an empty shard) and fall on block edges
    # or inside a block, where a shard starts or ends partway through a
    # generator's rows; every shard starts with an empty basis cache
    specs, whole = _table1_whole_run()
    bounds = [0, *cuts, SHARD_STEPS]
    parts = [run_range(specs, a, b, 3) for a, b in zip(bounds, bounds[1:])]
    assert merge_partials(parts) == whole



def test_balanced_capacities_merge_exactly(table1_specs, tableau_solves):
    # table1's capacities total 1,530 on both sides: at sigma 0 every
    # scenario stays balanced, and where every node ships at capacity
    # its optimum is degenerate without a folded pair. The cuts cross a
    # block boundary; each shard starts with an empty basis cache. Of
    # the 16 cold rows, 4 take the tableau; a warm start from a stored
    # basis certifies the other 12, and no proposal does
    fixed = {
        field: tuple(GaussianSpec(spec.mean, 0.0) for spec in getattr(table1_specs, field))
        for field in ("supply_max", "demand_max")
    }
    specs = dataclasses.replace(table1_specs, **fixed)
    cuts = [0, 300, TABLE1_BLOCK + 7, TABLE1_BLOCK + 40]
    parts = [run_range(specs, a, b, 11) for a, b in zip(cuts, cuts[1:])]
    assert merge_partials(parts) == run_range(specs, 0, cuts[-1], 11)
    assert len(tableau_solves) == 4


def random_specs(rng, m, n) -> ParameterSpecs:
    """Gaussian specs of an m x n problem. A purchase minimum may exceed
    its supplier's capacity, so some specs give infeasible scenarios."""

    def specs(lo, hi, size):
        means = rng.uniform(lo, hi, size)
        return tuple(GaussianSpec(mean, sigma) for mean, sigma in zip(means, 0.1 * means))

    return ParameterSpecs(
        supply_max=specs(200.0, 400.0, m),
        demand_max=specs(150.0, 300.0, n),
        purchase_min=specs(0.0, 250.0, m),
        sale_min=specs(0.0, 80.0, n),
        purchase_price=specs(400.0, 600.0, m),
        sale_price=specs(800.0, 1200.0, n),
        transport_cost=tuple(specs(10.0, 400.0, n) for _ in range(m)),
    )


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("problem", ["table1", "random 4x5"])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    spec_seed=st.integers(0, 2**32 - 1),
    first_block=st.integers(0, 10**5),
    offset=st.integers(1, 6),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**64),
)
def test_a_range_equals_its_one_step_ranges(
    problem, block, spec_seed, first_block, offset, steps, seed
):
    # blocks of 1 and 7 steps; a range of 7-step blocks starts inside
    # one, so its first batch draws and drops that block's leading rows.
    # Batched by block or step by step, each on its own basis cache, the
    # bytes are the same: every answer is a function of (seed, index)
    if problem == "table1":
        specs = _table1_specs()
    else:
        specs = random_specs(np.random.default_rng(spec_seed), 4, 5)
    parameters = specs.moments[0].size
    start = first_block * block + offset % block
    with mock.patch.object(monte_carlo, "BLOCK_VALUES", block * parameters + block - 1):
        assert monte_carlo._block_steps(specs) == block
        whole = run_range(specs, start, start + steps, seed)
        single = [run_range(specs, i, i + 1, seed) for i in range(start, start + steps)]
    assert merge_partials(single) == whole


@pytest.mark.parametrize(
    "start, stop, batches",
    [(3, 40, [4, 7, 7, 7, 7, 5]), (7, 14, [7]), (0, 3, [3]), (5, 5, []), (7, 7, [])],
)
def test_run_range_answers_one_batch_per_block_part(start, stop, batches, demo_specs):
    # blocks of 7 steps: one answer call per block part of the range,
    # and none for an empty range, whose 0 rows lp_rows would refuse
    parameters = demo_specs.moments[0].size
    answer = _BasisCache.answer
    rows = []

    def counted(cache, c, b):
        rows.append(len(c))
        return answer(cache, c, b)

    with mock.patch.object(monte_carlo, "BLOCK_VALUES", 7 * parameters + 6):
        with mock.patch.object(_BasisCache, "answer", counted):
            part = run_range(demo_specs, start, stop, 42)
    assert rows == batches
    assert (part.start, part.stop, part.values.shape[1]) == (start, stop, 1 + 9)


def test_block_steps_count_drawn_values(table1_specs):
    # 33 parameters a step at 3x3, 315 at 15x15; never less than one step
    assert table1_specs.moments[0].size == 33
    assert TABLE1_BLOCK == monte_carlo.BLOCK_VALUES // 33
    wide = random_specs(np.random.default_rng(0), 15, 15)
    assert wide.moments[0].size == 315
    assert monte_carlo._block_steps(wide) == monte_carlo.BLOCK_VALUES // 315
    with mock.patch.object(monte_carlo, "BLOCK_VALUES", 314):
        assert monte_carlo._block_steps(wide) == 1


def test_partial_run_holds_read_only_arrays_equal_bit_for_bit(demo_specs):
    part = run_range(demo_specs, 0, 40, 42)
    feasible = len(part.values)
    assert 0 < feasible < 40
    assert part.values.dtype == np.float64
    assert part.values.shape == (feasible, 1 + 9)
    with pytest.raises(ValueError, match="read-only"):
        part.values[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        part.values[0, 1] = 0.0
    assert part == run_range(demo_specs, 0, 40, 42)
    assert (part.values[:, 1:] == 0.0).any()
    for changed in [
        part.values.astype(np.float32).astype(np.float64),  # other values
        part.values.astype(np.longdouble),  # other dtype
        part.values.reshape(-1),  # other shape, same bytes
        np.where(part.values == 0.0, -0.0, part.values),  # equal values
    ]:
        assert dataclasses.replace(part, values=changed) != part
    nan = dataclasses.replace(part, values=np.full((feasible, 10), np.nan))
    assert nan == dataclasses.replace(part, values=np.full((feasible, 10), np.nan))


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
    assert part.stop - part.start - len(part.values) == len(cold) - len(optimal)
    assert len(part.values) == len(optimal)
    for sol, (benefit, *x) in zip(optimal, part.values):
        assert _support(x) == _support(sol.x)
        for got, want in zip(x, sol.x):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert abs(benefit - sol.objective_value) <= 1e-9 * abs(sol.objective_value)


def test_table1_cold_solve_count_pinned(table1_specs, counted_solves, engine_counts):
    # the Monte Carlo run of the mc-table1 benchmark workload at seed 1.
    # Any change to the screen, the certificate or which bases the cache
    # keeps moves the cold count; the engines only change who answers a
    # cold row. The benchmark's tracer sees none of these counts
    run_range(table1_specs, 0, 10_000, 1)
    assert len(counted_solves) == 44
    assert engine_counts() == {
        "cold": 44, "warm": 34, "phase 2": 34, "proposed": 10, "tableau": 0, "certify": 164
    }


@pytest.mark.parametrize("problem, steps", [("table1", 3000), ("random 15x15", 120)])
def test_proposer_out_of_pivots_leaves_rows_to_the_tableau(
    problem, steps, table1_specs, monkeypatch, engine_counts
):
    # where MODI runs out of pivots, propose returns None and the row goes
    # on to the tableau, whose answer the certificate makes the same
    specs = table1_specs if problem == "table1" else random_specs(np.random.default_rng(15), 15, 15)
    c, b = lp_rows(specs.shape, monte_carlo._draws(specs, 1, 0, steps))
    want = [a.tobytes() for a in _BasisCache(specs.shape).answer(c, b)]
    before = engine_counts()
    assert before["proposed"] > 0 and before["tableau"] == 0
    monkeypatch.setattr("fuzzyplan.basis.modi_optimize", lambda costs, x, cells: None)
    assert [a.tobytes() for a in _BasisCache(specs.shape).answer(c, b)] == want
    after = engine_counts()
    assert after["tableau"] == after["proposed"] - before["proposed"] > 0


def test_table1_warm_starts_each_pivot_from_one_store(table1_specs, monkeypatch):
    # every basis the cache stores was tested on every row still pending,
    # so a warm start from one never ends where it began: the mc-table1
    # run at seed 1 makes 34 phase 2 runs, none of 0 pivots. After every
    # batch the store holds each basis once, its inverse as int8 entries
    # 0 and ±1
    pivots = []

    def counted(*args):
        sol = reoptimize(*args)
        pivots.append(sol.iterations)
        return sol

    answer = _BasisCache.answer

    def checked(cache, c, b):
        result = answer(cache, c, b)
        for basis in cache.bases:
            assert basis.inverse.dtype == np.int8
            assert set(np.unique(basis.inverse).tolist()) <= {-1, 0, 1}
        keys = [basis.basic.tobytes() for basis in cache.bases]
        assert len(set(keys)) == len(keys)
        return result

    monkeypatch.setattr("fuzzyplan.basis.reoptimize", counted)
    monkeypatch.setattr(_BasisCache, "answer", checked)
    run_range(table1_specs, 0, 10_000, 1)
    assert len(pivots) == 34 and min(pivots) > 0


def test_table1_fuzzy_and_crisp_engine_counts_pinned(counted_solves, engine_counts):
    # the other halves of the mc-table1 workload, which do not depend on
    # the seed: compare's 11-level fuzzy batch, and the crisp anchor.
    # 16 of the 22 corners and the anchor tie in c. With the dual
    # lexicographic rule the tableau's basis of the first corner certifies
    # 15 other corners, and the second basis it finds the last 6
    problem = parse_problem(str(files("fuzzyplan").joinpath("data/table1.json")))
    solve_fuzzy(problem, AlphaGrid.uniform(11))
    assert engine_counts() == {
        "cold": 2, "warm": 0, "phase 2": 0, "proposed": 2, "tableau": 2, "certify": 2
    }
    lp = to_lp(midpoint_instance(problem))
    feasible, _, _ = _BasisCache(problem.shape).answer(lp.c[None], lp.b[None])
    assert feasible[0] and len(counted_solves) == 3
    assert engine_counts() == {
        "cold": 3, "warm": 0, "phase 2": 0, "proposed": 3, "tableau": 3, "certify": 3
    }


@pytest.mark.parametrize("sale_prices", [(5.0, 5.0), (5.0, 6.0)])
def test_tied_optimum_is_certified(sale_prices, counted_solves, tableau_solves):
    # equal lane profits: every point between (8, 2) and (2, 8) is
    # optimal and both vertices are nondegenerate. The dual lexicographic
    # rule accepts one of their bases, the one the tableau ends on: the
    # first step's proposal finds it and answers the other two steps,
    # with solve's values
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
    assert len(counted_solves) == 1 and not tableau_solves
    sol = solve(to_lp(sample_instance(specs, 0, 0)))
    assert tuple(part.values[:, 0]) == (sol.objective_value,) * 3
    assert tuple(map(tuple, part.values[:, 1:].tolist())) == (sol.x,) * 3


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
    b, c = np.array([10.0, 8.0, 8.0, 1.0, 1.0, 1.0]), np.array([5.0, 4.0])
    stale = cache._basis_at(np.array(other.x) / 16, b / 16, c / 8)  # as answer scales them
    cache.bases.append(stale)
    _, _, x = cache.answer(*lp_rows(here.shape, monte_carlo._draws(here, 0, 0, 5)))
    assert [tuple(ship) for ship in x.tolist()] == [(2.0, 8.0)] * 5
    # the stale basis (supply and customer 1 tight: slacks 2 and 3 out)
    # answered nothing; the new one (slacks 2 and 4 out) answered steps 1 to 4
    assert stale.basic.tolist() == [0, 1, 4, 5, 6, 7]
    assert [basis.basic.tolist() for basis in cache.bases] == [[0, 1, 3, 5, 6, 7]]
    # a basis that answers only the step it was learned from is dropped
    cache = _BasisCache(here.shape)
    cache.answer(*lp_rows(here.shape, monte_carlo._draws(here, 0, 0, 1)))
    assert cache.bases == []


@pytest.mark.parametrize("value", [-np.finfo(float).max, -3.0, 0.0, 3.0, np.finfo(float).max])
def test_point_mass_bin_is_finite_around_its_value(value):
    hist = monte_carlo._histogram(np.full(4, value))  # BinnedHistogram checks the edges are finite
    lo, hi = hist.bin_edges
    assert lo <= value <= hi and lo < hi and hist.counts == (4.0,)


def test_values_ulps_apart_get_one_bin_whose_printed_edges_differ():
    # 20 equal-width bins across 2 ulps have no finite width: the values
    # get one bin, 1e-6 wider each way, whose 9-digit edges rise
    values = np.array([1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)])
    hist = monte_carlo._histogram(values)
    assert hist.bin_edges == (1.0 - 1e-6, values[-1] + 1e-6) and hist.counts == (3.0,)
    assert ["%.9g" % edge for edge in hist.bin_edges] == ["0.999999", "1.000001"]


def test_histogram_spans_near_the_float_maximum_without_overflow():
    top = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # hi - lo passes the float maximum: one bin, its edges kept finite
        hist = monte_carlo._histogram(np.array([-top, 0.0, 0.5 * top, top]))
        assert hist.bin_edges == (-top, top) and hist.counts == (4.0,)
        # hi - lo within it, but 2 (q75 - q25) past it: 216,000 values at
        # -0.45 and 0.45 times the maximum take (0.9 top) / (2 (0.9 top) / 60),
        # 30 Freedman-Diaconis bins, not the 20 of an infinite bin width
        values = np.repeat([-0.45 * top, 0.45 * top], 108_000)
        hist = monte_carlo._histogram(values)
    assert len(hist.counts) in (30, 31)
    assert hist.bin_edges[0] == -0.45 * top and hist.bin_edges[-1] == 0.45 * top
    assert hist.counts[0] == hist.counts[-1] == 108_000.0


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
    feasible_iter = iter(zip(part.values[:, 0], part.values[:, 1:]))
    for index in range(80):
        inst = sample_instance(demo_specs, 42, index)
        lp = to_lp(inst)
        if solve(lp).status != "optimal":
            continue
        benefit, x = next(feasible_iter)
        assert residuals(lp, x) <= 1e-7
        checked += 1
    assert checked == len(part.values)


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
    assert res.histograms is None
    assert res == McResult(10, 0, (1, 2), 0, 10, None, None, None)
    # empty result arrays keep their dtype and lane count, also across a merge
    for part in (
        run_range(specs, 0, 10, 0),
        run_range(specs, 4, 4, 0),
        merge_partials([run_range(specs, 0, 3, 0), run_range(specs, 3, 3, 0)]),
    ):
        assert part.values.shape == (0, 1 + 2)
        assert part.values.dtype == np.float64
    assert finalize(run_range(specs, 0, 10, 0)) == res


def by_name(report):
    """compare's entries by quantity name."""
    return {e["name"]: e for e in report["entries"]}


def test_compare_degenerate_convention(demo_crisp_problem, demo_crisp_specs):
    fz = solve_fuzzy(demo_crisp_problem)
    mc = run(demo_crisp_specs, 40, seed=3)
    report = compare(fz, mc)
    d = report["entries"][0]
    assert d["name"] == "D"
    assert d["width_ratio"] == 1.0
    assert d["mc_inside_fuzzy"]
    assert d["fuzzy"][1] == pytest.approx(DEMO_OPTIMUM, abs=1e-6)
    assert d["mc"][1] == pytest.approx(DEMO_OPTIMUM, abs=0.01)
    assert len(report["entries"]) == 1 + 9
    entries = by_name(report)
    assert entries["x_11"]["width_ratio"] == 1.0
    assert "x_99" not in entries


def test_compare_demo(demo_problem, demo_specs):
    fz = solve_fuzzy(demo_problem)
    mc = run(demo_specs, 400, seed=42)
    d = by_name(compare(fz, mc))["D"]
    assert d["fuzzy_support_width"] > 0
    assert d["mc_support_width"] > 0
    assert d["width_ratio"] > 1.0
    assert d["mc_inside_fuzzy"]
    assert mc.means is not None
    core_lo, core_hi = fz.levels[-1].cuts[0]
    assert core_lo <= mc.means[0] <= core_hi


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


# a 1x1 problem whose shipment nears the float maximum
NEAR_MAX = {
    "schema_version": 1,
    "kind": "distribution",
    "supply_max": [[1e308, 1.0001e308, 1.0002e308, 1.0003e308]],
    "demand_max": [1.5e308],
    "purchase_min": [0],
    "sale_min": [0],
    "purchase_price": [1e-300],
    "sale_price": [3e-300],
    "transport_cost": [[0]],
}


def test_mean_std_scales_by_a_power_of_two():
    # _mean_std works on the values over a power of two, which is exact:
    # the same bits as numpy's mean and std where their sums are finite,
    # and finite where the values near the float maximum
    values = np.random.default_rng(9).normal(500.0, 100.0, 1000)
    assert monte_carlo._mean_std(values) == (float(values.mean()), float(values.std(ddof=1)))
    mean, std = monte_carlo._mean_std(np.array(NEAR_MAX["supply_max"][0]))
    assert mean == pytest.approx(1.00015e308, rel=1e-12)
    assert std == pytest.approx(np.std([1.0, 1.0001, 1.0002, 1.0003], ddof=1) * 1e308, rel=1e-12)


def test_compare_near_the_float_maximum(tmp_path):
    # the shipment's mean and std stay finite, and x_11's degenerate
    # tolerance takes its midpoint without overflow, so its width ratio
    # (supports 3e304 and 2.996e304 wide) is D's, not the 1.0 of two
    # widths below an infinite tolerance
    path = tmp_path / "near_max.json"
    path.write_text(json.dumps(NEAR_MAX))
    problem = parse_problem(str(path))
    mc = run(ParameterSpecs.from_problem(problem), 2000, seed=42)
    assert all(map(math.isfinite, mc.means[1:] + mc.stds[1:]))
    entries = by_name(compare(solve_fuzzy(problem), mc))
    lane, d = entries["x_11"], entries["D"]
    fuzzy = TrapezoidalFuzzyNumber(*lane["fuzzy"])
    assert monte_carlo._degenerate_tol(fuzzy) == 1e-6 * midpoint(fuzzy.a, fuzzy.d)
    # D's own ratio, of two widths above their tolerances, not the 1.0 of two degenerate ones
    mc_d = TrapezoidalFuzzyNumber(*d["mc"])
    assert d["mc_support_width"] > monte_carlo._degenerate_tol(mc_d)
    assert d["width_ratio"] == d["fuzzy_support_width"] / d["mc_support_width"] != 1.0
    assert lane["width_ratio"] == pytest.approx(d["width_ratio"], rel=1e-9)


def test_compare_width_ratio_past_the_float_maximum(tmp_path):
    # the benefit, -purchase_price with sigma 4e307, spreads its 200
    # draws over more than the float maximum, and so does its Monte Carlo
    # support: that width is inf, and the ratio, taken on the halved
    # widths, is finite (sigma 5e307 overflows a draw at seed 42)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "schema_version": 1, "kind": "distribution", "supply_max": [1], "demand_max": [1],
        "purchase_min": [1], "sale_min": [0], "purchase_price": [{"mean": 0, "sigma": 4e307}],
        "sale_price": [0], "transport_cost": [[0]],
    }))
    problem = parse_problem(str(path))
    d = by_name(compare(solve_fuzzy(problem), run(ParameterSpecs.from_problem(problem), 200)))["D"]
    (fa, _, _, fd), (ma, _, _, md) = d["fuzzy"], d["mc"]
    assert math.isfinite(d["fuzzy_support_width"]) and d["mc_support_width"] == math.inf
    assert md - ma == math.inf and md / 2 - ma / 2 > d["fuzzy_support_width"] / 2
    assert 0 < d["width_ratio"] == (fd / 2 - fa / 2) / (md / 2 - ma / 2) < 1
