import hashlib

import numpy as np
import pytest

import fuzzyplan.transport as transport
from fuzzyplan.basis import _BasisCache
from fuzzyplan.transport import (
    TransportInstance,
    check_balance,
    modi_optimize,
    plan_cost,
    vogel_approximation,
)

from oracles import (
    GeneralLP,
    check_transport_optimal,
    is_spanning_tree,
    north_west_corner,
    solve_general,
    walk_tree,
)

PROFITS = ((300.0, 480.0, 490.0), (400.0, 584.0, 295.0), (300.0, 382.0, 599.0))
SUPPLIES = (460.0, 460.0, 610.0)
DEMANDS = (410.0, 510.0, 610.0)


def inst(supplies, demands, costs):
    return TransportInstance(tuple(supplies), tuple(demands), tuple(tuple(r) for r in costs))


def vogel(costs, supplies, demands):
    """Vogel's start from copies of the data, which stay as they were."""
    return vogel_approximation(np.array(costs, dtype=float), list(supplies), list(demands))


def modi(costs, start):
    """MODI's optimum from a copy of start, which stays as it was."""
    x, cells = start
    return modi_optimize(np.array(costs, dtype=float), [list(row) for row in x], cells)


def assert_feasible(supplies, demands, plan):
    x, cells = plan
    m, n = len(supplies), len(demands)
    assert [sum(row) for row in x] == pytest.approx(list(supplies), abs=1e-7)
    assert [sum(row[j] for row in x) for j in range(n)] == pytest.approx(list(demands), abs=1e-7)
    for i in range(m):
        for j in range(n):
            assert x[i][j] >= -1e-9
            if x[i][j] > 0:
                assert (i, j) in cells
    assert is_spanning_tree(cells, m, n)


def transport_lp(costs, supplies, demands, sense="min"):
    m, n = len(supplies), len(demands)
    cons = []
    for i in range(m):
        e = [0.0] * (m * n)
        for j in range(n):
            e[i * n + j] = 1.0
        cons.append((tuple(e), "=", supplies[i]))
    for j in range(n):
        e = [0.0] * (m * n)
        for i in range(m):
            e[i * n + j] = 1.0
        cons.append((tuple(e), "=", demands[j]))
    obj = tuple(costs[i][j] for i in range(m) for j in range(n))
    return GeneralLP(obj, sense, tuple(cons))


def test_validation():
    with pytest.raises(ValueError):
        inst((), (1.0,), [[]])
    with pytest.raises(ValueError):
        inst((-1.0,), (1.0,), [[1.0]])
    with pytest.raises(ValueError):
        inst((1.0,), (1.0,), [[1.0, 2.0]])
    with pytest.raises(ValueError):
        inst((1.0,), (1.0,), [[float("nan")]])


def test_check_balance():
    assert check_balance(inst((20.0, 30.0), (10.0, 40.0), [[1, 1], [1, 1]]))
    assert not check_balance(inst((1.0, 1.0), (3.0,), [[1], [1]]))
    assert check_balance(inst(SUPPLIES, DEMANDS, PROFITS))


def test_vam_single_cell():
    assert vogel([[7.0]], (5.0,), (5.0,)) == ([[5.0]], [(0, 0)])


def test_vam_diagonal():
    costs = [[1.0, 5.0], [5.0, 1.0]]
    x, cells = vogel(costs, (1.0, 1.0), (1.0, 1.0))
    assert x[0][0] == pytest.approx(1.0)
    assert x[1][1] == pytest.approx(1.0)
    assert plan_cost(costs, x) == pytest.approx(2.0)
    assert_feasible((1.0, 1.0), (1.0, 1.0), (x, cells))


def test_plan_cost_sums_products_in_row_order():
    # the same products, row by row, into the same sum: the same bits
    rng = np.random.default_rng(4)
    costs = rng.uniform(-50.0, 400.0, (7, 9)) * 10.0 ** rng.integers(-8, 8, (7, 9))
    shipments = rng.uniform(0.0, 30.0, (7, 9)).tolist()
    costs = costs.tolist()
    want = sum(costs[i][j] * shipments[i][j] for i in range(7) for j in range(9))
    assert plan_cost(costs, shipments) == want


def _random_instance(rng, max_dim=4):
    m = int(rng.integers(2, max_dim + 1))
    n = int(rng.integers(2, max_dim + 1))
    supplies = rng.integers(1, 30, m).astype(float)
    demands = rng.integers(1, 30, n).astype(float)
    demands *= supplies.sum() / demands.sum()
    costs = rng.integers(1, 20, (m, n)).astype(float)
    return costs, supplies.tolist(), demands.tolist()


def test_vam_usually_beats_nwcr():
    rng = np.random.default_rng(404)
    wins = 0
    for _ in range(100):
        costs, supplies, demands = _random_instance(rng, max_dim=3)
        nw = north_west_corner(supplies, demands)
        va = vogel(costs, supplies, demands)
        assert_feasible(supplies, demands, nw)
        assert_feasible(supplies, demands, va)
        if plan_cost(costs.tolist(), va[0]) <= plan_cost(costs.tolist(), nw[0]) + 1e-9:
            wins += 1
    assert wins >= 90


def test_modi_diagonal_min():
    costs = [[1.0, 5.0], [5.0, 1.0]]
    x, _ = modi(costs, north_west_corner((1.0, 1.0), (1.0, 1.0)))
    assert plan_cost(costs, x) == pytest.approx(2.0)
    assert x[0][0] == pytest.approx(1.0)
    assert x[1][1] == pytest.approx(1.0)


def test_modi_profit_maximization_anchor():
    x, cells = modi(-np.array(PROFITS), north_west_corner(SUPPLIES, DEMANDS))
    assert plan_cost(PROFITS, x) == pytest.approx(781030.0)
    assert x[0][0] == pytest.approx(410.0)
    assert x[0][1] == pytest.approx(50.0)
    assert x[1][1] == pytest.approx(460.0)
    assert x[2][2] == pytest.approx(610.0)
    assert check_transport_optimal(PROFITS, SUPPLIES, DEMANDS, x, cells, sense="max") == []


def test_modi_degenerate_tie_instance():
    # equal supply and demand pairs force a zero basic cell from the start
    costs, supplies, demands = [[1.0, 2.0], [3.0, 1.0]], (10.0, 10.0), (10.0, 10.0)
    x, cells = modi(costs, north_west_corner(supplies, demands))
    assert plan_cost(costs, x) == pytest.approx(20.0)
    assert check_transport_optimal(costs, supplies, demands, x, cells, sense="min") == []


def test_modi_both_starts_match_simplex():
    rng = np.random.default_rng(808)
    for _ in range(40):
        costs, supplies, demands = _random_instance(rng)
        from_nw = modi(costs, north_west_corner(supplies, demands))
        from_va = modi(costs, vogel(costs, supplies, demands))
        assert_feasible(supplies, demands, from_nw)
        assert_feasible(supplies, demands, from_va)
        v1 = plan_cost(costs.tolist(), from_nw[0])
        v2 = plan_cost(costs.tolist(), from_va[0])
        assert v1 == pytest.approx(v2, abs=1e-6)
        sol = solve_general(transport_lp(costs, supplies, demands))
        assert sol.status == "optimal"
        assert v1 == pytest.approx(sol.objective_value, abs=1e-6)
        assert check_transport_optimal(costs, supplies, demands, *from_nw, sense="min") == []


def test_modi_max_matches_simplex():
    rng = np.random.default_rng(909)
    for _ in range(15):
        costs, supplies, demands = _random_instance(rng)
        x, _ = modi(-costs, vogel(costs, supplies, demands))
        sol = solve_general(transport_lp(costs, supplies, demands, "max"))
        assert plan_cost(costs.tolist(), x) == pytest.approx(sol.objective_value, abs=1e-6)


def test_modi_near_the_float_maximum_pivots_as_at_unit_scale():
    # costs of both signs times 2^1019: a potential sums up to M+N of
    # them and would pass the float maximum, so MODI first divides the
    # costs by a power of two, and then makes the unit-scale pivots
    rng = np.random.default_rng(1009)
    for _ in range(40):
        costs, supplies, demands = _random_instance(rng)
        costs = costs * rng.choice([-1.0, 1.0], costs.shape)
        huge = np.ldexp(costs, 1019)
        want = modi(costs, vogel(costs, supplies, demands))
        assert modi(huge, vogel(huge, supplies, demands)) == want


def test_plans_deterministic():
    rng = np.random.default_rng(31415)
    costs, supplies, demands = _random_instance(rng)
    assert vogel(costs, supplies, demands) == vogel(costs, supplies, demands)
    p = north_west_corner(supplies, demands)
    assert modi(costs, p) == modi(costs, p)


def test_nwcr_last_row_moves_right():
    # balanced within tolerance, but the first column still wants 1e-12 when
    # the walk reaches the last row: it must step right, not below the table
    t = inst((1.0, 1.0), (2.0 + 1e-12, 0.0), [[1.0, 2.0], [3.0, 4.0]])
    assert check_balance(t)
    plan = north_west_corner(t.supplies, t.demands)
    assert plan[1] == [(0, 0), (1, 0), (1, 1)]
    assert is_spanning_tree(plan[1], 2, 2)
    x, cells = modi(t.costs, plan)
    assert is_spanning_tree(cells, 2, 2)
    assert plan_cost(t.costs, x) == pytest.approx(4.0)


def _degenerate_instance(rng):
    # integer data with zero supplies and demands and costs in {1, 2, 3}:
    # exact balance, simultaneous exhaustions and tied penalties everywhere
    m = int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    supplies = rng.integers(0, 6, m)
    demands = rng.multinomial(int(supplies.sum()), np.full(n, 1.0 / n))
    costs = rng.integers(1, 4, (m, n)).astype(float)
    return costs, supplies.astype(float).tolist(), demands.astype(float).tolist()


def test_starts_are_spanning_trees():
    rng = np.random.default_rng(2718)
    for _ in range(300):
        costs, supplies, demands = _degenerate_instance(rng)
        plan = vogel(costs, supplies, demands)
        assert is_spanning_tree(plan[1], *costs.shape), (costs, supplies, demands)
        assert_feasible(supplies, demands, plan)


def test_modi_tie_breaks_pinned():
    # ties in supplies, demands and costs: the digest pins which start cells,
    # entering and leaving cells every tie-break picks
    rng = np.random.default_rng(12)
    supplies = rng.integers(1, 10, 12).astype(float)
    demands = rng.permutation(supplies)
    costs = rng.integers(1, 4, (12, 12)).astype(float)
    supplies, demands = supplies.tolist(), demands.tolist()
    runs = []
    for x, cells in (north_west_corner(supplies, demands), vogel(costs, supplies, demands)):
        runs.append((tuple(map(tuple, x)), sorted(cells)))
        for sign in (1.0, -1.0):  # minimize, then maximize
            plan = modi(sign * costs, (x, cells))
            runs.append((tuple(map(tuple, plan[0])), sorted(plan[1])))
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest == "8ecfe4d756c0092b38d4cbfc864cc378f1bac4832d76270f0d5b99702fa78d26"


def test_modi_pivots_are_scale_free(monkeypatch):
    # scaling the costs, or the supplies and demands, by 2^40 or 2^-40
    # scales every reduced cost, or every flow, exactly; each tolerance is
    # in the units of what it compares, so MODI makes the same (entering,
    # leaving) pivots from either start, and the plans are the unit-scale
    # plans, their shipments scaled with the amounts
    exchange = transport._Tree.exchange
    pivots = []

    def logged(tree, entering, leaving):
        pivots.append((entering, leaving))
        exchange(tree, entering, leaving)

    def run(costs, supplies, demands):
        runs = []
        for start in (north_west_corner(supplies, demands), vogel(costs, supplies, demands)):
            pivots.clear()
            runs.append((modi(costs, start), pivots[:]))
        return runs

    monkeypatch.setattr(transport._Tree, "exchange", logged)
    rng = np.random.default_rng(2040)
    made = past_limit = 0
    for k in range(200):
        if k % 2:  # ties, zero amounts and degenerate pivots
            costs, supplies, demands = _degenerate_instance(rng)
        else:  # generic floats of both signs, up to 32x32: runs past MODI's stall limit
            costs, supplies, demands = _random_instance(rng, max_dim=32)
            costs = costs * rng.uniform(-1.0, 1.5, costs.shape)
        want = run(costs, supplies, demands)
        made += sum(len(steps) for _, steps in want)
        past_limit += sum(len(steps) > 2 * sum(costs.shape) for _, steps in want)
        for e in (40, -40):
            assert run(np.ldexp(costs, e), supplies, demands) == want
            amounts = [np.ldexp(v, e).tolist() for v in (supplies, demands)]
            scaled = [((np.ldexp(x, e).tolist(), cells), steps) for (x, cells), steps in want]
            assert run(costs, *amounts) == scaled
    assert made > 2000 and past_limit > 0


def test_each_pivot_keeps_the_tree_a_full_walk_gives(monkeypatch):
    # after every pivot, MODI re-walks only the part of the tree that the
    # leaving cell cut off; every potential, parent and depth must still
    # be, bit for bit, what a full walk of the new tree from row 0 gives
    exchange = transport._Tree.exchange
    pivots = []

    def checked(tree, entering, leaving):
        exchange(tree, entering, leaving)
        m, n = tree.m, len(tree.adj) - tree.m
        cells = [(i, b - m) for i in range(m) for b in tree.adj[i]]
        assert is_spanning_tree(cells, m, n)
        potential, up, depth = walk_tree(tree.costs, cells, m, n)
        assert np.array(tree.potential).tobytes() == np.array(potential).tobytes()
        assert (tree.up, tree.depth) == (up, depth)
        pivots.append(entering)

    monkeypatch.setattr(transport._Tree, "exchange", checked)
    rng = np.random.default_rng(77)
    for _ in range(30):
        costs, supplies, demands = _degenerate_instance(rng)
        for sign in (1.0, -1.0):
            modi(sign * costs, north_west_corner(supplies, demands))
    for _ in range(10):  # generic floats, and the split-node problems of the distributor LP
        costs, supplies, demands = _random_instance(rng, max_dim=12)
        costs = costs * rng.uniform(0.5, 1.5, costs.shape)
        modi(costs, vogel(costs, supplies, demands))
        m, n = costs.shape
        b = np.concatenate([rng.uniform(300.0, 700.0, m + n), rng.uniform(-100.0, 250.0, m + n)])
        c = rng.normal(50.0, 100.0, m * n)
        scaled = [v / 2.0 ** np.frexp(np.abs(v).max())[1] for v in (c, b)]  # as answer scales them
        _BasisCache((m, n)).propose(*scaled)
    assert len(pivots) > 100
