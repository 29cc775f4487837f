import hashlib

import numpy as np
import pytest

import fuzzyplan.transport as transport
from fuzzyplan.basis import _BasisCache
from fuzzyplan.transport import (
    TransportInstance,
    TransportPlan,
    check_balance,
    modi_optimize,
    plan_cost,
    vogel_approximation,
)

from oracles import (
    GeneralLP,
    check_transport_optimal,
    is_spanning_tree,
    negated,
    north_west_corner,
    solve_general,
    walk_tree,
)

PROFITS = ((300.0, 480.0, 490.0), (400.0, 584.0, 295.0), (300.0, 382.0, 599.0))
SUPPLIES = (460.0, 460.0, 610.0)
DEMANDS = (410.0, 510.0, 610.0)


def inst(supplies, demands, costs):
    return TransportInstance(tuple(supplies), tuple(demands), tuple(tuple(r) for r in costs))


def rowsums(plan):
    return [sum(r) for r in plan.shipments]


def colsums(plan):
    return [sum(r[j] for r in plan.shipments) for j in range(len(plan.shipments[0]))]


def assert_feasible(t, plan):
    assert rowsums(plan) == pytest.approx(list(t.supplies), abs=1e-7)
    assert colsums(plan) == pytest.approx(list(t.demands), abs=1e-7)
    m, n = t.shape
    assert len(plan.basis) <= m + n - 1
    for i in range(m):
        for j in range(n):
            assert plan.shipments[i][j] >= -1e-9
            if plan.shipments[i][j] > 0:
                assert (i, j) in plan.basis
    assert is_spanning_tree(plan.basis, m, n)


def transport_lp(t, sense="min"):
    m, n = t.shape
    cons = []
    for i in range(m):
        e = [0.0] * (m * n)
        for j in range(n):
            e[i * n + j] = 1.0
        cons.append((tuple(e), "=", t.supplies[i]))
    for j in range(n):
        e = [0.0] * (m * n)
        for i in range(m):
            e[i * n + j] = 1.0
        cons.append((tuple(e), "=", t.demands[j]))
    obj = tuple(t.costs[i][j] for i in range(m) for j in range(n))
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


def test_vam_rejects_unbalanced():
    with pytest.raises(ValueError):
        vogel_approximation(inst((1.0, 1.0), (3.0,), [[1], [1]]))


def test_vam_single_cell():
    plan = vogel_approximation(inst((5.0,), (5.0,), [[7.0]]))
    assert plan.shipments == ((5.0,),)


def test_vam_diagonal():
    t = inst((1.0, 1.0), (1.0, 1.0), [[1.0, 5.0], [5.0, 1.0]])
    plan = vogel_approximation(t)
    assert plan.shipments[0][0] == pytest.approx(1.0)
    assert plan.shipments[1][1] == pytest.approx(1.0)
    assert plan_cost(t, plan) == pytest.approx(2.0)
    assert_feasible(t, plan)


def test_plan_cost_sums_products_in_row_order():
    # the same products, row by row, into the same sum: the same bits
    rng = np.random.default_rng(4)
    costs = rng.uniform(-50.0, 400.0, (7, 9)) * 10.0 ** rng.integers(-8, 8, (7, 9))
    shipments = rng.uniform(0.0, 30.0, (7, 9)).tolist()
    t = inst([1.0] * 7, [1.0] * 9, costs.tolist())
    plan = TransportPlan(tuple(map(tuple, shipments)), frozenset())
    want = sum(t.costs[i][j] * plan.shipments[i][j] for i in range(7) for j in range(9))
    assert plan_cost(t, plan) == want


def _random_instance(rng, max_dim=4):
    m = int(rng.integers(2, max_dim + 1))
    n = int(rng.integers(2, max_dim + 1))
    supplies = rng.integers(1, 30, m).astype(float)
    demands = rng.integers(1, 30, n).astype(float)
    demands *= supplies.sum() / demands.sum()
    costs = rng.integers(1, 20, (m, n)).astype(float)
    return inst(tuple(supplies), tuple(demands), costs.tolist())


def test_vam_usually_beats_nwcr():
    rng = np.random.default_rng(404)
    wins = 0
    for _ in range(100):
        t = _random_instance(rng, max_dim=3)
        nw = north_west_corner(t)
        va = vogel_approximation(t)
        assert_feasible(t, nw)
        assert_feasible(t, va)
        if plan_cost(t, va) <= plan_cost(t, nw) + 1e-9:
            wins += 1
    assert wins >= 90


def test_modi_diagonal_min():
    t = inst((1.0, 1.0), (1.0, 1.0), [[1.0, 5.0], [5.0, 1.0]])
    plan = modi_optimize(t, north_west_corner(t))
    assert plan_cost(t, plan) == pytest.approx(2.0)
    assert plan.shipments[0][0] == pytest.approx(1.0)
    assert plan.shipments[1][1] == pytest.approx(1.0)


def test_modi_profit_maximization_anchor():
    t = inst(SUPPLIES, DEMANDS, PROFITS)
    plan = modi_optimize(negated(t), north_west_corner(t))
    assert plan_cost(t, plan) == pytest.approx(781030.0)
    assert plan.shipments[0][0] == pytest.approx(410.0)
    assert plan.shipments[0][1] == pytest.approx(50.0)
    assert plan.shipments[1][1] == pytest.approx(460.0)
    assert plan.shipments[2][2] == pytest.approx(610.0)
    errs = check_transport_optimal(
        PROFITS, SUPPLIES, DEMANDS, plan.shipments, plan.basis, sense="max"
    )
    assert errs == []


def test_modi_rejects_bad_starts():
    t = inst((1.0, 1.0), (1.0, 1.0), [[1.0, 5.0], [5.0, 1.0]])
    loopy = TransportPlan(
        ((0.5, 0.5), (0.5, 0.5)),
        frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
    )
    with pytest.raises(ValueError, match="loop"):
        modi_optimize(t, loopy)
    missing = TransportPlan(((1.0, 0.0), (0.0, 1.0)), frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="missing"):
        modi_optimize(t, missing)
    # degenerate, and short of M+N-1 cells: a start must be a spanning tree
    short = TransportPlan(((1.0, 0.0), (0.0, 1.0)), frozenset({(0, 0), (1, 1)}))
    with pytest.raises(ValueError, match="2 cells, a spanning tree has 3"):
        modi_optimize(t, short)


def test_modi_degenerate_tie_instance():
    # equal supply and demand pairs force a zero basic cell from the start
    t = inst((10.0, 10.0), (10.0, 10.0), [[1.0, 2.0], [3.0, 1.0]])
    plan = modi_optimize(t, north_west_corner(t))
    assert plan_cost(t, plan) == pytest.approx(20.0)
    errs = check_transport_optimal(
        t.costs, t.supplies, t.demands, plan.shipments, plan.basis, sense="min"
    )
    assert errs == []


def test_modi_both_starts_match_simplex():
    rng = np.random.default_rng(808)
    for _ in range(40):
        t = _random_instance(rng)
        from_nw = modi_optimize(t, north_west_corner(t))
        from_va = modi_optimize(t, vogel_approximation(t))
        assert_feasible(t, from_nw)
        assert_feasible(t, from_va)
        v1 = plan_cost(t, from_nw)
        v2 = plan_cost(t, from_va)
        assert v1 == pytest.approx(v2, abs=1e-6)
        sol = solve_general(transport_lp(t))
        assert sol.status == "optimal"
        assert v1 == pytest.approx(sol.objective_value, abs=1e-6)
        errs = check_transport_optimal(
            t.costs, t.supplies, t.demands, from_nw.shipments, from_nw.basis, sense="min"
        )
        assert errs == []


def test_modi_max_matches_simplex():
    rng = np.random.default_rng(909)
    for _ in range(15):
        t = _random_instance(rng)
        plan = modi_optimize(negated(t), vogel_approximation(t))
        sol = solve_general(transport_lp(t, "max"))
        assert plan_cost(t, plan) == pytest.approx(sol.objective_value, abs=1e-6)


def test_modi_near_the_float_maximum_pivots_as_at_unit_scale():
    # costs of both signs times 2^1019: a potential sums up to M+N of
    # them and would pass the float maximum, so MODI first divides the
    # costs by a power of two, and then makes the unit-scale pivots
    rng = np.random.default_rng(1009)
    for _ in range(40):
        t = _random_instance(rng)
        costs = np.array(t.costs) * rng.choice([-1.0, 1.0], (len(t.supplies), len(t.demands)))
        small = inst(t.supplies, t.demands, costs.tolist())
        huge = inst(t.supplies, t.demands, np.ldexp(costs, 1019).tolist())
        want = modi_optimize(small, vogel_approximation(small))
        assert modi_optimize(huge, vogel_approximation(huge)) == want


def test_plans_deterministic():
    rng = np.random.default_rng(31415)
    t = _random_instance(rng)
    assert vogel_approximation(t) == vogel_approximation(t)
    p = north_west_corner(t)
    assert modi_optimize(t, p) == modi_optimize(t, p)


def test_nwcr_last_row_moves_right():
    # balanced within tolerance, but the first column still wants 1e-12 when
    # the walk reaches the last row: it must step right, not below the table
    t = inst((1.0, 1.0), (2.0 + 1e-12, 0.0), [[1.0, 2.0], [3.0, 4.0]])
    assert check_balance(t)
    plan = north_west_corner(t)
    assert plan.basis == frozenset({(0, 0), (1, 0), (1, 1)})
    assert is_spanning_tree(plan.basis, 2, 2)
    best = modi_optimize(t, plan)
    assert is_spanning_tree(best.basis, 2, 2)
    assert plan_cost(t, best) == pytest.approx(4.0)


def _degenerate_instance(rng):
    # integer data with zero supplies and demands and costs in {1, 2, 3}:
    # exact balance, simultaneous exhaustions and tied penalties everywhere
    m = int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    supplies = rng.integers(0, 6, m)
    demands = rng.multinomial(int(supplies.sum()), np.full(n, 1.0 / n))
    costs = rng.integers(1, 4, (m, n)).astype(float)
    return inst(supplies.astype(float).tolist(), demands.astype(float).tolist(), costs.tolist())


def test_starts_are_spanning_trees():
    rng = np.random.default_rng(2718)
    for _ in range(300):
        t = _degenerate_instance(rng)
        m, n = t.shape
        plan = vogel_approximation(t)
        assert is_spanning_tree(plan.basis, m, n), t
        assert_feasible(t, plan)


def test_modi_tie_breaks_pinned():
    # ties in supplies, demands and costs: the digest pins which start cells,
    # entering and leaving cells every tie-break picks
    rng = np.random.default_rng(12)
    supplies = rng.integers(1, 10, 12).astype(float)
    demands = rng.permutation(supplies)
    costs = rng.integers(1, 4, (12, 12)).astype(float)
    t = inst(supplies.tolist(), demands.tolist(), costs.tolist())
    runs = []
    for start in (north_west_corner(t), vogel_approximation(t)):
        runs.append((start.shipments, sorted(start.basis)))
        for costs in (t, negated(t)):  # minimize, then maximize
            plan = modi_optimize(costs, start)
            runs.append((plan.shipments, sorted(plan.basis)))
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest == "8ecfe4d756c0092b38d4cbfc864cc378f1bac4832d76270f0d5b99702fa78d26"


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
        t = _degenerate_instance(rng)
        for costs in (t, negated(t)):
            modi_optimize(costs, north_west_corner(t))
    for _ in range(10):  # generic floats, and the split-node problems of the distributor LP
        t = _random_instance(rng, max_dim=12)
        costs = np.array(t.costs) * rng.uniform(0.5, 1.5, t.shape)
        t = inst(t.supplies, t.demands, costs)
        modi_optimize(t, vogel_approximation(t))
        m, n = t.shape
        b = np.concatenate([rng.uniform(300.0, 700.0, m + n), rng.uniform(-100.0, 250.0, m + n)])
        c = rng.normal(50.0, 100.0, m * n)
        scaled = [v / 2.0 ** np.frexp(np.abs(v).max())[1] for v in (c, b)]  # as answer scales them
        _BasisCache((m, n)).propose(*scaled)
    assert len(pivots) > 100
