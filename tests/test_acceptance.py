"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line on the real terminal (capture
bypassed) so a full run shows the seven verdicts at a glance.
"""

import time

import numpy as np

from fuzzyplan.fuzzy_solver import fit_trapezoid, solve_fuzzy
from fuzzyplan.ingest import SampleSet, ecdf_from_samples, to_trapezoid
from fuzzyplan.model import to_lp
from fuzzyplan.monte_carlo import ParameterSpecs, compare, run
from fuzzyplan.simplex import solve
from fuzzyplan.transport import modi_optimize, plan_cost, vogel_approximation

from conftest import DEMO_OPTIMUM
from oracles import (
    GeneralLP,
    is_spanning_tree,
    lp_optimum_by_enumeration,
    solve_general,
)


def _report(capsys, num, name, problems):
    verdict = "PASS" if not problems else "FAIL: " + "; ".join(problems)
    with capsys.disabled():
        print(f"criterion {num} ({name}): {verdict}")
    assert not problems, verdict


def test_criterion_1_crisp_anchor(capsys, demo_means):
    t0 = time.perf_counter()
    problems = []
    sol = solve(to_lp(demo_means))
    if sol.status != "optimal":
        problems.append(f"simplex status {sol.status}")
    elif abs(sol.objective_value - DEMO_OPTIMUM) > 1e-6:
        problems.append(f"simplex benefit {sol.objective_value}")
    profits = to_lp(demo_means).c.reshape(demo_means.shape)
    losses = -profits  # MODI minimizes: the least loss is the largest benefit
    start = vogel_approximation(losses, list(demo_means.supply_max), list(demo_means.demand_max))
    x, _ = modi_optimize(losses, *start)
    benefit = plan_cost(profits.tolist(), x)
    if abs(benefit - DEMO_OPTIMUM) > 1e-6:
        problems.append(f"modi benefit {benefit}")
    if sol.status == "optimal" and abs(benefit - sol.objective_value) > 1e-6:
        problems.append("simplex and modi disagree")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    _report(capsys, 1, "crisp anchor", problems)


def test_criterion_2_fuzzy_demo(capsys, demo_problem):
    t0 = time.perf_counter()
    problems = []
    fz = solve_fuzzy(demo_problem)
    core = fz.levels[-1]
    if not core.feasible:
        problems.append("alpha=1 infeasible")
    elif not core.cuts[0, 0] - 1e-9 <= DEMO_OPTIMUM <= core.cuts[0, 1] + 1e-9:
        problems.append(f"core {core.cuts[0].tolist()} misses {DEMO_OPTIMUM}")
    for lower, higher in zip(fz.levels, fz.levels[1:]):
        if not (lower.feasible and higher.feasible):
            problems.append(f"infeasible level at alpha={lower.alpha}")
            break
        (lower_lo, lower_hi), (higher_lo, higher_hi) = lower.cuts[0], higher.cuts[0]
        if higher_lo < lower_lo - 1e-9 or higher_hi > lower_hi + 1e-9:
            problems.append(f"nesting broken at alpha={higher.alpha}")
    for level in fz.levels:
        if level.feasible and level.cuts[0, 0] > level.cuts[0, 1]:
            problems.append(f"pessimistic > optimistic at alpha={level.alpha}")
    if not fz.levels[0].repaired:
        problems.append("no repair flag at alpha=0")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s")
    _report(capsys, 2, "fuzzy demo solve", problems)


def test_criterion_3_monte_carlo_scale(capsys, demo_problem):
    t0 = time.perf_counter()
    problems = []
    fz = solve_fuzzy(demo_problem)
    specs = ParameterSpecs.from_problem(demo_problem)
    mc = run(specs, 10_000, seed=42)
    core_lo, core_hi = fz.levels[-1].cuts[0].tolist()
    if mc.means is None:
        problems.append("no feasible scenarios")
    elif not core_lo <= mc.means[0] <= core_hi:
        problems.append(f"mean {mc.means[0]} outside core [{core_lo}, {core_hi}]")
    entry = {e["name"]: e for e in compare(fz, mc)["entries"]}["D"]
    if entry["fuzzy_support_width"] + 1e-9 < entry["mc_support_width"]:
        problems.append(
            f"fuzzy support {entry['fuzzy_support_width']} narrower than "
            f"MC support {entry['mc_support_width']}"
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.2f}s")
    _report(capsys, 3, "Monte Carlo at scale", problems)


def test_criterion_4_converter_accuracy(capsys):
    problems = []
    rng = np.random.default_rng(2026)
    draws = SampleSet(tuple(map(float, rng.normal(100.0, 10.0, 100_000))))
    trap = to_trapezoid(ecdf_from_samples(draws))
    expected = (83.55, 96.15, 103.85, 116.45)
    got = (trap.a, trap.b, trap.c, trap.d)
    for want, have in zip(expected, got):
        if abs(want - have) > 0.5:
            problems.append(f"quadruple {got} vs {expected}")
            break
    _report(capsys, 4, "converter accuracy", problems)


def _random_lp(rng):
    n = int(rng.integers(1, 4))
    k = int(rng.integers(1, 5))
    constraints = []
    for _ in range(k):
        coeffs = tuple(float(v) for v in rng.integers(-5, 6, n))
        rel = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        constraints.append((coeffs, rel, float(rng.integers(0, 11))))
    for i in range(n):  # box keeps every instance bounded
        box = tuple(1.0 if j == i else 0.0 for j in range(n))
        constraints.append((box, "<=", float(rng.integers(1, 11))))
    objective = tuple(float(v) for v in rng.integers(-5, 6, n))
    sense = "max" if rng.integers(0, 2) else "min"
    return GeneralLP(objective, sense, tuple(constraints))


def test_criterion_6_simplex_vs_oracle(capsys):
    problems = []
    rng = np.random.default_rng(11)
    for trial in range(200):
        lp = _random_lp(rng)
        sol = solve_general(lp)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for coeffs, rel, rhs in lp.constraints:
            if rel == "<=":
                a_ub.append(coeffs)
                b_ub.append(rhs)
            elif rel == ">=":
                a_ub.append(tuple(-c for c in coeffs))
                b_ub.append(-rhs)
            else:
                a_eq.append(coeffs)
                b_eq.append(rhs)
        status, value, _ = lp_optimum_by_enumeration(
            lp.objective, a_ub, b_ub, a_eq or None, b_eq or None, sense=lp.sense
        )
        if sol.status != status:
            problems.append(f"trial {trial}: status {sol.status} vs oracle {status}")
            break
        if status == "optimal" and abs(sol.objective_value - value) > 1e-6:
            problems.append(f"trial {trial}: value {sol.objective_value} vs {value}")
            break
    _report(capsys, 6, "simplex vs vertex oracle", problems)


def _random_balanced(rng):
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 5))
    supplies = tuple(float(v) for v in rng.integers(5, 21, m))
    total = int(sum(supplies))
    cuts = sorted(rng.choice(np.arange(1, total), size=n - 1, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [total]
    demands = tuple(float(hi - lo) for lo, hi in zip(bounds, bounds[1:]))
    costs = np.array([rng.integers(1, 50, n) for _ in range(m)], dtype=float)
    return supplies, demands, costs


def _check_start(supplies, demands, x, cells, label, trial, problems):
    m, n = len(supplies), len(demands)
    for i in range(m):
        if abs(sum(x[i]) - supplies[i]) > 1e-9:
            problems.append(f"trial {trial}: {label} row {i} off")
            return False
    for j in range(n):
        col = sum(x[i][j] for i in range(m))
        if abs(col - demands[j]) > 1e-9:
            problems.append(f"trial {trial}: {label} col {j} off")
            return False
    positive = {(i, j) for i in range(m) for j in range(n) if x[i][j] > 0}
    if len(cells) != m + n - 1 or len(positive) > m + n - 1:
        problems.append(f"trial {trial}: {label} not basic")
        return False
    if not positive <= set(cells):
        problems.append(f"trial {trial}: {label} positive cell outside basis")
        return False
    if not is_spanning_tree(cells, m, n):
        problems.append(f"trial {trial}: {label} basis has a loop")
        return False
    return True


def test_criterion_7_transport_suite(capsys):
    problems = []
    rng = np.random.default_rng(13)
    for trial in range(100):
        supplies, demands, costs = _random_balanced(rng)
        m, n = costs.shape
        costs_flat = tuple(costs.ravel().tolist())
        constraints = []
        for i in range(m):
            row = tuple(1.0 if k // n == i else 0.0 for k in range(m * n))
            constraints.append((row, "=", supplies[i]))
        for j in range(n):
            col = tuple(1.0 if k % n == j else 0.0 for k in range(m * n))
            constraints.append((col, "=", demands[j]))
        ref = solve_general(GeneralLP(costs_flat, "min", tuple(constraints)))
        if ref.status != "optimal":
            problems.append(f"trial {trial}: simplex reference {ref.status}")
            break
        x, cells = vogel_approximation(costs, list(supplies), list(demands))
        if not _check_start(supplies, demands, x, cells, "vam", trial, problems):
            break
        x, _ = modi_optimize(costs, x, cells)
        cost = plan_cost(costs.tolist(), x)
        if abs(cost - ref.objective_value) > 1e-6:
            problems.append(f"trial {trial}: modi from vam {cost} vs simplex {ref.objective_value}")
            break
    _report(capsys, 7, "transportation suite", problems)


def test_criterion_8_degenerate_collapse(capsys, demo_crisp_problem):
    problems = []
    fz = solve_fuzzy(demo_crisp_problem)
    for level in fz.levels:
        if not level.feasible:
            problems.append(f"crisp level alpha={level.alpha} infeasible")
            break
        lo, hi = level.cuts[0].tolist()
        if hi - lo > 1e-9:
            problems.append(f"nonzero width at alpha={level.alpha}")
            break
        if abs(lo - DEMO_OPTIMUM) > 1e-6:
            problems.append(f"level value {lo} vs {DEMO_OPTIMUM}")
            break
    trap = fit_trapezoid(fz)[0]
    if abs(trap.a - DEMO_OPTIMUM) > 1e-6 or abs(trap.d - DEMO_OPTIMUM) > 1e-6:
        problems.append("fitted quadruple not collapsed")
    specs = ParameterSpecs.from_problem(demo_crisp_problem)
    mc = run(specs, 200, seed=42)
    if mc.feasible_count != 200:
        problems.append(f"{mc.infeasible_count} infeasible degenerate scenarios")
    elif (
        mc.stds[0] != 0.0
        or abs(mc.means[0] - DEMO_OPTIMUM) > 1e-6
        or len(mc.histograms[0].counts) != 1
    ):
        problems.append("Monte Carlo did not collapse to a point")
    _report(capsys, 8, "degenerate collapse", problems)
