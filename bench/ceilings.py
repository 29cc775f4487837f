"""Traffic ceilings: counts that bound what screening or basis reuse could save.

They are taken after the timed region by replaying each workload's LPs
through the package's own functions, untraced. They are pure functions
of the inputs, so two runs with one seed give identical values.
"""

from __future__ import annotations

NAMES = (
    "monte_carlo.distinct_supports",
    "monte_carlo.feasible_share",
    "monte_carlo.precheck_catchable",
    "fuzzy_solver.support_reuse",
)


def _support(sol):
    return tuple(i for i, v in enumerate(sol.x) if v != 0.0) if sol.status == "optimal" else None


def monte_carlo_ceilings(problem, steps: int, seed: int) -> dict:
    """Distinct optimal supports, feasible share and precheck-catchable count.

    Replays the scenarios the CLI's Monte Carlo run draws: same specs,
    same (seed, index) streams.
    """
    from fuzzyplan import cli, model, monte_carlo, simplex

    specs = monte_carlo.ParameterSpecs.from_problem(cli.parse_problem(problem))
    supports = set()
    feasible = catchable = 0
    for index in range(steps):
        inst = monte_carlo.sample_instance(specs, seed, index)
        sol = simplex.solve(model.to_lp(inst))
        if sol.status == "optimal":
            feasible += 1
            supports.add(_support(sol))
        elif sol.status == "infeasible" and not model.feasibility_precheck(inst).ok:
            catchable += 1
    return {
        "monte_carlo.distinct_supports": len(supports),
        "monte_carlo.feasible_share": feasible / steps,
        "monte_carlo.precheck_catchable": catchable,
    }


def support_reuse(problem, levels: int) -> int:
    """Adjacent-level corner solves whose optimal support is unchanged.

    Out of 2 * (levels - 1) pairs: the optimistic and the pessimistic
    corner of each pair of neighbouring alpha levels.
    """
    from fuzzyplan import cli, fuzzy_solver, model, simplex

    p = cli.parse_problem(problem)
    reused, previous = 0, None
    for index in range(levels):
        supports = []
        for inst in fuzzy_solver.corner_instances(p, index / (levels - 1)):
            inst, _ = fuzzy_solver.repair_bounds(inst)
            supports.append(_support(simplex.solve(model.to_lp(inst))))
        if previous is not None:
            reused += sum(a is not None and a == b for a, b in zip(previous, supports))
        previous = supports
    return reused


def ceilings(workload) -> dict:
    """All ceiling counts for one workload; 0 where the workload has no such solve."""
    out = dict.fromkeys(NAMES, 0)
    for inv in workload.invocations:
        if inv.check == "compare":
            out.update(monte_carlo_ceilings(inv.ref["problem"], inv.ref["steps"], inv.ref["seed"]))
        if inv.check in ("compare", "fuzzy"):
            reused = support_reuse(inv.ref["problem"], inv.ref["levels"])
            out["fuzzy_solver.support_reuse"] += reused
    return out
