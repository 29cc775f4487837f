"""Answer checks for every CLI invocation the benchmark makes.

check_output runs after each pass on the files the CLI wrote and needs
no reference solver. check_answer compares what check_output extracted
with references that scipy's HiGHS solver computes once per run, after
the timed region, so that scipy is not loaded before the process's peak
memory is read.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Objectives agree within RTOL times the magnitude of the objective's terms.
RTOL = 1e-7


def digests(out_dir: Path) -> dict:
    """SHA-256 of every file the invocation wrote, by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * max(1.0, scale)


def check_output(inv, out_dir: Path):
    """Checks on one invocation's files; returns (errors, answer for check_answer)."""
    if inv.check == "anchor":
        sol = json.loads((out_dir / "crisp_solution.json").read_text())
        want = inv.ref["expected"]
        if sol["status"] != "optimal" or not _close(sol["benefit"], want, abs(want)):
            return [f"crisp optimum {sol['benefit']} != expected {want}"], None
        return [], None
    if inv.check in ("crisp", "transport"):
        sol = json.loads((out_dir / "crisp_solution.json").read_text())
        if sol["status"] != "optimal":
            return [f"status {sol['status']}"], None
        return [], sol["benefit" if inv.check == "crisp" else "total_cost"]
    errors, levels = _check_fuzzy_levels(out_dir / "fuzzy_levels.csv", inv.ref["levels"])
    if inv.check == "compare":
        errors += _check_monte_carlo(out_dir, inv.ref["steps"])
    return errors, levels


def _check_fuzzy_levels(path: Path, count: int):
    """Cuts must nest; returns (errors, [(level index, repaired, D_lo, D_hi)])."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != count:
        return [f"{path.name}: {len(rows)} levels, expected {count}"], []
    errors, answer, above = [], [], None
    # walk alpha downward: each feasible level must contain the one above it
    for index in reversed(range(count)):
        cells = rows[index]
        if cells[-2] != "true":
            continue
        bounds = [(float(lo), float(hi)) for lo, hi in zip(cells[1:-2:2], cells[2:-2:2])]
        if any(lo > hi for lo, hi in bounds):
            errors.append(f"{path.name}: inverted interval at level {index}")
        if above is not None and any(
            lo > up_lo or hi < up_hi for (lo, hi), (up_lo, up_hi) in zip(bounds, above)
        ):
            errors.append(f"{path.name}: level {index} does not contain level {index + 1}")
        above = bounds
        answer.append((index, cells[-1] == "true", bounds[0][0], bounds[0][1]))
    return errors, answer


def _hist_total(path: Path) -> float:
    return sum(float(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[1:])


def _check_monte_carlo(out_dir: Path, steps: int) -> list:
    summary = json.loads((out_dir / "mc_summary.json").read_text())
    feasible, infeasible = summary["feasible"], summary["infeasible"]
    errors = []
    if summary["steps"] != steps or feasible + infeasible != steps:
        errors.append(f"mc: {feasible} feasible + {infeasible} infeasible != {steps} steps")
    lanes = sum(len(row) for row in summary["shipment_means"])
    hists = [out_dir / "mc_hist_D.csv"] + sorted(out_dir.glob("mc_hist_x_*.csv"))
    if len(hists) != 1 + lanes:
        errors.append(f"mc: {len(hists)} histogram files for {lanes} lanes")
    for path in hists:
        if _hist_total(path) != feasible:
            errors.append(f"mc: {path.name} counts sum to {_hist_total(path)}, not {feasible}")
    return errors


def check_answer(inv, answer, reference) -> list:
    """Compare an answer from check_output with the reference for its invocation."""
    if inv.check in ("crisp", "transport"):
        want, scale = reference
        if not _close(answer, want, scale):
            return [f"objective {answer} != reference {want}"]
        return []
    errors = []
    for index, repaired, lo, hi in answer or ():
        if repaired:
            continue
        mid = reference[index]
        if mid is None:
            errors.append(f"level {index}: midpoint LP infeasible inside a feasible box")
            continue
        value, scale = mid
        tol = RTOL * max(1.0, scale)
        if not lo - tol <= value <= hi + tol:
            errors.append(f"level {index}: midpoint optimum {value} outside [{lo}, {hi}]")
    return errors


def references(workload, cli, scratch: Path) -> dict:
    """Reference answers by label, for invocations whose check needs one."""
    refs = {}
    for inv in workload.invocations:
        if inv.check == "crisp":
            d = inv.ref["data"]
            refs[inv.label] = _distribution_optimum(
                d["supply_max"], d["demand_max"], d["purchase_min"], d["sale_min"],
                d["sale_price"][None, :] - d["purchase_price"][:, None] - d["transport_cost"],
            )
        elif inv.check == "transport":
            d = inv.ref["data"]
            refs[inv.label] = _transport_optimum(d["supplies"], d["demands"], d["costs"])
        elif inv.check in ("fuzzy", "compare"):
            export = scratch / f"{inv.label}.canonical.json"
            refs[inv.label] = _midpoint_optima(cli, inv.ref["problem"], inv.ref["levels"], export)
    return refs


def _midpoint_optima(cli, problem: Path, levels: int, export: Path) -> list:
    """Optimum at the midpoint of every alpha-level box, or None if infeasible.

    The problem goes through the CLI's own parser and canonical export, so
    every parameter arrives as the quadruple the solver used.
    """
    cli.export_problem(cli.parse_problem(problem), export)
    doc = json.loads(export.read_text())
    optima = []
    for index in range(levels):
        alpha = index / (levels - 1)

        def mid(quads):
            q = np.asarray(quads, dtype=float)
            return 0.5 * ((q[..., 0] + alpha * (q[..., 1] - q[..., 0]))
                          + (q[..., 3] - alpha * (q[..., 3] - q[..., 2])))

        profit = mid(doc["sale_price"])[None, :] - mid(doc["purchase_price"])[:, None]
        optima.append(_distribution_optimum(
            mid(doc["supply_max"]), mid(doc["demand_max"]),
            mid(doc["purchase_min"]), mid(doc["sale_min"]),
            profit - mid(doc["transport_cost"]),
        ))
    return optima


def _lane_sums(m: int, n: int):
    from scipy.sparse import eye, kron, vstack

    rows = kron(eye(m), np.ones((1, n)))
    cols = kron(np.ones((1, m)), eye(n))
    return vstack([rows, cols]).tocsr()


def _distribution_optimum(supply_max, demand_max, purchase_min, sale_min, profit):
    """(max benefit, magnitude of its terms), or None when infeasible."""
    from scipy.optimize import linprog
    from scipy.sparse import vstack

    m, n = profit.shape
    sums = _lane_sums(m, n)
    res = linprog(
        -profit.ravel(),
        A_ub=vstack([sums, -sums]),
        b_ub=np.concatenate([supply_max, demand_max, -purchase_min, -sale_min]),
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference solve failed: {res.message}")
    return -res.fun, float(np.abs(profit.ravel()) @ np.abs(res.x))


def _transport_optimum(supplies, demands, costs):
    from scipy.optimize import linprog

    m, n = costs.shape
    res = linprog(
        costs.ravel().astype(float),
        A_eq=_lane_sums(m, n),
        b_eq=np.concatenate([supplies, demands]).astype(float),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference solve failed: {res.message}")
    return float(res.fun), float(np.abs(costs.ravel()) @ np.abs(res.x))
