"""The benchmark's workloads: generated inputs and the CLI calls made on them.

A workload is one list of CLI invocations, called a pass; the harness
repeats the pass for the length of a run. Inputs are a pure function of
the seed, and the program sees only the files written here. README.md
says why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "fuzzyplan" / "data"
TABLE1 = DATA / "table1.json"
TABLE1_EXPECTED = DATA / "table1_expected.json"

NAMES = ("mc-table1", "fuzzy-sweep", "crisp-scale")

# "full" is the benchmark; "tiny" keeps every code path at toy sizes for smoke.py.
SIZES = {
    "full": {
        "mc_steps": 10_000,
        "mc_levels": 11,
        "sweep_size": 15,
        "sweep_levels": 51,
        "sweep_samples": 400,
        "crisp_sizes": (10, 20, 30, 40),
        "instances": 2,
        "transport_size": 100,
        "transport_instances": 4,
    },
    "tiny": {
        "mc_steps": 200,
        "mc_levels": 5,
        "sweep_size": 4,
        "sweep_levels": 5,
        "sweep_samples": 50,
        "crisp_sizes": (3, 5),
        "instances": 1,
        "transport_size": 8,
        "transport_instances": 1,
    },
}


@dataclass
class Invocation:
    """One CLI call; `check` names the answer check in checks.py."""

    label: str  # output subdirectory, unique within the workload
    metric: str  # name its time is reported under; instances of one size share it
    argv: list  # CLI arguments, without --out-dir
    check: str  # anchor | compare | fuzzy | crisp | transport
    ref: dict = field(default_factory=dict)  # what the check needs


@dataclass
class Workload:
    name: str
    problem_files: list  # parsed by the set-up measurement
    invocations: list


def build(name: str, seed: int, inputs: Path, size: str = "full") -> Workload:
    """Write the workload's inputs under `inputs` and list its invocations."""
    inputs.mkdir(parents=True, exist_ok=True)
    params = SIZES[size]
    if name == "mc-table1":
        return _mc_table1(seed, params)
    if name == "fuzzy-sweep":
        return _fuzzy_sweep(np.random.default_rng(seed), inputs, params)
    if name == "crisp-scale":
        return _crisp_scale(np.random.default_rng(seed), inputs, params)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def _mc_table1(seed: int, params: dict) -> Workload:
    steps, levels = params["mc_steps"], params["mc_levels"]
    expected = json.loads(TABLE1_EXPECTED.read_text())["benefit"]
    compare = Invocation(
        "compare",
        "compare_s",
        [str(TABLE1), "--mode", "compare", "--mc-steps", str(steps),
         "--alpha-levels", str(levels), "--seed", str(seed)],
        "compare",
        {"problem": TABLE1, "levels": levels, "steps": steps, "seed": seed},
    )
    # the paper's crisp optimum anchors the run; its solve is ~1 ms of a ~4 s pass
    anchor = Invocation(
        "crisp", "anchor_s", [str(TABLE1), "--mode", "crisp"], "anchor", {"expected": expected}
    )
    return Workload("mc-table1", [TABLE1], [compare, anchor])


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc) + "\n")
    return path


def _fuzzy_sweep(rng, inputs: Path, params: dict) -> Workload:
    """A K x K problem whose parameters use every input form the CLI reads.

    Supplies come from raw sample files, demands from histogram files,
    contract minimums are quadruples, prices are Gaussians and haul costs
    mix numbers, quadruples and Gaussians. Supplier 1's purchase minimum
    and customer 1's sale minimum overlap their caps at low alpha, so the
    lowest levels are repaired; every other level is far from
    infeasible.
    """
    k, n_samples = params["sweep_size"], params["sweep_samples"]
    supply, demand = [], []
    supply_mean = rng.uniform(480.0, 520.0, k)
    demand_mean = rng.uniform(480.0, 520.0, k)
    for i in range(k):
        name = f"supply_{i + 1}.txt"
        values = rng.normal(supply_mean[i], 15.0, n_samples)
        (inputs / name).write_text("".join(f"{float(v)!r}\n" for v in values))
        supply.append({"samples": name})
    for j in range(k):
        name = f"demand_{j + 1}.csv"
        counts, edges = np.histogram(rng.normal(demand_mean[j], 15.0, n_samples), bins=20)
        rows = [
            f"{float(lo)!r},{float(hi)!r},{int(c)}" for lo, hi, c in zip(edges, edges[1:], counts)
        ]
        (inputs / name).write_text("bin_lo,bin_hi,count\n" + "\n".join(rows) + "\n")
        demand.append({"histogram": name})

    def minimums(base, cap_mean):
        quads = [[b - 30.0, b - 10.0, b + 10.0, b + 30.0] for b in base.tolist()]
        cap = float(cap_mean[0])
        quads[0] = [cap - 60.0, cap - 45.0, cap - 35.0, cap - 20.0]
        return quads

    def gaussians(means):
        sigmas = rng.uniform(5.0, 15.0, k)
        return [{"mean": m, "sigma": s} for m, s in zip(means.tolist(), sigmas.tolist())]

    costs = []
    for i in range(k):
        row = []
        for j, c in enumerate(rng.uniform(30.0, 500.0, k).tolist()):
            form = (i + j) % 3
            if form == 0:
                row.append(round(c, 2))
            elif form == 1:
                row.append([c - 15.0, c - 5.0, c + 5.0, c + 15.0])
            else:
                row.append({"mean": c, "sigma": 8.0})
        costs.append(row)
    doc = {
        "schema_version": 1,
        "kind": "distribution",
        "supply_max": supply,
        "demand_max": demand,
        "purchase_min": minimums(rng.uniform(150.0, 250.0, k), supply_mean),
        "sale_min": minimums(rng.uniform(150.0, 250.0, k), demand_mean),
        "purchase_price": gaussians(rng.uniform(450.0, 600.0, k)),
        "sale_price": gaussians(rng.uniform(950.0, 1200.0, k)),
        "transport_cost": costs,
    }
    problem = _write_json(inputs / "sweep.json", doc)
    levels = params["sweep_levels"]
    fuzzy = Invocation(
        f"fuzzy-{k}x{k}",
        f"fuzzy_s.{k}x{k}",
        [str(problem), "--mode", "fuzzy", "--alpha-levels", str(levels)],
        "fuzzy",
        {"problem": problem, "levels": levels},
    )
    return Workload("fuzzy-sweep", [problem], [fuzzy])


def _crisp_scale(rng, inputs: Path, params: dict) -> Workload:
    """Cold crisp solves: distribution LPs by size, then balanced transport.

    Pivot and MODI iteration counts vary from instance to instance (by
    about 5% at 40x40 and 17% at 100x100), so each size gets several
    instances to keep a pass's work steady from seed to seed.
    """
    files, invocations = [], []
    count = params["instances"]
    for k in params["crisp_sizes"]:
        for t in range(1, count + 1):
            data = {
                "supply_max": rng.uniform(400.0, 600.0, k),
                "demand_max": rng.uniform(400.0, 600.0, k),
                "purchase_price": rng.uniform(450.0, 600.0, k),
                "sale_price": rng.uniform(950.0, 1200.0, k),
                "transport_cost": rng.uniform(10.0, 500.0, (k, k)),
            }
            # minimums at 20-50% of the caps keep every instance feasible
            data["purchase_min"] = data["supply_max"] * rng.uniform(0.2, 0.5, k)
            data["sale_min"] = data["demand_max"] * rng.uniform(0.2, 0.5, k)
            doc = {"schema_version": 1, "kind": "distribution"}
            doc.update({key: value.tolist() for key, value in data.items()})
            path = _write_json(inputs / f"crisp_{k}x{k}_{t}.json", doc)
            files.append(path)
            invocations.append(
                Invocation(
                    f"crisp-{k}x{k}-{t}", f"crisp_s.{k}x{k}", [str(path), "--mode", "crisp"],
                    "crisp", {"data": data},
                )
            )
    k = params["transport_size"]
    for t in range(1, params["transport_instances"] + 1):
        supplies = rng.integers(50, 150, k)
        # a multinomial split of the same total keeps the instance exactly balanced
        demands = rng.multinomial(int(supplies.sum()) - 50 * k, np.full(k, 1.0 / k)) + 50
        costs = rng.integers(1, 100, (k, k))
        doc = {
            "schema_version": 1,
            "kind": "transport",
            "supplies": supplies.tolist(),
            "demands": demands.tolist(),
            "costs": costs.tolist(),
        }
        path = _write_json(inputs / f"transport_{k}x{k}_{t}.json", doc)
        files.append(path)
        invocations.append(
            Invocation(
                f"transport-{k}x{k}-{t}",
                f"transport_s.{k}x{k}",
                [str(path), "--mode", "crisp"],
                "transport",
                {"data": {"supplies": supplies, "demands": demands, "costs": costs}},
            )
        )
    return Workload("crisp-scale", files, invocations)
