#!/usr/bin/env python3
"""Fast self-check of the benchmark harness at toy sizes.

    python3 bench/smoke.py

Runs every workload at the "tiny" sizes, once untraced and twice traced.
It checks each result object against BENCHMARK.json and checks that the
two traced runs agree on every exact count. It also shows two refusals:
the answer check fires when the expected table1 optimum is wrong, and
the benchmark exits nonzero, printing no result, in a directory without
the package source. Exits 0 when every check holds.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

TIMED_UNITS = ("s", "us", "ns/cell")
problems = []


def expect(ok: bool, message: str):
    if not ok:
        problems.append(message)


def validate(result: dict, section: str, where: str):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    expect(result["correct"] is True, f"{where}: not correct")
    attempted = result["attempted"]
    expect(isinstance(attempted, int) and attempted >= 1, f"{where}: attempted {attempted!r}")
    expect(result["failed"] == 0, f"{where}: {result['failed']} failed")
    names = [m["name"] for m in run.SPEC[section]]
    expect(list(result["metrics"]) == names, f"{where}: metric names differ from {section}")
    for spec in run.SPEC[section]:
        metric = result["metrics"].get(spec["name"], {})
        value = metric.get("value")
        expect(set(metric) == {"value", "unit"}, f"{where}: {spec['name']} keys")
        expect(metric.get("unit") == spec["unit"], f"{where}: {spec['name']} unit")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        expect(number and math.isfinite(value), f"{where}: {spec['name']} value {value!r}")


def exact_counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] not in TIMED_UNITS}


def measure(cli, name: str, trace: bool, work: Path, edit=None):
    workload = workloads.build(name, 1, work / "inputs", "tiny")
    if edit is not None:
        edit(workload)
    result, _ = run.measure(cli, workload, 0, trace, work, setup_repeats=1)
    return result


def main() -> int:
    cli = run.load_cli()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK))
    try:
        for name in workloads.NAMES:
            validate(measure(cli, name, False, work / name), "end_to_end", f"{name} untraced")
            first = measure(cli, name, True, work / name)
            validate(first, "per_layer", f"{name} traced")
            second = measure(cli, name, True, work / name)
            expect(exact_counts(first) == exact_counts(second), f"{name}: counts differ")

        def wrong_optimum(workload):
            anchor = next(inv for inv in workload.invocations if inv.check == "anchor")
            anchor.ref["expected"] += 1.0

        bad = measure(cli, "mc-table1", False, work / "wrong", wrong_optimum)
        expect(not bad["correct"] and bad["failed"] >= 1, "a wrong expected optimum passed")

        bare = work / "bare"
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            Path(__file__).parent, bare / "bench", ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "mc-table1", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        expect(proc.returncode != 0 and "{" not in proc.stdout, "ran without the package source")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in problems:
        print(f"FAIL {message}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
