#!/usr/bin/env python3
"""Run one fuzzyplan benchmark workload through the CLI and print its metrics.

    python3 bench/run.py --workload mc-table1 --seed 1 --seconds 30 --trace 0

A pass calls fuzzyplan.cli.main in this process once per invocation of
the workload; the run repeats passes for --seconds and reports medians.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics. The last line of stdout is one JSON object, and the
lines before it are a readable summary with sample counts and output
digests. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

import ceilings
import checks
import workloads
from tracer import Tracer

ROOT = workloads.ROOT
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 9

# On a shared host the same pass can take 60% longer while neighbours are
# busy, and that state drifts over minutes, longer than a run. A fixed
# pure-Python loop is timed before and after every pass and every set-up,
# and each of those times is rescaled by QUIET_LOOP_S over the loop's mean
# time around it: the figure the pass would take on a quiet host.
CALIBRATION_LOOPS = 1_500_000
QUIET_LOOP_S = 0.08  # the loop on a quiet 2.1 GHz core, Python 3.11

# Runs in a fresh interpreter: import the CLI and parse the workload's problem files.
SETUP_SCRIPT = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fuzzyplan.cli as cli
for path in sys.argv[2:]:
    cli.parse_problem(path)
print(time.perf_counter() - start)
"""


def load_cli():
    """Import fuzzyplan.cli from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import fuzzyplan.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fuzzyplan was found at {cli.__file__}, outside {SRC}")
    return cli


def calibrate() -> float:
    """Seconds the fixed reference loop takes on this host right now."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    return seconds * QUIET_LOOP_S / (0.5 * (before + after))


def measure_setup(files, repeats: int) -> list:
    """Rescaled set-up seconds, one per fresh interpreter."""
    times = []
    before = calibrate()
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC), *map(str, files)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        after = calibrate()
        times.append(rescale(float(proc.stdout.split()[-1]), before, after))
        before = after
    return times


def _invoke(cli, argv):
    """Exit code of one CLI call; an escaped exception counts as a failed call."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed invocation, not a harness crash
        return f"{type(exc).__name__}: {exc}"


def run_pass(cli, workload, out: Path):
    """Every invocation once; returns (pass seconds, seconds by label, exit code by label)."""
    times, codes = {}, {}
    start = perf_counter()
    for inv in workload.invocations:
        t0 = perf_counter()
        codes[inv.label] = _invoke(cli, inv.argv + ["--out-dir", str(out / inv.label)])
        times[inv.label] = perf_counter() - t0
    return perf_counter() - start, times, codes


class Record:
    """What one run observed, pass by pass."""

    def __init__(self, workload):
        self.workload = workload
        self.walls = {False: [], True: []}  # rescaled pass seconds, untraced and traced
        self.raw_walls = []  # untraced pass seconds as the clock read them
        self.loops = []  # calibration seconds, one before each pass and one after the last
        self.times = defaultdict(list)  # invocation metric -> rescaled untraced seconds
        self.attempted = 0
        self.failures = {}  # (pass, label) -> first reason
        self.answers = []  # (pass, invocation, answer) awaiting a reference check
        self.digests = defaultdict(list)  # label -> {file: sha256} per pass
        self.layers = []  # Tracer.metrics() per traced pass
        self.calls = defaultdict(list)  # per-call microseconds over traced passes

    def fail(self, k, label, reason):
        self.failures.setdefault((k, label), reason)

    def check_pass(self, k, out: Path, codes: dict):
        for inv in self.workload.invocations:
            self.attempted += 1
            code = codes[inv.label]
            if code != 0:
                self.fail(k, inv.label, f"exit {code}")
                continue
            try:
                errors, answer = checks.check_output(inv, out / inv.label)
                self.digests[inv.label].append(checks.digests(out / inv.label))
            except Exception as exc:  # malformed or missing output fails the call
                errors, answer = [f"unreadable output: {type(exc).__name__}: {exc}"], None
            if errors:
                self.fail(k, inv.label, "; ".join(errors))
            else:
                self.answers.append((k, inv, answer))

    def check_references(self, refs: dict):
        for k, inv, answer in self.answers:
            if inv.label in refs:
                errors = checks.check_answer(inv, answer, refs[inv.label])
                if errors:
                    self.fail(k, inv.label, "; ".join(errors))


def measure(cli, workload, seconds: float, trace: bool, work: Path, setup_repeats=SETUP_REPEATS):
    """One run of `workload`; returns (result object, summary lines)."""
    rec = Record(workload)
    setup = [] if trace else measure_setup(workload.problem_files, setup_repeats)
    tracer = Tracer()
    rec.loops.append(calibrate())
    deadline = perf_counter() + seconds
    k = 0
    # a traced run alternates untraced and traced passes and needs one of each
    while k == 0 or perf_counter() < deadline or (trace and k < 2):
        traced = trace and k % 2 == 1
        out = work / f"pass{k}"
        gc.collect()  # each pass starts from the same heap, not from the last pass's garbage
        if traced:
            tracer.reset()
            with tracer:
                wall, times, codes = run_pass(cli, workload, out)
            rec.layers.append(tracer.metrics())
            for name, values in tracer.call_samples().items():
                rec.calls[name].extend(values)
        else:
            wall, times, codes = run_pass(cli, workload, out)
        rec.loops.append(calibrate())
        scale = rescale(1.0, *rec.loops[-2:])
        rec.walls[traced].append(wall * scale)
        if not traced:
            rec.raw_walls.append(wall)
            for inv in workload.invocations:
                rec.times[inv.metric].append(times[inv.label] * scale)
        rec.check_pass(k, out, codes)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec.check_references(checks.references(workload, cli, work))

    lines = [f"# workload {workload.name}: {k} passes, trace {int(trace)}"]
    if trace:
        values, counts = _layer_metrics(rec, ceilings.ceilings(workload))
        if tracer.missing:
            lines.append(f"# hooks not found, their layers read 0: {', '.join(tracer.missing)}")
        section = "per_layer"
    else:
        values = {
            "wall_s": median(rec.walls[False]),
            "setup_s": median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        counts = {"wall_s": len(rec.walls[False]), "setup_s": len(setup), "peak_rss_mb": 1}
        section = "end_to_end"
    metrics = {}
    for spec in SPEC[section]:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        lines.append(_row(name, values[name], spec["unit"], counts[name]))
    lines += _summary(rec)
    failed = len(rec.failures)
    result = {
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _layer_metrics(rec: Record, ceiling: dict):
    """Per-layer values and their sample counts, from the traced passes."""
    values = {name: median(p[name] for p in rec.layers) for name in rec.layers[0]}
    counts = dict.fromkeys(values, len(rec.layers))
    for name, samples in rec.calls.items():
        values[name] = median(samples) if samples else 0.0
        counts[name] = len(samples)
    values.update(ceiling)
    counts.update(dict.fromkeys(ceiling, 1))
    values["trace.overhead_s"] = median(rec.walls[True]) - median(rec.walls[False])
    counts["trace.overhead_s"] = min(len(rec.walls[True]), len(rec.walls[False]))
    return values, counts


def _row(name, value, unit, n) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{name:<34} {shown:>14} {unit:<8} n={n}"


def _summary(rec: Record) -> list:
    """Error rate, per-invocation times, untraced pass time and output digests."""
    failed, attempted = len(rec.failures), rec.attempted
    lines = [_row("error_rate", failed / attempted, f"({failed}/{attempted})", attempted)]
    lines.append(_row("wall_s.raw", median(rec.raw_walls), "s", len(rec.raw_walls)))
    lines.append(_row("calibration_loop_s", median(rec.loops), "s", len(rec.loops)))
    if rec.walls[True]:
        lines.append(_row("wall_s.untraced", median(rec.walls[False]), "s", len(rec.walls[False])))
        lines.append(_row("wall_s.traced", median(rec.walls[True]), "s", len(rec.walls[True])))
    for name, times in rec.times.items():
        lines.append(_row(name, median(times), "s", len(times)))
    for (k, label), reason in sorted(rec.failures.items())[:10]:
        lines.append(f"FAILED pass {k} {label}: {reason}")
    combined = []
    for label, per_pass in rec.digests.items():
        for file, sha in sorted(per_pass[0].items()):
            same = sum(d.get(file) == sha for d in per_pass)
            lines.append(f"sha256 {sha} {label}/{file} same in {same}/{len(per_pass)} passes")
            combined.append(f"{label}/{file} {sha}")
    if combined:
        total = hashlib.sha256("\n".join(combined).encode()).hexdigest()
        lines.append(f"sha256 {total} all outputs of {rec.workload.name}")
    return lines


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cli = load_cli()
    except ImportError as exc:
        print(f"error: cannot import fuzzyplan from {SRC}: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.build(args.workload, args.seed, work / "inputs")
        result, lines = measure(cli, workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
