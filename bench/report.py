#!/usr/bin/env python3
"""Every workload, untraced then traced, from one command.

    python3 bench/report.py --seed 1

Each run is its own process, so peak memory is per workload. The output
is each run's summary, with every metric by name, unit and sample count,
the error rate and the output digests, followed by its result line.
Exits with the worst exit code of the runs.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import run
import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run.SPEC["run_seconds"])
    args = parser.parse_args(argv)
    worst = 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            print(proc.stdout, end="", flush=True)
            sys.stderr.write(proc.stderr)
            worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
