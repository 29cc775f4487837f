"""Outside-in tracing of fuzzyplan's layers.

fuzzyplan's modules import functions by name (`from .simplex import
solve`), so patching `fuzzyplan.simplex.solve` would miss every call made
through `monte_carlo.solve`. Each hook therefore replaces the attribute
where the caller looks the function up. A wrapper passes its arguments
and return value through unchanged, times the call, and charges its whole
duration, bookkeeping included, to the parent span's children, so a
parent's self time excludes the tracer's own work.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (module whose attribute is looked up, attribute, span name = layer.function)
HOOKS = (
    ("cli", "main", "cli.main"),
    ("cli", "run", "cli.run"),
    ("cli", "parse_problem", "cli.parse_problem"),
    ("cli", "gaussian_to_trapezoid", "ingest.gaussian_to_trapezoid"),
    ("cli", "read_samples", "ingest.read_samples"),
    ("cli", "read_histogram_csv", "ingest.read_histogram_csv"),
    ("cli", "ecdf_from_samples", "ingest.ecdf_from_samples"),
    ("cli", "ecdf_from_histogram", "ingest.ecdf_from_histogram"),
    ("cli", "to_trapezoid", "ingest.to_trapezoid"),
    ("cli", "to_lp", "model.to_lp"),
    ("cli", "solve", "simplex.solve"),
    ("cli", "check_balance", "transport.check_balance"),
    ("cli", "vogel_approximation", "transport.vogel_approximation"),
    ("cli", "modi_optimize", "transport.modi_optimize"),
    ("cli", "plan_cost", "transport.plan_cost"),
    ("cli", "solve_fuzzy", "fuzzy_solver.solve_fuzzy"),
    ("cli", "fit_trapezoid", "fuzzy_solver.fit_trapezoid"),
    ("cli", "mc_run", "monte_carlo.run"),
    ("cli", "compare", "monte_carlo.compare"),
    ("fuzzy_solver", "to_lp", "model.to_lp"),
    ("fuzzy_solver", "solve", "simplex.solve"),
    ("fuzzy_solver", "enforce_nesting", "fuzzy_solver.enforce_nesting"),
    ("monte_carlo", "run_range", "monte_carlo.run_range"),
    ("monte_carlo", "finalize", "monte_carlo.finalize"),
    ("monte_carlo", "sample_instance", "monte_carlo.sample_instance"),
    ("monte_carlo", "to_lp", "model.to_lp"),
    ("monte_carlo", "solve", "simplex.solve"),
    ("monte_carlo", "ecdf_from_histogram", "ingest.ecdf_from_histogram"),
    ("monte_carlo", "to_trapezoid", "ingest.to_trapezoid"),
)


def tableau_cells(lp) -> int:
    """Cells of the dense two-phase tableau simplex.solve builds for `lp`.

    Rows are the constraints plus the objective; columns are the
    variables, one slack per inequality, one artificial per >= or =
    row after rows with negative right-hand sides are flipped, and the
    right-hand side.
    """
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    slack = artificial = 0
    for _, rel, rhs in lp.constraints:
        rel = flip[rel] if rhs < 0 else rel
        slack += rel != "="
        artificial += rel != "<="
    return (len(lp.constraints) + 1) * (lp.n_vars + slack + artificial + 1)


class Tracer:
    """Install with `with Tracer() as t:`; read per-pass figures with metrics()."""

    def __init__(self):
        self._saved = []
        self.missing = []  # hooks whose attribute no longer exists
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.solves = []  # (status, pivots, tableau cells, seconds) per simplex solve
        self.repaired_levels = 0
        self._open = []  # child time accumulated by each open span

    def __enter__(self):
        self.missing = []
        for module, attr, name in HOOKS:
            mod = importlib.import_module(f"fuzzyplan.{module}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    def _wrap(self, name, fn):
        observe = {
            "simplex.solve": self._observe_solve,
            "fuzzy_solver.solve_fuzzy": self._observe_fuzzy,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            self._open.append(0.0)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = perf_counter() - start
                child = self._open.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                self.durations[name].append(elapsed)
                if ok and observe is not None:
                    observe(args, kwargs, result, elapsed)
                if self._open:
                    self._open[-1] += perf_counter() - enter

        return traced

    def _observe_solve(self, args, kwargs, sol, elapsed):
        lp = args[0] if args else kwargs["lp"]
        self.solves.append((sol.status, sol.iterations, tableau_cells(lp), elapsed))

    def _observe_fuzzy(self, args, kwargs, sol, elapsed):
        self.repaired_levels += sum(1 for level in sol.levels if level.repaired)

    def metrics(self) -> dict:
        """Whole-pass figures: totals, self times and exact counts."""
        total, own, calls = self.total, self.self_time, self.calls
        pivots = sum(s[1] for s in self.solves)
        cells = sum(s[1] * s[2] for s in self.solves)
        solve_s = sum(s[3] for s in self.solves)
        return {
            "simplex.solve.calls": len(self.solves),
            "simplex.pivots": pivots,
            "simplex.pivots_per_solve": pivots / len(self.solves) if self.solves else 0.0,
            "simplex.pivot_cells": cells,
            "simplex.ns_per_cell": solve_s / cells * 1e9 if cells else 0.0,
            "monte_carlo.run.self_s": own["monte_carlo.run"] + own["monte_carlo.run_range"],
            "monte_carlo.finalize_s": total["monte_carlo.finalize"],
            "fuzzy_solver.corner_s": (
                total["fuzzy_solver.solve_fuzzy"] - total["fuzzy_solver.enforce_nesting"]
            ),
            "fuzzy_solver.nesting_s": total["fuzzy_solver.enforce_nesting"],
            "fuzzy_solver.repaired_levels": self.repaired_levels,
            "cli.self_s": own["cli.main"] + own["cli.run"],
            "cli.parse_s": total["cli.parse_problem"],
            "ingest.s": sum(v for k, v in total.items() if k.startswith("ingest.")),
            "ingest.calls": sum(v for k, v in calls.items() if k.startswith("ingest.")),
            "transport.vogel_s": total["transport.vogel_approximation"],
            "transport.modi_s": total["transport.modi_optimize"],
        }

    def call_samples(self) -> dict:
        """Per-call durations in microseconds, for the medians reported as *.us."""
        return {
            "simplex.solve.optimal.us": [s[3] * 1e6 for s in self.solves if s[0] == "optimal"],
            "simplex.solve.infeasible.us": [
                s[3] * 1e6 for s in self.solves if s[0] == "infeasible"
            ],
            "model.to_lp.us": [d * 1e6 for d in self.durations["model.to_lp"]],
            "monte_carlo.sample.us": [
                d * 1e6 for d in self.durations["monte_carlo.sample_instance"]
            ],
        }
