"""Command line front end.

Five run modes over one JSON problem format: solve the crisp midpoint
problem, run the alpha-cut fuzzy solve, propagate Gaussian uncertainty
by Monte Carlo, compare the last two, or convert a raw sample or
histogram file into a trapezoid quadruple. Result files are plot-ready
CSV/JSON with numbers at 9 significant digits so repeated runs diff
cleanly; problem export keeps full precision so round-trips are exact.
A failure raises, and main alone maps it to an exit code and prints its
one error line: 2 for an OSError or ValueError (a bad option or file),
3 for an InfeasibleError (no feasible answer) and 4 for a RuntimeError
(a solver that failed to terminate).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .basis import _BasisCache
from .fuzzy import AlphaGrid, TrapezoidalFuzzyNumber
from .fuzzy_solver import fit_trapezoid, solve_fuzzy
from .ingest import (
    DEFAULT_GAMMA_CORE,
    DEFAULT_GAMMA_SUPPORT,
    _check_levels,
    _fmt_row,
    ecdf_from_histogram,
    ecdf_from_samples,
    gaussian_to_trapezoid,
    read_histogram_csv,
    read_samples,
    to_trapezoid,
)
from .model import (
    FIELDS,
    DistributionProblem,
    ParameterTable,
    feasibility_precheck,
    lanes,
    midpoint_instance,
    to_lp,
)
from .monte_carlo import ParameterSpecs, compare
from .monte_carlo import run as mc_run
from .transport import (
    TransportInstance,
    check_balance,
    modi_optimize,
    plan_cost,
    vogel_approximation,
)

EXIT_OK = 0
EXIT_USAGE = 2  # parse/schema/IO failures; argparse uses 2 as well
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4  # an LP or transport iteration failed to terminate

MODES = ("crisp", "fuzzy", "montecarlo", "compare", "ingest")


class ProblemFormatError(ValueError):
    """Schema or value violation in a problem file, with field path."""


class InfeasibleError(Exception):
    """The problem has no feasible answer; main exits 3."""


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _jsonable(obj):
    """Floats rounded to 9 significant digits; non-finite ones to strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _float_texts(values):
    """JSON texts of _jsonable(values) if every value is a finite float, else None.

    The whole list is rounded in one % call; "n" appears in that text
    only where a value was inf or nan.
    """
    if set(map(type, values)) != {float}:
        return None
    text = _fmt_row(values)
    if "n" in text:
        return None
    return list(map(repr, map(float, text.split(","))))


def _json_text(obj, indent: str = "") -> str:
    """json.dumps(_jsonable(obj), indent=2), each line after the first indented by indent.

    json.dumps with an indent runs the pure-Python encoder, which calls
    Python code twice per float; here a list of finite floats takes one
    pass through _float_texts and every other value _jsonable's rule.
    """
    inner = indent + "  "
    if isinstance(obj, (list, tuple)) and obj:
        items = _float_texts(obj) or [_json_text(v, inner) for v in obj]
        brackets = "[]"
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (dict, list, tuple)):  # empty, or keys json.dumps converts
        return json.dumps(_jsonable(obj), indent=2).replace("\n", "\n" + indent)
    else:
        return json.dumps(_jsonable(obj))
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_text(payload) + "\n")


def _write_csv(path: Path, header, lines) -> None:
    path.write_text("\n".join([",".join(header), *lines]) + "\n")


def _quad(t: TrapezoidalFuzzyNumber):
    return [t.a, t.b, t.c, t.d]


def _rows(per_lane, shape):
    """Lane-order values as M rows of N, the layout of the JSON files."""
    m, n = shape
    return [list(per_lane[start : start + n]) for start in range(0, m * n, n)]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _all_numbers(values) -> bool:
    """_is_number over a list of JSON values, in one pass: JSON gives exact types."""
    return set(map(type, values)) <= {int, float}


def _float(value, where) -> float:
    """A JSON number as a finite float.

    JSON integers may exceed the float range, and Python's reader turns
    1e400 into inf and accepts NaN and Infinity.
    """
    try:
        number = float(value)
    except OverflowError:
        raise ProblemFormatError(f"{where}: integer too large for a float") from None
    if not math.isfinite(number):
        raise ProblemFormatError(f"{where}: must be finite, got {value}")
    return number


def _floats(values, where) -> tuple:
    """A list of JSON numbers as finite floats; an error names entry where[k].

    Converts in bulk, and goes entry by entry (raising at the bad one)
    only when that fails: transport cost matrices run to tens of
    thousands of entries.
    """
    try:
        numbers = tuple(map(float, values))
        if all(map(math.isfinite, numbers)):
            return numbers
    except OverflowError:
        pass
    return tuple(_float(v, f"{where}[{k}]") for k, v in enumerate(values))


class _Where:
    """An entry's location, field[i][j], spelled out only when a message needs it."""

    __slots__ = ("name", "index")

    def __init__(self, name, index):
        self.name, self.index = name, index

    def __str__(self):
        return self.name + "".join(f"[{k}]" for k in self.index)


def _read_trapezoid(path: Path, histogram: bool, gamma_core, gamma_support):
    """The trapezoid of a histogram CSV or a samples file; every ValueError names path once."""
    try:
        data = read_histogram_csv(path) if histogram else read_samples(path)
    except OSError as exc:  # strerror: the message without the path again
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:  # the readers' messages name the file; these do not
        ecdf = ecdf_from_histogram(data) if histogram else ecdf_from_samples(data)
        return to_trapezoid(ecdf, gamma_core, gamma_support)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _as_trapezoid(value, where, base_dir, gamma_core, gamma_support):
    """One entry as a trapezoid. Only _float's errors name where; the caller prefixes the rest."""
    if _is_number(value):
        return TrapezoidalFuzzyNumber.crisp(_float(value, where))
    if isinstance(value, list):
        if len(value) != 4 or not _all_numbers(value):
            raise ValueError("quadruple must be four numbers")
        return TrapezoidalFuzzyNumber(*_floats(value, where))
    keys = set(value) if isinstance(value, dict) else None
    if keys == {"mean", "sigma"}:
        if not (_is_number(value["mean"]) and _is_number(value["sigma"])):
            raise ValueError("mean and sigma must be numbers")
        mean, sigma = _float(value["mean"], where), _float(value["sigma"], where)
        return gaussian_to_trapezoid(mean, sigma, gamma_core, gamma_support)
    if keys == {"histogram"} or keys == {"samples"}:
        (form,) = keys
        if not isinstance(value[form], str):
            raise ValueError(f"{form} reference must be a path string")
        path = base_dir / value[form]
        return _read_trapezoid(path, form == "histogram", gamma_core, gamma_support)
    raise ValueError(
        "expected a number, [a,b,c,d], {mean,sigma}, {histogram: path} or {samples: path}"
    )


def _parse_distribution(raw, path, gamma_core, gamma_support) -> DistributionProblem:
    unknown = set(raw) - {"schema_version", "kind"} - {f.name for f in FIELDS}
    if unknown:
        raise ProblemFormatError(f"unknown fields: {sorted(unknown)}")
    entries = {}
    for f in FIELDS:
        if f.name not in raw:
            if f.optional:
                continue
            raise ProblemFormatError(f"{f.name}: missing required field")
        value = raw[f.name]
        if not isinstance(value, list):
            raise ProblemFormatError(f"{f.name}: must be a list")
        if f.axis == "lanes":
            for i, row in enumerate(value):
                if not isinstance(row, list):
                    raise ProblemFormatError(f"{f.name}[{i}]: must be a list")
        entries[f.name] = value
    try:
        table = ParameterTable(**entries)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None

    def convert(field, index, value):
        if type(value) is float and -math.inf < value < math.inf:
            return TrapezoidalFuzzyNumber.crisp(value)
        where = _Where(field.name, index)
        try:
            return _as_trapezoid(value, where, path.parent, gamma_core, gamma_support)
        except ProblemFormatError:  # _float's, which names the entry already
            raise
        except ValueError as exc:
            raise ProblemFormatError(f"{where}: {exc}") from None

    return table.map(DistributionProblem, convert)


def _parse_transport(raw, path) -> TransportInstance:
    unknown = set(raw) - {"schema_version", "kind", "supplies", "demands", "costs"}
    if unknown:
        raise ProblemFormatError(f"unknown fields: {sorted(unknown)}")
    for field in ("supplies", "demands", "costs"):
        if field not in raw:
            raise ProblemFormatError(f"{field}: missing required field")

    def numbers(value, where):
        if not isinstance(value, list) or not _all_numbers(value):
            raise ProblemFormatError(f"{where}: must be a list of numbers")
        return _floats(value, where)

    supplies = numbers(raw["supplies"], "supplies")
    demands = numbers(raw["demands"], "demands")
    costs = raw["costs"]
    if not isinstance(costs, list) or len(costs) != len(supplies):
        raise ProblemFormatError(f"costs: must be a list of {len(supplies)} rows")
    matrix = tuple(numbers(row, f"costs[{i}]") for i, row in enumerate(costs))
    try:
        return TransportInstance(supplies, demands, matrix)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None


def parse_problem(
    file,
    gamma_core: float = DEFAULT_GAMMA_CORE,
    gamma_support: float = DEFAULT_GAMMA_SUPPORT,
):
    """Read a problem JSON into a DistributionProblem or TransportInstance.

    Each distribution parameter may be a crisp number, a trapezoid
    quadruple [a,b,c,d], a gaussian {"mean","sigma"}, or a reference to
    a sidecar file ({"histogram": path} of bin CSV rows, {"samples":
    path} of one value per line, relative to the problem file). All
    forms are normalized to trapezoids at the given confidence levels.
    The file is UTF-8, and a leading byte-order mark is skipped.
    """
    path = Path(file)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ProblemFormatError(f"{path}: top level must be a JSON object")
    version = raw.get("schema_version")
    if version != 1 or isinstance(version, bool):  # True == 1
        raise ProblemFormatError(f"{path}: schema_version must be 1, got {version!r}")
    kind = raw.get("kind", "distribution")
    if kind == "transport":
        return _parse_transport(raw, path)
    if kind != "distribution":
        raise ProblemFormatError(f"{path}: kind must be 'distribution' or 'transport'")
    return _parse_distribution(raw, path, gamma_core, gamma_support)


def export_problem(problem, file) -> None:
    """Canonical JSON for a parsed problem; parse_problem reads it back equal.

    Every fuzzy parameter is written in quadruple form at full float
    precision (the 9-digit rule applies to analysis outputs, not to
    problem files, where rounding would break the round-trip).
    """
    path = Path(file)
    if isinstance(problem, TransportInstance):
        payload = {
            "schema_version": 1,
            "kind": "transport",
            "supplies": list(problem.supplies),
            "demands": list(problem.demands),
            "costs": [list(row) for row in problem.costs],
        }
    else:
        payload = {"schema_version": 1, "kind": "distribution"}
        payload.update(problem.map(dict, lambda field, index, t: _quad(t)))
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _run_crisp(config: argparse.Namespace, problem) -> None:
    out = config.out_dir / "crisp_solution.json"
    if isinstance(problem, TransportInstance):
        if not check_balance(problem):
            raise InfeasibleError("transport instance is unbalanced")
        costs = np.array(problem.costs, dtype=float)
        start = vogel_approximation(costs, list(problem.supplies), list(problem.demands))
        plan = modi_optimize(costs, *start)
        if plan is None:
            raise RuntimeError("potentials method failed to terminate")
        total = plan_cost(problem.costs, plan[0])
        if not math.isfinite(total):
            raise ValueError("optimal total cost must be finite")
        _write_json(out, {"status": "optimal", "total_cost": total, "shipments": plan[0]})
        return
    inst = midpoint_instance(problem)
    report = feasibility_precheck(inst)  # names what phase 1 would only report
    if report:
        lp = to_lp(inst)
        feasible, benefit, x = _BasisCache(problem.shape).answer(lp.c[None], lp.b[None])
    if not (report and feasible[0]):
        _write_json(out, {"status": "infeasible", "benefit": None, "shipments": None})
        detail = "" if report else ": " + "; ".join(report.violations)
        raise InfeasibleError(f"crisp problem is infeasible{detail}")
    rows = _rows(x[0].tolist(), problem.shape)
    _write_json(out, {"status": "optimal", "benefit": float(benefit[0]), "shipments": rows})


def _run_fuzzy(config: argparse.Namespace, problem: DistributionProblem):
    fz = solve_fuzzy(problem, AlphaGrid.uniform(config.alpha_levels))
    names = lanes(fz.shape)
    header = ["alpha"]
    for name in ("D", *names):
        header.extend([f"{name}_lo", f"{name}_hi"])
    header.extend(["feasible", "repaired"])
    lines = []
    for level in fz.levels:
        if level.feasible:
            line = _fmt_row([level.alpha, *level.cuts.ravel().tolist()])
        else:
            line = _fmt(level.alpha) + "," * (2 + 2 * len(names))
        lines.append(f"{line},{str(level.feasible).lower()},{str(level.repaired).lower()}")
    _write_csv(config.out_dir / "fuzzy_levels.csv", header, lines)
    try:
        traps = fit_trapezoid(fz)
    except ValueError as exc:  # level 0 or 1 infeasible
        raise InfeasibleError(str(exc)) from None
    quads = {name: _quad(t) for name, t in zip(("D", *names), traps)}
    _write_json(config.out_dir / "fuzzy_quadruples.json", quads)
    return fz


def _hist_rows(hist):
    """Rows of bin_lo,bin_hi,count to 9 digits, but an edge at the float
    maximum in full: 9 digits round it below the values its bin holds."""
    top = sys.float_info.max
    edges = [
        repr(edge) if abs(edge) == top else text
        for edge, text in zip(hist.bin_edges, _fmt_row(hist.bin_edges).split(","))
    ]
    return list(map(",".join, zip(edges, edges[1:], _fmt_row(hist.counts).split(","))))


def _run_montecarlo(config: argparse.Namespace, problem: DistributionProblem):
    specs = ParameterSpecs.from_problem(problem, config.gamma_support)
    mc = mc_run(specs, config.mc_steps, config.seed)
    summary = {  # means and stds are None where no step is feasible
        "steps": mc.steps,
        "seed": mc.seed,
        "feasible": mc.feasible_count,
        "infeasible": mc.infeasible_count,
        "benefit_mean": mc.means and mc.means[0],
        "benefit_std": mc.stds and mc.stds[0],
        "shipment_means": mc.means and _rows(mc.means[1:], mc.shape),
        "shipment_stds": mc.stds and _rows(mc.stds[1:], mc.shape),
    }
    _write_json(config.out_dir / "mc_summary.json", summary)
    if mc.feasible_count == 0:
        raise InfeasibleError("every Monte Carlo scenario was infeasible")
    header = ["bin_lo", "bin_hi", "count"]
    for name, hist in zip(("D", *lanes(mc.shape)), mc.histograms):
        _write_csv(config.out_dir / f"mc_hist_{name}.csv", header, _hist_rows(hist))
    return mc


def _run_ingest(config: argparse.Namespace) -> None:
    path = config.problem
    histogram = path.suffix.lower() == ".csv"
    trap = _read_trapezoid(path, histogram, config.gamma_core, config.gamma_support)
    _write_json(
        config.out_dir / "ingest_quadruple.json",
        {
            "source": path.name,
            "gamma_core": config.gamma_core,
            "gamma_support": config.gamma_support,
            "quadruple": _quad(trap),
        },
    )


def run(config: argparse.Namespace) -> None:
    """Execute one run of the parsed options, which main has checked.

    A failure raises after the files written before it: compare mode
    writes the fuzzy files, then the Monte Carlo ones, then the comparison.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.mode == "ingest":
        return _run_ingest(config)
    problem = parse_problem(config.problem, config.gamma_core, config.gamma_support)
    if config.export_problem is not None:
        export_problem(problem, config.export_problem)
    if config.mode == "crisp":
        return _run_crisp(config, problem)
    if isinstance(problem, TransportInstance):
        raise ProblemFormatError(f"mode {config.mode} needs a distribution problem file")
    if config.mode != "montecarlo":
        fz = _run_fuzzy(config, problem)
    if config.mode != "fuzzy":
        mc = _run_montecarlo(config, problem)
    if config.mode == "compare":
        payload = compare(fz, mc, config.gamma_core, config.gamma_support)
        _write_json(config.out_dir / "comparison.json", payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyplan",
        description="Distribution planning under uncertainty: crisp, fuzzy "
        "alpha-cut, and Monte Carlo solvers over one JSON problem format.",
    )
    parser.add_argument(
        "problem",
        type=Path,
        help="problem JSON file; in ingest mode, a samples .txt or histogram .csv",
    )
    parser.add_argument("--mode", choices=MODES, default="crisp")
    parser.add_argument("--alpha-levels", type=int, default=11, metavar="K")
    parser.add_argument("--mc-steps", type=int, default=10_000, metavar="N")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--gamma-core", type=float, default=DEFAULT_GAMMA_CORE)
    parser.add_argument("--gamma-support", type=float, default=DEFAULT_GAMMA_SUPPORT)
    parser.add_argument("--out-dir", type=Path, default=Path("."), metavar="DIR")
    parser.add_argument(
        "--export-problem",
        type=Path,
        metavar="FILE",
        help="also write the parsed problem back out in canonical quadruple form",
    )
    return parser


def _check_options(args: argparse.Namespace) -> None:
    """The option values argparse's types let through, refused in this order."""
    _check_levels(args.gamma_core, args.gamma_support)
    if args.alpha_levels < 2:
        raise ValueError(f"need at least 2 alpha levels, got {args.alpha_levels}")
    if args.mc_steps < 1:
        raise ValueError(f"need at least one Monte Carlo step, got {args.mc_steps}")
    if args.seed < 0:
        raise ValueError(f"need a seed >= 0, got {args.seed}")


def main(argv=None) -> int:
    """Run the command line argv; the one place a failure becomes an error line and a code."""
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)  # before run, so a refused option writes nothing
        run(args)
        return EXIT_OK
    except (OSError, ValueError) as exc:  # ProblemFormatError is a ValueError
        failure, code = exc, EXIT_USAGE
    except InfeasibleError as exc:
        failure, code = exc, EXIT_INFEASIBLE
    except RuntimeError as exc:
        failure, code = exc, EXIT_SOLVER
    print(f"error: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
