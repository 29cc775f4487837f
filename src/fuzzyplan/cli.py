"""Command line front end.

Five run modes over one JSON problem format: solve the crisp midpoint
problem, run the alpha-cut fuzzy solve, propagate Gaussian uncertainty
by Monte Carlo, compare the last two, or convert a raw sample or
histogram file into a trapezoid quadruple. Result files are plot-ready
CSV/JSON with numbers at 9 significant digits so repeated runs diff
cleanly; problem export keeps full precision so round-trips are exact.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .basis import _BasisCache
from .fuzzy import AlphaGrid, TrapezoidalFuzzyNumber
from .fuzzy_solver import fit_trapezoid, solve_fuzzy
from .ingest import (
    DEFAULT_GAMMA_CORE,
    DEFAULT_GAMMA_SUPPORT,
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


@dataclass(frozen=True)
class RunConfig:
    mode: str
    problem: Path
    alpha_levels: int = 11
    mc_steps: int = 10_000
    seed: int = 42
    gamma_core: float = DEFAULT_GAMMA_CORE
    gamma_support: float = DEFAULT_GAMMA_SUPPORT
    out_dir: Path = Path(".")
    export_problem: Path | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.gamma_core < self.gamma_support < 1.0:
            raise ValueError(
                "need 0 < gamma_core < gamma_support < 1, got "
                f"({self.gamma_core}, {self.gamma_support})"
            )
        if self.alpha_levels < 2:
            raise ValueError(f"need at least 2 alpha levels, got {self.alpha_levels}")
        if self.mc_steps < 1:
            raise ValueError(f"need at least one Monte Carlo step, got {self.mc_steps}")
        if self.seed < 0:
            raise ValueError(f"need a seed >= 0, got {self.seed}")


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


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _quad(t: TrapezoidalFuzzyNumber):
    return [t.a, t.b, t.c, t.d]


def _rows(per_lane, shape):
    """Lane-order values as M rows of N, the layout of the JSON files; None stays None."""
    if per_lane is None:
        return None
    m, n = shape
    return [list(per_lane[start : start + n]) for start in range(0, m * n, n)]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


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


def _as_trapezoid(value, where, base_dir, gamma_core, gamma_support):
    if _is_number(value):
        return TrapezoidalFuzzyNumber.crisp(_float(value, where))
    if isinstance(value, list):
        if len(value) != 4 or not all(_is_number(v) for v in value):
            raise ProblemFormatError(f"{where}: quadruple must be four numbers")
        corners = _floats(value, where)
        try:
            return TrapezoidalFuzzyNumber(*corners)
        except ValueError as exc:
            raise ProblemFormatError(f"{where}: {exc}") from None
    if isinstance(value, dict):
        keys = set(value)
        if keys == {"mean", "sigma"}:
            if not (_is_number(value["mean"]) and _is_number(value["sigma"])):
                raise ProblemFormatError(f"{where}: mean and sigma must be numbers")
            mean, sigma = _float(value["mean"], where), _float(value["sigma"], where)
            try:
                return gaussian_to_trapezoid(mean, sigma, gamma_core, gamma_support)
            except ValueError as exc:
                raise ProblemFormatError(f"{where}: {exc}") from None
        if keys == {"histogram"} or keys == {"samples"}:
            (form,) = keys
            ref = value[form]
            if not isinstance(ref, str):
                raise ProblemFormatError(f"{where}: {form} reference must be a path string")
            path = base_dir / ref
            try:
                if form == "histogram":
                    ecdf = ecdf_from_histogram(read_histogram_csv(path))
                else:
                    ecdf = ecdf_from_samples(read_samples(path))
            except OSError as exc:
                raise ProblemFormatError(f"{where}: cannot read {path}: {exc}") from None
            except ValueError as exc:
                raise ProblemFormatError(f"{where}: {path}: {exc}") from None
            return to_trapezoid(ecdf, gamma_core, gamma_support)
    raise ProblemFormatError(
        f"{where}: expected a number, [a,b,c,d], {{mean,sigma}}, "
        "{histogram: path} or {samples: path}"
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
        where = field.name + "".join(f"[{k}]" for k in index)
        return _as_trapezoid(value, where, path.parent, gamma_core, gamma_support)

    return table.map(DistributionProblem, convert)


def _parse_transport(raw, path) -> TransportInstance:
    unknown = set(raw) - {"schema_version", "kind", "supplies", "demands", "costs"}
    if unknown:
        raise ProblemFormatError(f"unknown fields: {sorted(unknown)}")
    for field in ("supplies", "demands", "costs"):
        if field not in raw:
            raise ProblemFormatError(f"{field}: missing required field")

    def crisp_vector(field):
        value = raw[field]
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            raise ProblemFormatError(f"{field}: must be a list of numbers")
        return _floats(value, field)

    supplies = crisp_vector("supplies")
    demands = crisp_vector("demands")
    costs = raw["costs"]
    if not isinstance(costs, list) or len(costs) != len(supplies):
        raise ProblemFormatError(f"costs: must be a list of {len(supplies)} rows")
    matrix = []
    for i, row in enumerate(costs):
        if not isinstance(row, list) or not all(_is_number(v) for v in row):
            raise ProblemFormatError(f"costs[{i}]: must be a list of numbers")
        matrix.append(_floats(row, f"costs[{i}]"))
    try:
        return TransportInstance(supplies, demands, tuple(matrix))
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
    """
    path = Path(file)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ProblemFormatError(f"{path}: top level must be a JSON object")
    version = raw.get("schema_version")
    if version != 1:
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


def _run_crisp(config: RunConfig, problem) -> int:
    out = config.out_dir / "crisp_solution.json"
    if isinstance(problem, TransportInstance):
        if not check_balance(problem):
            print("error: transport instance is unbalanced", file=sys.stderr)
            return EXIT_INFEASIBLE
        plan = modi_optimize(problem, vogel_approximation(problem))
        total = plan_cost(problem, plan)
        if not math.isfinite(total):
            raise ValueError("optimal total cost must be finite")
        _write_json(
            out,
            {
                "status": "optimal",
                "total_cost": total,
                "shipments": [list(row) for row in plan.shipments],
            },
        )
        return EXIT_OK
    inst = midpoint_instance(problem)
    report = feasibility_precheck(inst)  # names what phase 1 would only report
    if report:
        lp = to_lp(inst)
        feasible, benefit, x = _BasisCache(problem.shape).answer(lp.c[None], lp.b[None])
    if not (report and feasible[0]):
        _write_json(out, {"status": "infeasible", "benefit": None, "shipments": None})
        detail = "" if report else ": " + "; ".join(report.violations)
        print(f"error: crisp problem is infeasible{detail}", file=sys.stderr)
        return EXIT_INFEASIBLE
    rows = _rows(x[0].tolist(), problem.shape)
    _write_json(out, {"status": "optimal", "benefit": float(benefit[0]), "shipments": rows})
    return EXIT_OK


def _run_fuzzy(config: RunConfig, problem: DistributionProblem):
    fz = solve_fuzzy(problem, AlphaGrid.uniform(config.alpha_levels))
    names = lanes(fz.shape)
    header = ["alpha"]
    for name in ("D", *names):
        header.extend([f"{name}_lo", f"{name}_hi"])
    header.extend(["feasible", "repaired"])
    rows = []
    for level in fz.levels:
        row = [_fmt(level.alpha)]
        if level.feasible:
            row.extend(map(_fmt, level.cuts.ravel().tolist()))
        else:
            row.extend([""] * (2 + 2 * len(names)))
        row.extend([str(level.feasible).lower(), str(level.repaired).lower()])
        rows.append(row)
    _write_csv(config.out_dir / "fuzzy_levels.csv", header, rows)
    try:
        quads = {"D": _quad(fit_trapezoid(fz, "benefit"))}
        for k, name in enumerate(names):
            quads[name] = _quad(fit_trapezoid(fz, k))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE, fz
    _write_json(config.out_dir / "fuzzy_quadruples.json", quads)
    return EXIT_OK, fz


def _hist_rows(hist):
    return [
        [_fmt(lo), _fmt(hi), _fmt(count)]
        for lo, hi, count in zip(hist.bin_edges, hist.bin_edges[1:], hist.counts)
    ]


def _run_montecarlo(config: RunConfig, problem: DistributionProblem):
    specs = ParameterSpecs.from_problem(problem, config.gamma_support)
    mc = mc_run(specs, config.mc_steps, config.seed)
    summary = {
        "steps": mc.steps,
        "seed": mc.seed,
        "feasible": mc.feasible_count,
        "infeasible": mc.infeasible_count,
        "benefit_mean": mc.benefit_mean,
        "benefit_std": mc.benefit_std,
        "shipment_means": _rows(mc.shipment_means, mc.shape),
        "shipment_stds": _rows(mc.shipment_stds, mc.shape),
    }
    _write_json(config.out_dir / "mc_summary.json", summary)
    if mc.feasible_count == 0:
        print("error: every Monte Carlo scenario was infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE, mc
    header = ["bin_lo", "bin_hi", "count"]
    _write_csv(config.out_dir / "mc_hist_D.csv", header, _hist_rows(mc.benefit_histogram))
    for name, hist in zip(lanes(mc.shape), mc.shipment_histograms):
        _write_csv(config.out_dir / f"mc_hist_{name}.csv", header, _hist_rows(hist))
    return EXIT_OK, mc


def _report_payload(report):
    return {
        "gamma_core": report.gamma_core,
        "gamma_support": report.gamma_support,
        "entries": [
            {
                "name": e.name,
                "fuzzy": _quad(e.fuzzy),
                "mc": _quad(e.mc),
                "fuzzy_support_width": e.fuzzy_support_width,
                "mc_support_width": e.mc_support_width,
                "width_ratio": e.width_ratio,
                "mc_inside_fuzzy": e.mc_inside_fuzzy,
            }
            for e in report.entries
        ],
    }


def _run_ingest(config: RunConfig) -> int:
    path = config.problem
    if path.suffix.lower() == ".csv":
        ecdf = ecdf_from_histogram(read_histogram_csv(path))
    else:
        ecdf = ecdf_from_samples(read_samples(path))
    trap = to_trapezoid(ecdf, config.gamma_core, config.gamma_support)
    _write_json(
        config.out_dir / "ingest_quadruple.json",
        {
            "source": path.name,
            "gamma_core": config.gamma_core,
            "gamma_support": config.gamma_support,
            "quadruple": _quad(trap),
        },
    )
    return EXIT_OK


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
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
    if config.mode == "fuzzy":
        code, _ = _run_fuzzy(config, problem)
        return code
    if config.mode == "montecarlo":
        code, _ = _run_montecarlo(config, problem)
        return code
    code, fz = _run_fuzzy(config, problem)
    if code != EXIT_OK:
        return code
    code, mc = _run_montecarlo(config, problem)
    if code != EXIT_OK:
        return code
    report = compare(fz, mc, config.gamma_core, config.gamma_support)
    _write_json(config.out_dir / "comparison.json", _report_payload(report))
    return EXIT_OK


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
    parser.add_argument("--alpha-levels", type=int, default=RunConfig.alpha_levels, metavar="K")
    parser.add_argument("--mc-steps", type=int, default=RunConfig.mc_steps, metavar="N")
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--gamma-core", type=float, default=RunConfig.gamma_core)
    parser.add_argument("--gamma-support", type=float, default=RunConfig.gamma_support)
    parser.add_argument("--out-dir", type=Path, default=RunConfig.out_dir, metavar="DIR")
    parser.add_argument(
        "--export-problem",
        type=Path,
        default=RunConfig.export_problem,
        metavar="FILE",
        help="also write the parsed problem back out in canonical quadruple form",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(RunConfig(**vars(args)))
    except (OSError, ValueError) as exc:  # ProblemFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
