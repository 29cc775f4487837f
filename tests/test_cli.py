import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from fuzzyplan import basis, cli
from fuzzyplan.cli import (
    EXIT_SOLVER,
    ProblemFormatError,
    export_problem,
    main,
    parse_problem,
)
from fuzzyplan.fuzzy import TrapezoidalFuzzyNumber
from fuzzyplan.ingest import (
    ecdf_from_histogram,
    ecdf_from_samples,
    gaussian_to_trapezoid,
    read_histogram_csv,
    read_samples,
    to_trapezoid,
)
from fuzzyplan.model import DistributionProblem
from fuzzyplan.transport import TransportInstance

TABLE1 = str(files("fuzzyplan").joinpath("data/table1.json"))
EXPECTED = json.loads(files("fuzzyplan").joinpath("data/table1_expected.json").read_text())

def fresh_cli(argv, warnings=None):
    """The console entry point in a fresh interpreter, as a user runs it."""
    script = "import sys; from fuzzyplan.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    if warnings is not None:
        env["PYTHONWARNINGS"] = warnings
    command = [sys.executable, "-c", script, *map(str, argv)]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


FUZZY_HEADER = (
    "alpha,D_lo,D_hi,"
    "x_11_lo,x_11_hi,x_12_lo,x_12_hi,x_13_lo,x_13_hi,"
    "x_21_lo,x_21_hi,x_22_lo,x_22_hi,x_23_lo,x_23_hi,"
    "x_31_lo,x_31_hi,x_32_lo,x_32_hi,x_33_lo,x_33_hi,"
    "feasible,repaired"
)


def write_problem(path: Path, **overrides) -> Path:
    doc = {
        "schema_version": 1,
        "kind": "distribution",
        "supply_max": [460],
        "demand_max": [460],
        "purchase_min": [0],
        "sale_min": [0],
        "purchase_price": [480],
        "sale_price": [1100],
        "transport_cost": [[30]],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_parse_all_parameter_forms(tmp_path):
    (tmp_path / "s.txt").write_text("".join(f"{v}\n" for v in range(1, 101)))
    (tmp_path / "h.csv").write_text("bin_lo,bin_hi,count\n0,1,5\n1,2,15\n2,3,5\n")
    p = write_problem(
        tmp_path / "p.json",
        supply_max=[460],
        demand_max=[[78, 95, 105, 120]],
        purchase_min=[{"mean": 100, "sigma": 10}],
        sale_min=[{"samples": "s.txt"}],
        purchase_price=[{"histogram": "h.csv"}],
    )
    prob = parse_problem(p)
    assert isinstance(prob, DistributionProblem)
    assert prob.supply_max[0] == TrapezoidalFuzzyNumber.crisp(460.0)
    assert prob.demand_max[0] == TrapezoidalFuzzyNumber(78, 95, 105, 120)
    assert prob.purchase_min[0] == gaussian_to_trapezoid(100.0, 10.0)
    assert prob.sale_min[0] == to_trapezoid(ecdf_from_samples(read_samples(tmp_path / "s.txt")))
    assert prob.purchase_price[0] == to_trapezoid(
        ecdf_from_histogram(read_histogram_csv(tmp_path / "h.csv"))
    )


def test_parse_rejects_bad_quadruple(tmp_path):
    p = write_problem(tmp_path / "p.json", demand_max=[[5, 4, 3, 2]])
    with pytest.raises(ProblemFormatError, match=r"demand_max\[0\]"):
        parse_problem(p)


def test_parse_rejects_schema_violations(tmp_path):
    with pytest.raises(ProblemFormatError, match="cannot read"):
        parse_problem(tmp_path / "missing.json")

    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    with pytest.raises(ProblemFormatError, match="not valid JSON"):
        parse_problem(junk)

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ProblemFormatError, match="top level"):
        parse_problem(arr)

    with pytest.raises(ProblemFormatError, match="schema_version"):
        parse_problem(write_problem(tmp_path / "v.json", schema_version=2))

    with pytest.raises(ProblemFormatError, match="unknown fields"):
        parse_problem(write_problem(tmp_path / "u.json", supply_cap=[1]))

    bad_len = write_problem(tmp_path / "l.json", sale_min=[0, 0])
    with pytest.raises(ProblemFormatError, match="sale_min"):
        parse_problem(bad_len)

    doc = json.loads((tmp_path / "l.json").read_text())
    del doc["purchase_price"]
    doc["sale_min"] = [0]
    short = tmp_path / "m.json"
    short.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match="purchase_price"):
        parse_problem(short)

    with pytest.raises(ProblemFormatError, match=r"purchase_min\[0\]"):
        parse_problem(write_problem(tmp_path / "g.json", purchase_min=[{"mean": 5}]))


HUGE = 10**400  # a valid JSON integer that no float can hold


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"supply_max": [HUGE]}, r"supply_max\[0\]"),
        ({"demand_max": [[1, 2, 3, HUGE]]}, r"demand_max\[0\]\[3\]"),
        ({"purchase_min": [{"mean": 5, "sigma": HUGE}]}, r"purchase_min\[0\]"),
        ({"transport_cost": [[HUGE]]}, r"transport_cost\[0\]\[0\]"),
    ],
    ids=["number", "quadruple", "gaussian", "lane"],
)
def test_parse_rejects_integer_beyond_float(tmp_path, capsys, overrides, path):
    p = write_problem(tmp_path / "p.json", **overrides)
    with pytest.raises(ProblemFormatError, match="^" + path + ": integer too large"):
        parse_problem(p)
    assert main([str(p), "--mode", "crisp", "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("supplies", [HUGE, 5], r"supplies\[0\]"),
        ("costs", [[1, 2], [2, HUGE]], r"costs\[1\]\[1\]"),
    ],
    ids=["supplies", "costs"],
)
def test_parse_transport_rejects_integer_beyond_float(tmp_path, capsys, field, value, path):
    doc = {"schema_version": 1, "kind": "transport", "supplies": [5, 5], "demands": [5, 5]}
    doc["costs"] = [[1, 2], [2, 1]]
    doc[field] = value
    p = tmp_path / "t.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match="^" + path + ": integer too large"):
        parse_problem(p)
    assert main([str(p), "--mode", "crisp", "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["crisp", "fuzzy", "montecarlo", "compare"])
def test_overflowing_lane_profit_exits_2(tmp_path, mode):
    # finite prices whose difference overflows: every mode stops with one
    # line naming the lane profits, and numpy prints no overflow warning.
    # A fresh interpreter shows stderr as a user would see it.
    doc = json.loads(Path(TABLE1).read_text())
    doc["sale_price"][0], doc["purchase_price"][0] = 1e308, -1e308
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    proc = fresh_cli([p, "--mode", mode, "--out-dir", tmp_path / "run"])
    assert (proc.returncode, proc.stderr) == (2, "error: lane profits must be finite\n")


@pytest.mark.parametrize(
    "mode, code", [("crisp", 0), ("fuzzy", 3), ("montecarlo", 0), ("compare", 3)]
)
def test_overflowing_capacity_total_runs_without_warning(tmp_path, mode, code):
    # finite capacities whose total overflows: the feasibility screen's
    # sums reach inf, which it compares right, so no mode may turn numpy's
    # overflow warning into a traceback. Fuzzy and compare exit 3 because
    # the alpha-0 pessimistic corner is infeasible.
    doc = json.loads(Path(TABLE1).read_text())
    doc["supply_max"] = [1e308, 1e308, 610]
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))

    def run(out, warnings):
        return fresh_cli([p, "--mode", mode, "--mc-steps", "200", "--out-dir", out], warnings)

    proc = run(tmp_path / "run", "error")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    if mode == "crisp":
        assert run(tmp_path / "quiet", "ignore").returncode == 0
        written = (tmp_path / "run" / "crisp_solution.json").read_bytes()
        assert written == (tmp_path / "quiet" / "crisp_solution.json").read_bytes()


@pytest.mark.parametrize("mode", ["crisp", "fuzzy", "montecarlo", "compare"])
@pytest.mark.parametrize("warnings", ["error", "default"])
def test_overflowing_benefit_exits_2(tmp_path, mode, warnings):
    # finite data whose optimal benefit passes the float maximum: every
    # mode stops with the same one line, and no numpy warning becomes a
    # traceback on the way
    doc = json.loads(Path(TABLE1).read_text())
    scale = dict.fromkeys(["supply_max", "demand_max", "purchase_min", "sale_min"], 1e10)
    for name, k in {**scale, "sale_price": 1e300}.items():
        doc[name] = [{"mean": v["mean"] * k, "sigma": v["sigma"] * k} for v in doc[name]]
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    argv = [p, "--mode", mode, "--mc-steps", "200", "--out-dir", tmp_path / "run"]
    proc = fresh_cli(argv, warnings)
    assert (proc.returncode, proc.stderr) == (2, "error: optimal benefit must be finite\n")


@pytest.mark.parametrize(
    "supplies, demands, costs, total",
    [
        # balanced, though both totals pass the float maximum
        ([1e308, 1e308], [1e308, 1e308], [[1e-10, 2e-10], [3e-10, 4e-10]], 5e298),
        ([1, 2], [3], [[1e308], [1e308]], None),  # the optimal cost overflows
        ([1, 2], [3], [[1e308], [-1e308]], None),  # and so do the potentials
    ],
)
def test_transport_near_the_float_maximum(tmp_path, supplies, demands, costs, total):
    doc = {"schema_version": 1, "kind": "transport"}
    p = tmp_path / "transport.json"
    p.write_text(json.dumps({**doc, "supplies": supplies, "demands": demands, "costs": costs}))
    proc = fresh_cli([p, "--mode", "crisp", "--out-dir", tmp_path / "run"], "error")
    if total is None:
        assert (proc.returncode, proc.stderr) == (2, "error: optimal total cost must be finite\n")
        assert not (tmp_path / "run" / "crisp_solution.json").exists()
    else:
        assert (proc.returncode, proc.stderr) == (0, "")
        written = json.loads((tmp_path / "run" / "crisp_solution.json").read_text())
        assert written["total_cost"] == total


def test_triangle_whose_cut_rounds_past_its_peak_runs(tmp_path):
    # at alpha 1, a + (b - a) and d - (d - c) round to either side of this
    # triangle's peak; the cut must still be the peak
    doc = json.loads(Path(TABLE1).read_text())
    doc["transport_cost"][0][0] = [
        -147.8186406236996, -91.69534310295919, -91.69534310295919, 778.3148120736806
    ]
    p = tmp_path / "triangle.json"
    p.write_text(json.dumps(doc))
    for mode in ("fuzzy", "compare"):
        argv = [str(p), "--mode", mode, "--mc-steps", "200", "--out-dir", str(tmp_path / mode)]
        assert main(argv) == 0


def test_crisp_mode_makes_one_cold_solve(tmp_path, counted_solves, tableau_solves):
    assert main([TABLE1, "--mode", "crisp", "--out-dir", str(tmp_path / "run")]) == 0
    # table1's midpoint optimum is degenerate: both capacity totals are
    # 1530 and every capacity binds. No basis certifies it, so the tableau
    # answers
    assert len(counted_solves) == len(tableau_solves) == 1
    generic = write_problem(
        tmp_path / "generic.json",
        supply_max=[460, 380],
        demand_max=[300, 290, 350],
        purchase_min=[100, 120],
        sale_min=[80, 90, 70],
        purchase_price=[480, 510],
        sale_price=[1100, 1050, 990],
        transport_cost=[[30, 45, 80], [60, 25, 40]],
    )
    assert main([str(generic), "--mode", "crisp", "--out-dir", str(tmp_path / "generic")]) == 0
    assert len(counted_solves) == 2
    assert len(tableau_solves) == 1  # the transport proposal's basis certified it
    infeasible = write_problem(
        tmp_path / "inf.json", supply_max=[40], purchase_min=[50], demand_max=[100]
    )
    assert main([str(infeasible), "--mode", "crisp", "--out-dir", str(tmp_path / "inf")]) == 3
    assert len(counted_solves) == 2  # the precheck answered without a solve


def test_parse_rejects_non_finite_number(tmp_path):
    p = write_problem(tmp_path / "p.json")
    p.write_text(p.read_text().replace("[460]", "[1e400]", 1))  # supply_max, read as inf
    with pytest.raises(ProblemFormatError, match=r"^supply_max\[0\]: must be finite"):
        parse_problem(p)
    doc = {"schema_version": 1, "kind": "transport", "supplies": [5], "demands": [5]}
    t = tmp_path / "t.json"
    t.write_text(json.dumps(doc)[:-1] + ', "costs": [[NaN]]}')
    with pytest.raises(ProblemFormatError, match=r"^costs\[0\]\[0\]: must be finite"):
        parse_problem(t)


def test_parse_rejects_integer_beyond_digit_limit(tmp_path):
    p = write_problem(tmp_path / "p.json")
    p.write_text(p.read_text().replace("[460]", "[" + "1" * 5000 + "]", 1))
    with pytest.raises(ProblemFormatError, match="p.json: not valid JSON"):
        parse_problem(p)


def test_parse_transport_kind(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "transport",
                "supplies": [5, 5],
                "demands": [5, 5],
                "costs": [[1, 2], [2, 1]],
            }
        )
    )
    inst = parse_problem(p)
    assert isinstance(inst, TransportInstance)
    assert inst.supplies == (5.0, 5.0)

    out = tmp_path / "out"
    assert main([str(p), "--mode", "crisp", "--out-dir", str(out)]) == 0
    payload = json.loads((out / "crisp_solution.json").read_text())
    assert payload["status"] == "optimal"
    assert payload["total_cost"] == pytest.approx(10.0)
    assert payload["shipments"] == [[5.0, 0.0], [0.0, 5.0]]


def test_export_round_trip(tmp_path):
    prob = parse_problem(TABLE1)
    out = tmp_path / "exported.json"
    export_problem(prob, out)
    assert parse_problem(out) == prob

    t = TransportInstance((3.0,), (3.0,), ((7.0,),))
    out2 = tmp_path / "t.json"
    export_problem(t, out2)
    assert parse_problem(out2) == t


def test_export_key_order(tmp_path):
    out = tmp_path / "exported.json"
    export_problem(parse_problem(TABLE1), out)
    assert list(json.loads(out.read_text())) == [
        "schema_version",
        "kind",
        "supply_max",
        "demand_max",
        "purchase_min",
        "sale_min",
        "purchase_price",
        "sale_price",
        "transport_cost",
        "contract_purchase_price",
        "contract_sale_price",
    ]


def test_crisp_mode_matches_expected_fixture(tmp_path):
    out = tmp_path / "run"
    assert main([TABLE1, "--mode", "crisp", "--out-dir", str(out)]) == 0
    payload = json.loads((out / "crisp_solution.json").read_text())
    assert payload["status"] == EXPECTED["status"]
    assert payload["benefit"] == pytest.approx(EXPECTED["benefit"], abs=1e-3)
    total = sum(sum(row) for row in payload["shipments"])
    assert total == pytest.approx(1530.0, abs=1e-6)


def test_export_problem_flag(tmp_path):
    out = tmp_path / "run"
    exported = tmp_path / "copy.json"
    code = main(
        [TABLE1, "--mode", "crisp", "--out-dir", str(out), "--export-problem", str(exported)]
    )
    assert code == 0
    assert parse_problem(exported) == parse_problem(TABLE1)


def test_fuzzy_mode_outputs(tmp_path):
    out = tmp_path / "run"
    assert main([TABLE1, "--mode", "fuzzy", "--out-dir", str(out)]) == 0
    lines = (out / "fuzzy_levels.csv").read_text().splitlines()
    assert lines[0] == FUZZY_HEADER
    assert len(lines) == 1 + 11
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("1,")
    assert all(line.endswith(",true") or line.endswith(",false") for line in lines[1:])

    quads = json.loads((out / "fuzzy_quadruples.json").read_text())
    assert set(quads) == {"D"} | {f"x_{i}{j}" for i in "123" for j in "123"}
    a, b, c, d = quads["D"]
    assert a <= b <= 781030.0 <= c <= d
    assert a < d


def test_montecarlo_mode_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(
        [TABLE1, "--mode", "montecarlo", "--mc-steps", "120", "--out-dir", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary["steps"] == 120
    assert summary["feasible"] + summary["infeasible"] == 120
    assert summary["benefit_mean"] == pytest.approx(781030.0, rel=0.05)

    hist = read_histogram_csv(out / "mc_hist_D.csv")
    assert sum(hist.counts) == summary["feasible"]
    for i in "123":
        for j in "123":
            assert (out / f"mc_hist_x_{i}{j}.csv").exists()


def test_lane_names_unique_beyond_nine(tmp_path):
    m = n = 12
    p = write_problem(
        tmp_path / "p12.json",
        supply_max=[{"mean": 100, "sigma": 2}] * m,
        demand_max=[{"mean": 100, "sigma": 2}] * n,
        purchase_min=[10] * m,
        sale_min=[10] * n,
        purchase_price=[50 + i for i in range(m)],
        sale_price=[100 + j for j in range(n)],
        transport_cost=[[(7 * i + 3 * j) % 20 for j in range(n)] for i in range(m)],
    )
    out = tmp_path / "run"
    assert main([str(p), "--mode", "compare", "--mc-steps", "20", "--out-dir", str(out)]) == 0
    names = [f"x_{i}_{j}" for i in range(1, m + 1) for j in range(1, n + 1)]
    assert "x_1_11" in names and "x_11_1" in names

    header = (out / "fuzzy_levels.csv").read_text().splitlines()[0].split(",")
    assert header[3:-2:2] == [f"{name}_lo" for name in names]
    assert list(json.loads((out / "fuzzy_quadruples.json").read_text())) == ["D"] + names
    assert sorted(f.name for f in out.glob("mc_hist_x_*.csv")) == sorted(
        f"mc_hist_{name}.csv" for name in names
    )
    entries = json.loads((out / "comparison.json").read_text())["entries"]
    assert [e["name"] for e in entries] == ["D"] + names


def test_ingest_mode(tmp_path):
    src = tmp_path / "samples.txt"
    src.write_text("".join(f"{v}\n" for v in range(1, 201)))
    out = tmp_path / "run"
    assert main([str(src), "--mode", "ingest", "--out-dir", str(out)]) == 0
    payload = json.loads((out / "ingest_quadruple.json").read_text())
    expect = to_trapezoid(ecdf_from_samples(read_samples(src)))
    assert payload["source"] == "samples.txt"
    assert payload["quadruple"] == pytest.approx([expect.a, expect.b, expect.c, expect.d], rel=1e-8)

    hist_src = tmp_path / "hist.csv"
    hist_src.write_text("0,1,5\n1,2,15\n2,3,5\n")
    out2 = tmp_path / "run2"
    assert main([str(hist_src), "--mode", "ingest", "--out-dir", str(out2)]) == 0
    payload2 = json.loads((out2 / "ingest_quadruple.json").read_text())
    expect2 = to_trapezoid(ecdf_from_histogram(read_histogram_csv(hist_src)))
    assert payload2["quadruple"] == pytest.approx(
        [expect2.a, expect2.b, expect2.c, expect2.d], rel=1e-8
    )


def test_compare_mode_deterministic(tmp_path):
    argv = [TABLE1, "--mode", "compare", "--mc-steps", "150", "--seed", "42"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out-dir", str(out1)]) == 0
    assert main(argv + ["--out-dir", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    assert "comparison.json" in names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    report = json.loads((out1 / "comparison.json").read_text())
    assert report["entries"][0]["name"] == "D"
    assert len(report["entries"]) == 10
    d = report["entries"][0]
    assert d["width_ratio"] > 1.0
    assert d["mc_inside_fuzzy"] is True


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert main([str(tmp_path / "nope.json"), "--mode", "crisp"]) == 2
    assert "error:" in capsys.readouterr().err

    junk = tmp_path / "junk.json"
    junk.write_text("{oops")
    assert main([str(junk), "--mode", "fuzzy"]) == 2

    infeasible = write_problem(
        tmp_path / "inf.json", supply_max=[40], purchase_min=[50], demand_max=[100]
    )
    out = tmp_path / "run"
    assert main([str(infeasible), "--mode", "crisp", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "purchase_min[0]=50 exceeds supply_max[0]=40" in err
    assert json.loads((out / "crisp_solution.json").read_text())["status"] == "infeasible"

    transport = tmp_path / "t.json"
    transport.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "transport",
                "supplies": [5],
                "demands": [5],
                "costs": [[1]],
            }
        )
    )
    assert main([str(transport), "--mode", "fuzzy", "--out-dir", str(out)]) == 2

    unbalanced = tmp_path / "u.json"
    unbalanced.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "transport",
                "supplies": [5],
                "demands": [3],
                "costs": [[1]],
            }
        )
    )
    assert main([str(unbalanced), "--mode", "crisp", "--out-dir", str(out)]) == 3

    bad_gamma = main([TABLE1, "--mode", "crisp", "--gamma-core", "0.95"])
    assert bad_gamma == 2
    capsys.readouterr()

    # a negative seed is refused before the fuzzy half of compare writes anything
    negative = tmp_path / "negative-seed"
    negative.mkdir()
    assert main([TABLE1, "--mode", "compare", "--seed", "-1", "--out-dir", str(negative)]) == 2
    assert "error: need a seed >= 0, got -1" in capsys.readouterr().err
    assert list(negative.iterdir()) == []

    def stuck(lp):
        raise RuntimeError("simplex failed to terminate")

    monkeypatch.setattr(basis, "solve", stuck)
    assert main([TABLE1, "--mode", "crisp", "--out-dir", str(out)]) == EXIT_SOLVER == 4
    assert "error: simplex failed to terminate" in capsys.readouterr().err
    # a failed precheck answers without a simplex run
    assert main([str(infeasible), "--mode", "crisp", "--out-dir", str(out)]) == 3
    assert "purchase_min[0]=50 exceeds supply_max[0]=40" in capsys.readouterr().err
