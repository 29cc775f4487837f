import json
import math
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from fuzzyplan.model import FIELDS, DistributionProblem
from fuzzyplan.transport import TransportInstance

TABLE1 = str(files("fuzzyplan").joinpath("data/table1.json"))
EXPECTED = json.loads(files("fuzzyplan").joinpath("data/table1_expected.json").read_text())

def fresh_python(script, argv=(), warnings=None):
    """script in a fresh interpreter that imports this checkout's fuzzyplan."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    if warnings is not None:
        env["PYTHONWARNINGS"] = warnings
    command = [sys.executable, "-c", script, *map(str, argv)]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


def fresh_cli(argv, warnings=None):
    """The console entry point in a fresh interpreter, as a user runs it."""
    script = "import sys; from fuzzyplan.cli import main; sys.exit(main(sys.argv[1:]))"
    return fresh_python(script, argv, warnings)


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random would lengthen every CLI start; Monte Carlo loads it at its first draw
    def loads_random(module):
        proc = fresh_python(f"import sys, {module}; print('numpy.random' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip() == "True"

    if loads_random("numpy"):
        pytest.skip("this numpy loads numpy.random with numpy itself")
    assert not loads_random("fuzzyplan.cli")


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
    "entry, path, message",
    [
        ("NaN", r"transport_cost\[1\]\[0\]", "must be finite, got nan"),
        ("1e400", r"transport_cost\[1\]\[0\]", "must be finite, got inf"),
        (str(HUGE), r"transport_cost\[1\]\[0\]", "integer too large for a float"),
        ("[1, 2, 3, NaN]", r"transport_cost\[1\]\[0\]\[3\]", "must be finite, got nan"),
        ("[1, 2, 1e400, 1e400]", r"transport_cost\[1\]\[0\]\[2\]", "must be finite, got inf"),
    ],
    ids=["nan", "overflowing-float", "overflowing-integer", "nan-corner", "inf-corner"],
)
def test_parse_names_the_bad_lane(tmp_path, entry, path, message):
    # the lane's float fast path must leave every other entry's message as it was
    p = write_problem(
        tmp_path / "p.json",
        supply_max=[460.5, 300.25],
        purchase_min=[0.5, 0.5],
        purchase_price=[480.5, 470.5],
        transport_cost=[[30.5], ["ENTRY"]],
    )
    p.write_text(p.read_text().replace('"ENTRY"', entry))
    with pytest.raises(ProblemFormatError, match="^" + path + ": " + message + "$"):
        parse_problem(p)


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


@pytest.mark.parametrize("mode", ["crisp", "fuzzy", "montecarlo", "compare"])
def test_point_mass_at_float_maximum_runs(tmp_path, mode):
    # every draw ships the float maximum down the one lane: Monte Carlo's
    # one-bin histogram keeps finite edges, so every mode exits 0 with no
    # warning, and the Monte Carlo modes write finite shipment means
    top = sys.float_info.max
    p = write_problem(
        tmp_path / "top.json", supply_max=[top], demand_max=[top],
        purchase_price=[0], sale_price=[0.5], transport_cost=[[0]],
    )
    out = tmp_path / "run"
    proc = fresh_cli([p, "--mode", mode, "--mc-steps", "50", "--out-dir", out], "error")
    assert (proc.returncode, proc.stderr) == (0, "")
    if mode in ("montecarlo", "compare"):
        means = json.loads((out / "mc_summary.json").read_text())["shipment_means"]
        assert math.isfinite(means[0][0]) and means[0][0] > 1e308


# where a point mass's histogram edges used to print alike at 9 digits,
# or below the point, and the values around them
POINT_MASSES = (0.0, 3.0, -3.0, 1e3, 1.5e6, 1e300, 1.7976931300000002e308, sys.float_info.max)
values = st.one_of(st.sampled_from(POINT_MASSES), st.floats(allow_nan=False, allow_infinity=False))


def test_every_monte_carlo_histogram_reads_back(tmp_path):
    # the CLI writes histogram edges to 9 significant digits, and where
    # 20 bins would not show there (a point mass, or a spread of a few
    # ulps to a few parts in 1e10) the values get one bin wide enough that
    # its two edges differ: every mc_hist_*.csv a run writes reads back
    # through ingest, and through --mode ingest. 1xN problems ship |v| down
    # one lane, and 0 down the other, for a benefit of v: a sale at price
    # 1, or for v < 0 a contracted purchase at price 1 sold at 0. That
    # quantity is Gaussian with sigma |v| r (crisp at r = 0), and the
    # capacities beside it leave it room for 8 sigma
    runs = iter(range(10**6))
    spreads = st.sampled_from([0, 1e-16, 1e-12, 1e-10])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(value=values, spread=spreads, customers=st.integers(1, 2))
    @example(value=1.7976931300000002e308, spread=0, customers=1)
    @example(value=-sys.float_info.max, spread=0, customers=2)
    def check(value, spread, customers):
        v, loss = abs(value), value < 0
        room = v + 8 * (v * spread)  # 8 v would overflow at the float maximum
        assume(room < math.inf)  # draws past the float maximum stop the run
        drawn = {"mean": v, "sigma": v * spread}
        out = tmp_path / str(next(runs))
        out.mkdir()
        p = write_problem(
            out / "point.json", supply_max=[room if loss else drawn], demand_max=[room] * customers,
            purchase_min=[drawn if loss else 0], sale_min=[0] * customers,
            purchase_price=[1 if loss else 0], sale_price=[0 if loss else 1] * customers,
            transport_cost=[[0] * customers],
        )
        argv = [p, "--mode", "montecarlo", "--mc-steps", "20", "--out-dir", out / "mc"]
        assert main(list(map(str, argv))) == 0
        written = sorted((out / "mc").glob("mc_hist_*.csv"))
        assert len(written) == 1 + customers
        for path in written:
            hist = read_histogram_csv(path)
            assert sum(hist.counts) == 20
            # the bin holds the benefit, up to the float maximum, an edge
            # that is written in full, as 9 digits would round it down
            if path.name == "mc_hist_D.csv":
                assert hist.bin_edges[0] <= value <= hist.bin_edges[-1]
            assert main([str(path), "--mode", "ingest", "--out-dir", str(out / path.stem)]) == 0

    check()


def test_quantity_spread_past_the_float_maximum_runs(tmp_path):
    # the benefit, -purchase_price with sigma 4e307, spreads its 200 draws
    # over more than the float maximum: it gets one bin, not a traceback,
    # and each histogram written reads back, through --mode ingest too
    p = write_problem(
        tmp_path / "wide.json", supply_max=[1], demand_max=[1], purchase_min=[1],
        purchase_price=[{"mean": 0, "sigma": 4e307}], sale_price=[0], transport_cost=[[0]],
    )
    out = tmp_path / "mc"
    proc = fresh_cli([p, "--mode", "montecarlo", "--mc-steps", "200", "--out-dir", out], "error")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = (out / "mc_hist_D.csv").read_text().splitlines()
    assert lines == ["bin_lo,bin_hi,count", "-9.82969651e+307,1.45936514e+308,200"]
    written = sorted(out.glob("mc_hist_*.csv"))
    assert [path.name for path in written] == ["mc_hist_D.csv", "mc_hist_x_11.csv"]
    for path in written:
        assert sum(read_histogram_csv(path).counts) == 200
        proc = fresh_cli([path, "--mode", "ingest", "--out-dir", tmp_path / path.stem], "error")
        assert (proc.returncode, proc.stderr) == (0, "")


@st.composite
def problems(draw):
    """A DistributionProblem of 1x1 to 3x3 trapezoids, corners drawn from
    values, the optional contract prices present or not."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def trapezoid():
        return TrapezoidalFuzzyNumber(*sorted(draw(st.lists(values, min_size=4, max_size=4))))

    entries = {}
    for f in FIELDS:
        if f.optional and draw(st.booleans()):
            continue
        size = n if f.axis == "cols" else m
        entry = [trapezoid() for _ in range(size)]
        if f.axis == "lanes":
            entry = [tuple(trapezoid() for _ in range(n)) for _ in entry]
        entries[f.name] = tuple(entry)
    return DistributionProblem(**entries)


def test_export_problem_reads_back_equal(tmp_path):
    # export_problem writes every corner at full precision, so
    # parse_problem gives back the same problem, at ±3, 1e300 and the
    # float maximum as well; so does a transport instance
    nonnegative = values.map(abs)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        problem=problems(),
        supplies=st.lists(nonnegative, min_size=1, max_size=3),
        demands=st.lists(nonnegative, min_size=1, max_size=3),
        cost=values,
    )
    def check(problem, supplies, demands, cost):
        export_problem(problem, tmp_path / "problem.json")
        assert parse_problem(tmp_path / "problem.json") == problem
        costs = tuple(tuple(cost for _ in demands) for _ in supplies)
        transport = TransportInstance(tuple(supplies), tuple(demands), costs)
        export_problem(transport, tmp_path / "transport.json")
        assert parse_problem(tmp_path / "transport.json") == transport

    check()


@pytest.mark.parametrize(
    "supplies, demands, costs, total",
    [
        # balanced, though both totals pass the float maximum
        ([1e308, 1e308], [1e308, 1e308], [[1e-10, 2e-10], [3e-10, 4e-10]], 5e298),
        ([1, 2], [3], [[1e308], [1e308]], None),  # the optimal cost overflows
        ([1, 2], [3], [[1e308], [-1e308]], None),  # and so do the potentials
        # potentials past the float maximum used to make MODI cycle (exit 4)
        ([1, 2], [1, 1, 1], [[1e308, 1e308, -1e308], [-1e308, -1e308, 5e307]], None),
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


def test_crisp_mode_makes_one_cold_solve(tmp_path, counted_solves, tableau_solves, engine_counts):
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
    # each run answers a batch of one on a new cache, which stores no basis
    assert engine_counts()["phase 2"] == 0


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


@pytest.mark.parametrize(
    "costs, message",
    [
        ("[[1, NaN], 7]", r"costs\[0\]\[1\]: must be finite, got nan"),  # rows in file order
        ("[[1, 2], [2, true]]", r"costs\[1\]: must be a list of numbers"),
        ('[[1, 2], [2, "3"]]', r"costs\[1\]: must be a list of numbers"),
        ("[[1, 2], [1e400, 1]]", r"costs\[1\]\[0\]: must be finite, got inf"),
        ("[[1, 2], [2]]", r"cost matrix must be 2x2"),
    ],
    ids=["nan-before-bad-row", "bool", "string", "overflowing-float", "short-row"],
)
def test_parse_transport_rows_in_order(tmp_path, costs, message):
    t = tmp_path / "t.json"
    t.write_text(
        '{"schema_version": 1, "kind": "transport", "supplies": [5, 5], "demands": [5, 5], '
        f'"costs": {costs}}}'
    )
    with pytest.raises(ProblemFormatError, match="^" + message + "$"):
        parse_problem(t)


@pytest.mark.parametrize(
    "supplies, costs, message",
    [
        ((5.0, -1.0), ((1.0, 2.0), (2.0, 1.0)), "supplies and demands must be finite"),
        ((5.0, math.nan), ((1.0, 2.0), (2.0, 1.0)), "supplies and demands must be finite"),
        ((5.0, 5.0), ((1.0, 2.0), (math.inf, 1.0)), "costs must be finite"),
        ((5.0, 5.0), ((1.0, 2.0), (2.0, math.nan)), "costs must be finite"),
    ],
)
def test_transport_instance_checks_its_own_values(supplies, costs, message):
    with pytest.raises(ValueError, match="^" + message):
        TransportInstance(supplies, (5.0, 5.0), costs)


def test_parse_rejects_integer_beyond_digit_limit(tmp_path):
    p = write_problem(tmp_path / "p.json")
    p.write_text(p.read_text().replace("[460]", "[" + "1" * 5000 + "]", 1))
    with pytest.raises(ProblemFormatError, match="p.json: not valid JSON"):
        parse_problem(p)


def test_problem_file_with_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    text = Path(TABLE1).read_text(encoding="utf-8")
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_problem(marked) == parse_problem(plain)
    for p in (plain, marked):
        assert main([str(p), "--mode", "crisp", "--out-dir", str(tmp_path / p.stem)]) == cli.EXIT_OK
    solution = "crisp_solution.json"
    assert (tmp_path / "marked" / solution).read_bytes() == (tmp_path / "plain" / solution).read_bytes()


@pytest.mark.parametrize(
    "name, argv",
    [("p.json", ["--mode", "crisp"]), ("s.txt", ["--mode", "ingest"]), ("h.csv", ["--mode", "ingest"])],
)
def test_undecodable_file_is_named(tmp_path, capsys, name, argv):
    p = tmp_path / name
    p.write_bytes(b"\xff\xfe1,2,3\n")
    assert main([str(p), *argv, "--out-dir", str(tmp_path / "out")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {p}: not UTF-8 text (" in err
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize(
    "form, name, content, reason",
    [
        ("samples", "s.txt", b"1\noops\n", "s.txt:2: not a number: 'oops'"),
        ("samples", "s.txt", b"1\nnan\n", "s.txt: sample values must be finite, got nan"),
        ("samples", "s.txt", b"\xff\xfe1\n", "s.txt: not UTF-8 text ("),
        ("histogram", "h.csv", b"0,1,3\n1,2,oops\n", "h.csv:2: bad numeric row: "),
        ("histogram", "h.csv", b"0,1,-3\n", "h.csv: bin counts must be finite and nonnegative"),
        ("histogram", "h.csv", b"\xff\xfe0,1,3\n", "h.csv: not UTF-8 text ("),
    ],
)
def test_sidecar_file_is_named_once(tmp_path, capsys, form, name, content, reason):
    # the readers name the file in every message they raise, so the CLI
    # adds only where the file is referenced
    (tmp_path / name).write_bytes(content)
    p = write_problem(tmp_path / "p.json", supply_max=[{form: name}])
    assert main([str(p), "--mode", "crisp", "--out-dir", str(tmp_path / "out")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: supply_max[0]: {tmp_path / reason}"), err
    assert err.count(name) == 1, err


@pytest.mark.parametrize(
    "name, content, start",
    [
        ("gone.txt", None, "cannot read {path}: No such file or directory\n"),
        # only the file is pinned here: the reason text blames the CDF
        # knots for what the counts did, a known defect
        ("big.csv", b"0,1,1e308\n1,2,1e308\n2,3,1e308\n", "{path}: "),
    ],
    ids=["missing", "counts-past-the-float-maximum"],
)
def test_ingest_names_the_file_as_a_sidecar_does(tmp_path, capsys, name, content, start):
    # one reader serves both modes: a sidecar's message is ingest's after the entry
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    out = str(tmp_path / "out")
    assert main([str(path), "--mode", "ingest", "--out-dir", out]) == cli.EXIT_USAGE
    reason = capsys.readouterr().err.removeprefix("error: ")
    assert reason.startswith(start.format(path=path)), reason
    assert reason.count(name) == 1 and reason.count("\n") == 1, reason
    form = "histogram" if name.endswith(".csv") else "samples"
    p = write_problem(tmp_path / "p.json", supply_max=[{form: name}])
    assert main([str(p), "--mode", "crisp", "--out-dir", out]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: supply_max[0]: {reason}"


TRANSPORT = {
    "schema_version": 1,
    "kind": "transport",
    "supplies": [5, 5],
    "demands": [5, 5],
    "costs": [[1, 2], [2, 1]],
}


@pytest.mark.parametrize(
    "base, overrides, message",
    [
        ({}, {"demand_max": [[1, 2, 3]]}, "demand_max[0]: quadruple must be four numbers"),
        (
            {},
            {"purchase_min": [{"mean": "5", "sigma": 1}]},
            "purchase_min[0]: mean and sigma must be numbers",
        ),
        (
            {},
            {"purchase_min": [{"mean": 5, "sigma": -1}]},
            "purchase_min[0]: need finite mean and sigma >= 0, got (5.0, -1.0)",
        ),
        ({}, {"sale_min": [{"samples": 3}]}, "sale_min[0]: samples reference must be a path string"),
        (
            {},
            {"supply_max": [{"samples": "gone.txt"}]},
            "supply_max[0]: cannot read {dir}/gone.txt: No such file or directory",
        ),
        ({}, {"supply_max": 460}, "supply_max: must be a list"),
        ({}, {"transport_cost": [30]}, "transport_cost[0]: must be a list"),
        (TRANSPORT, {"extra": 1}, "unknown fields: ['extra']"),
        (TRANSPORT, {"demands": None}, "demands: missing required field"),
        (TRANSPORT, {"supplies": [5, "5"]}, "supplies: must be a list of numbers"),
        (TRANSPORT, {"costs": [[1, 2]]}, "costs: must be a list of 2 rows"),
        ({}, {"kind": "fuzzy"}, "{path}: kind must be 'distribution' or 'transport'"),
        ({}, {"supply_max": []}, "need at least one supplier and one customer"),
        ({}, {"schema_version": True}, "{path}: schema_version must be 1, got True"),
    ],
    ids=[
        "short-quadruple",
        "gaussian-string",
        "negative-sigma",
        "samples-number",
        "missing-sidecar",
        "field-not-list",
        "lane-row-not-list",
        "transport-unknown",
        "transport-missing",
        "transport-string-supply",
        "transport-cost-rows",
        "kind",
        "no-supplier",
        "schema-version-bool",
    ],
)
def test_reader_messages_pinned(tmp_path, capsys, base, overrides, message):
    # each message as parse_problem raises it and as main prints it: one line, exit 2
    p = tmp_path / "p.json"
    if base:
        doc = {**base, **overrides}
        p.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    else:
        write_problem(p, **overrides)
    message = message.format(path=p, dir=tmp_path)
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(p)
    assert str(info.value) == message
    assert main([str(p), "--mode", "crisp", "--out-dir", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


# purchase_min near 20 over a supply of 10: no scenario is feasible
NO_FEASIBLE_SCENARIO = {
    "supply_max": [10],
    "demand_max": [30],
    "purchase_min": [{"mean": 20, "sigma": 0.1}],
}


@pytest.mark.parametrize(
    "mode, written",
    [
        ("montecarlo", ["mc_summary.json"]),
        ("compare", ["fuzzy_levels.csv", "fuzzy_quadruples.json", "mc_summary.json"]),
    ],
)
def test_every_scenario_infeasible_exits_3(tmp_path, capsys, mode, written):
    p = write_problem(tmp_path / "p.json", **NO_FEASIBLE_SCENARIO)
    out = tmp_path / "out"
    argv = [str(p), "--mode", mode, "--mc-steps", "50", "--out-dir", str(out)]
    assert main(argv) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == "error: every Monte Carlo scenario was infeasible\n"
    assert sorted(f.name for f in out.iterdir()) == written
    summary = json.loads((out / "mc_summary.json").read_text())
    assert (summary["feasible"], summary["infeasible"]) == (0, 50)
    moments = ("benefit_mean", "benefit_std", "shipment_means", "shipment_stds")
    assert [summary[key] for key in moments] == [None] * 4


def test_compare_stops_where_the_end_levels_are_infeasible(tmp_path, capsys):
    # sale minimums of 16 in all over a supply of 10, at every level
    p = write_problem(
        tmp_path / "p.json",
        supply_max=[10],
        demand_max=[460, 460],
        sale_min=[8, 8],
        sale_price=[1100, 1100],
        transport_cost=[[30, 30]],
    )
    out = tmp_path / "out"
    argv = [str(p), "--mode", "compare", "--mc-steps", "50", "--out-dir", str(out)]
    assert main(argv) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err == "error: levels 0 and 1 must both be feasible to fit a trapezoid\n"
    assert [f.name for f in out.iterdir()] == ["fuzzy_levels.csv"]


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


def test_transport_modi_out_of_pivots_exits_4(tmp_path, monkeypatch, capsys):
    p = tmp_path / "t.json"
    doc = {"schema_version": 1, "kind": "transport", "supplies": [5, 5], "demands": [5, 5]}
    p.write_text(json.dumps({**doc, "costs": [[1, 2], [2, 1]]}))
    monkeypatch.setattr(cli, "modi_optimize", lambda costs, x, cells: None)
    out = tmp_path / "out"
    assert main([str(p), "--mode", "crisp", "--out-dir", str(out)]) == EXIT_SOLVER == 4
    assert capsys.readouterr().err == "error: potentials method failed to terminate\n"
    assert not (out / "crisp_solution.json").exists()


def test_transport_tolerances_scale_with_the_costs(tmp_path):
    # unit-scale optimum 87 at costs times 1e-12: every reduced cost is
    # below an absolute 1e-9, yet Vogel's start (91e-12) is not optimal
    p = tmp_path / "t.json"
    doc = {"schema_version": 1, "kind": "transport", "supplies": [4, 2, 12], "demands": [6, 3, 9]}
    costs = [[3e-12, 5e-12, 2e-12], [6e-12, 8e-12, 8e-12], [8e-12, 3e-12, 6e-12]]
    p.write_text(json.dumps({**doc, "costs": costs}))
    assert main([str(p), "--mode", "crisp", "--out-dir", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "crisp_solution.json").read_text())
    assert payload["total_cost"] == 8.7e-11


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


def test_crisp_mode_at_tiny_capacities(tmp_path):
    # table1 with its capacities and minimums times 1e-12: the LP is
    # homogeneous in b, so the optimum is 1e-12 times table1's, with the
    # 4.4e-10 minimums met, though each is below an absolute tolerance
    doc = json.loads(Path(TABLE1).read_text())
    for name in ("supply_max", "demand_max", "purchase_min", "sale_min"):
        doc[name] = [{"mean": v["mean"] * 1e-12, "sigma": v["sigma"] * 1e-12} for v in doc[name]]
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(doc))
    assert main([str(p), "--mode", "crisp", "--out-dir", str(tmp_path / "run")]) == 0
    payload = json.loads((tmp_path / "run" / "crisp_solution.json").read_text())
    assert payload["benefit"] == 7.8103e-07
    bought = [sum(row) for row in payload["shipments"]]
    minimums = [v["mean"] for v in doc["purchase_min"]]
    assert all(got >= least * (1 - 1e-9) for got, least in zip(bought, minimums))


def test_crisp_mode_at_tiny_prices(tmp_path):
    # table1 with every price and transport cost times 1e-12: the LP is
    # homogeneous in c, so the optimum is 1e-12 times table1's, though
    # each reduced cost is below an absolute tolerance
    doc = json.loads(Path(TABLE1).read_text())

    def tiny(v):
        return {"mean": v["mean"] * 1e-12, "sigma": v["sigma"] * 1e-12}

    for name in ("purchase_price", "sale_price", "contract_purchase_price", "contract_sale_price"):
        doc[name] = [tiny(v) for v in doc[name]]
    doc["transport_cost"] = [[tiny(v) for v in row] for row in doc["transport_cost"]]
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(doc))
    assert main([str(p), "--mode", "crisp", "--out-dir", str(tmp_path / "run")]) == 0
    payload = json.loads((tmp_path / "run" / "crisp_solution.json").read_text())
    assert payload["benefit"] == 7.8103e-07


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


def test_capacity_below_zero_is_named(tmp_path, capsys):
    # a minimum of -5 asks for nothing; the capacity of -3 is what no
    # shipment x >= 0 meets
    problem = write_problem(tmp_path / "neg.json", supply_max=[-3], purchase_min=[-5])
    assert main([str(problem), "--mode", "crisp", "--out-dir", str(tmp_path / "run")]) == 3
    assert "supply_max[0]=-3 is below 0" in capsys.readouterr().err


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

    def stuck(lp):
        raise RuntimeError("simplex failed to terminate")

    monkeypatch.setattr(basis, "solve", stuck)
    assert main([TABLE1, "--mode", "crisp", "--out-dir", str(out)]) == EXIT_SOLVER == 4
    assert "error: simplex failed to terminate" in capsys.readouterr().err
    # a failed precheck answers without a simplex run
    assert main([str(infeasible), "--mode", "crisp", "--out-dir", str(out)]) == 3
    assert "purchase_min[0]=50 exceeds supply_max[0]=40" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, message",
    [
        (["--seed", "-1"], "need a seed >= 0, got -1"),
        (["--alpha-levels", "1"], "need at least 2 alpha levels, got 1"),
        (["--mc-steps", "0"], "need at least one Monte Carlo step, got 0"),
        (["--gamma-core", "0.95"], "need 0 < gamma_core < gamma_support < 1, got (0.95, 0.9)"),
        # several at once: the first of gammas, alpha levels, steps, seed
        (
            ["--seed", "-1", "--mc-steps", "0", "--alpha-levels", "1"],
            "need at least 2 alpha levels, got 1",
        ),
    ],
)
def test_refused_option_writes_nothing(option, message, tmp_path, capsys):
    # refused before the fuzzy half of compare writes anything
    out = tmp_path / "out"
    out.mkdir()
    assert main([TABLE1, "--mode", "compare", *option, "--out-dir", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []
