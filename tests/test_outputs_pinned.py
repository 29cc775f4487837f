"""Every byte the CLI writes, pinned by SHA-256 for two problems.

The bundled 3x3 table1 and a 2x3 problem whose six lanes all have
different costs and different optimal shipments: a writer that mixes up
rows and columns changes the 2x3 bytes even where a square problem's
shape would still look right. A 1x1 fuzzy run pins levels that are
infeasible and repaired, and an 8x8 one corners that start warm from
the bases of earlier corners; a Monte Carlo run of the 8x8 problem
answers every step from its own basis. A transport run ships fractions,
and the ingest mode reads a samples file and a histogram file.
"""

import hashlib
import json
from importlib.resources import files

import numpy as np
import pytest

from fuzzyplan.cli import main

TABLE1 = str(files("fuzzyplan").joinpath("data/table1.json"))

# crisp optimum ships [[300, 0, 200], [0, 350, 0]] at the midpoints
TWO_BY_THREE = {
    "schema_version": 1,
    "kind": "distribution",
    "supply_max": [{"mean": 500, "sigma": 20}, [380, 395, 405, 420]],
    "demand_max": [[280, 295, 305, 320], {"mean": 350, "sigma": 15}, 200],
    "purchase_min": [100, {"mean": 100, "sigma": 5}],
    "sale_min": [50, 50, [40, 45, 55, 60]],
    "purchase_price": [[390, 398, 402, 410], 450],
    "sale_price": [900, {"mean": 950, "sigma": 10}, 1000],
    "transport_cost": [[10, [30, 33, 37, 40], 70], [45, 20, {"mean": 90, "sigma": 3}]],
}

# pessimistic corner: sale_min 11 - 4a over supply 5 + 5a, infeasible
# below alpha 0.7; purchase_min 30 - 28a clipped to the supply up to 0.7
LOW_LEVELS = {
    "schema_version": 1,
    "kind": "distribution",
    "supply_max": [[5, 10, 10, 15]],
    "demand_max": [[8, 10, 10, 12]],
    "purchase_min": [[1, 2, 2, 30]],
    "sale_min": [[6, 7, 7, 11]],
    "purchase_price": [1],
    "sale_price": [[4, 5, 5, 6]],
    "transport_cost": [[0]],
}


def eight_by_eight():
    """An 8x8 problem whose lane profits sit near 0 with wide spreads,
    so the optimal basis moves from level to level and alpha-cut corners
    no cached basis answers start warm from the bases of earlier ones."""
    rng = np.random.default_rng(8)

    def quadruples(lo, hi, spread):
        mids = rng.uniform(lo, hi, 8).round(1).tolist()
        return [[m - 2 * spread, m - spread, m + spread, m + 2 * spread] for m in mids]

    def gaussians(lo, hi, sigma):
        return [{"mean": m, "sigma": sigma} for m in rng.uniform(lo, hi, 8).round(1).tolist()]

    return {
        "schema_version": 1,
        "kind": "distribution",
        "supply_max": quadruples(450.0, 550.0, 40.0),
        "demand_max": gaussians(450.0, 550.0, 10.0),
        "purchase_min": quadruples(100.0, 200.0, 5.0),
        "sale_min": gaussians(100.0, 200.0, 5.0),
        "purchase_price": gaussians(500.0, 600.0, 40.0),
        "sale_price": quadruples(650.0, 750.0, 30.0),
        "transport_cost": [quadruples(30.0, 200.0, 10.0) for _ in range(8)],
    }


MODES = {
    "crisp": ["--mode", "crisp"],
    "fuzzy": ["--mode", "fuzzy"],
    "montecarlo": ["--mode", "montecarlo", "--mc-steps", "2000"],
    "compare": ["--mode", "compare", "--mc-steps", "2000"],
}

# recorded with numpy 2.4 on x86-64
DIGESTS = {
    ("table1", "crisp"): "e03f6324e54744bc54b084845c53ef2f5b5a7b8dbc8a3074b9ababd10f026ac3",
    ("table1", "fuzzy"): "252060c26b5ac4f3594ed98ab81f31cc362f0a11ebfc349634bbbfe6d588073a",
    ("table1", "montecarlo"): "1c715b10ac5f3177005daca303f03fd8069d0f826478a7eff7a65c365dafdc9c",
    ("table1", "compare"): "49b4df2ed2b437118f14ad9e72db3a1ce67e96d53c1c2add24296bc13838065e",
    ("2x3", "crisp"): "e5310c4b1eba9ac1190e3a52907d76617a63153821861247f1330eeedec6abf6",
    ("2x3", "fuzzy"): "8670d1a4b95ddf7babe1f49f3eb11ccf4ff1782e9538b5238f5d42550374cc0b",
    ("2x3", "montecarlo"): "9733f21579e29978ba47a612c5998d6be9b85b8d7ed60ace06a23e4929136bbd",
    ("2x3", "compare"): "ea9da5701d4f9eafd1658ef17eba3f87009687264b97ff498848c49499750623",
}
LOW_LEVELS_FUZZY = "982516c3ffa9a6185aeb7172c0645bc2e00c8c12e605b837293f68ce13645518"
# the bytes of a run that proposes every cold corner, with no warm start
EIGHT_BY_EIGHT_FUZZY = "7de547029e1eb49b18c2ec6fc1d0b7226afd57d2188c4b7ee6a4aad84f5d40b7"
# no optimal basis repeats in these 400 steps, so every step reaches fresh
EIGHT_BY_EIGHT_MONTECARLO = "f8194611cb44535b73444cb0f7250017170100b8000f684a1bacc54adad9a501"

# fractional supplies and costs: shipments and total cost that 9 digits round
FRACTIONAL_TRANSPORT = {
    "schema_version": 1,
    "kind": "transport",
    "supplies": [10.1, 20.2, 5.05],
    "demands": [12.3, 13.05, 10.0],
    "costs": [[4.5, 6.25, 1.0 / 3.0], [5.125, 3.3, 7.7], [2.2, 9.9, 0.1]],
}
FRACTIONAL_TRANSPORT_CRISP = "2598e593d8871796930e7b798ec3b6aa587d42b1a7ee3e5a0c1d59854a48d9ee"
INGEST_SAMPLES = "be9b9a906c2394c64933c6dc8be75746c0b05ba4502b61c0b03f9315283db941"
INGEST_HISTOGRAM = "0bae641fd9ba3b7dcb9072b3b27de1fd7e23fae95a6af2db6df536e9db98947e"


def _digest(out_dir) -> str:
    """SHA-256 over every file in out_dir: name, NUL, bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("problem, mode", sorted(DIGESTS))
def test_cli_outputs_pinned(tmp_path, problem, mode):
    if problem == "table1":
        source = TABLE1
    else:
        source = tmp_path / "two_by_three.json"
        source.write_text(json.dumps(TWO_BY_THREE))
    out = tmp_path / "out"
    argv = [str(source), *MODES[mode], "--seed", "42", "--out-dir", str(out)]
    if mode == "crisp":
        argv += ["--export-problem", str(out / "exported.json")]
    assert main(argv) == 0
    assert _digest(out) == DIGESTS[problem, mode]


def test_fuzzy_outputs_pinned_through_the_screen(tmp_path):
    # levels 0 to 0.6 infeasible (screened), 0 to 0.7 repaired; level 0
    # cannot be fitted, so the run exits 3 after writing fuzzy_levels.csv
    source = tmp_path / "low_levels.json"
    source.write_text(json.dumps(LOW_LEVELS))
    out = tmp_path / "out"
    assert main([str(source), "--mode", "fuzzy", "--seed", "42", "--out-dir", str(out)]) == 3
    assert [path.name for path in out.iterdir()] == ["fuzzy_levels.csv"]
    assert _digest(out) == LOW_LEVELS_FUZZY


def test_fuzzy_outputs_pinned_through_warm_starts(tmp_path, engine_counts):
    # 10 of the 22 corners are cold; phase 2 from a stored basis certifies
    # 6 of them, and the bytes are those of a run that proposed all 10
    source = tmp_path / "eight_by_eight.json"
    source.write_text(json.dumps(eight_by_eight()))
    out = tmp_path / "out"
    assert main([str(source), "--mode", "fuzzy", "--seed", "42", "--out-dir", str(out)]) == 0
    assert _digest(out) == EIGHT_BY_EIGHT_FUZZY
    counts = engine_counts()
    assert (counts["cold"], counts["warm"], counts["proposed"]) == (10, 6, 4)


def test_montecarlo_outputs_pinned_where_bases_seldom_repeat(tmp_path, engine_counts):
    # one chunk of 400 scenarios: no cached basis answers a second row, so
    # each row is warm-started or proposed, and certified; the bench's
    # Monte Carlo workload is the other case, where bases repeat
    source = tmp_path / "eight_by_eight.json"
    source.write_text(json.dumps(eight_by_eight()))
    out = tmp_path / "out"
    argv = [str(source), "--mode", "montecarlo", "--mc-steps", "400", "--seed", "42"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    assert _digest(out) == EIGHT_BY_EIGHT_MONTECARLO
    counts = engine_counts()
    engines = ("cold", "warm", "proposed", "tableau")
    assert [counts[key] for key in engines] == [400, 372, 28, 0]


def test_transport_outputs_pinned(tmp_path):
    source = tmp_path / "fractional.json"
    source.write_text(json.dumps(FRACTIONAL_TRANSPORT))
    out = tmp_path / "out"
    argv = [str(source), "--mode", "crisp", "--out-dir", str(out)]
    assert main([*argv, "--export-problem", str(out / "exported.json")]) == 0
    shipments = json.loads((out / "crisp_solution.json").read_text())["shipments"]
    assert any(v != int(v) for row in shipments for v in row)
    assert _digest(out) == FRACTIONAL_TRANSPORT_CRISP


def test_ingest_outputs_pinned(tmp_path):
    rng = np.random.default_rng(23)
    samples = tmp_path / "samples.txt"
    samples.write_text("".join(f"{v!r}\n" for v in rng.normal(100.0, 7.0, 300).tolist()))
    counts, edges = np.histogram(rng.normal(40.0, 3.0, 500), bins=12)
    rows = [f"{lo!r},{hi!r},{c}" for lo, hi, c in zip(edges.tolist(), edges[1:].tolist(), counts)]
    histogram = tmp_path / "histogram.csv"
    histogram.write_text("bin_lo,bin_hi,count\n" + "\n".join(rows) + "\n")
    for source, digest in ((samples, INGEST_SAMPLES), (histogram, INGEST_HISTOGRAM)):
        out = tmp_path / source.stem
        assert main([str(source), "--mode", "ingest", "--out-dir", str(out)]) == 0
        assert _digest(out) == digest
