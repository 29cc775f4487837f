"""Every byte the CLI writes, pinned by SHA-256 for two problems.

The bundled 3x3 table1 and a 2x3 problem whose six lanes all have
different costs and different optimal shipments: a writer that mixes up
rows and columns changes the 2x3 bytes even where a square problem's
shape would still look right.
"""

import hashlib
import json
from importlib.resources import files

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
    ("table1", "montecarlo"): "8f252534e90d6c4d59b8d4dd943c6a167bc7145036e89ae47b8be2451c6c7ee6",
    ("table1", "compare"): "9ef96d366a53df6a94f5e2b32621050baa2dc62b6ae62cac90c12c6ca3a3fddb",
    ("2x3", "crisp"): "e5310c4b1eba9ac1190e3a52907d76617a63153821861247f1330eeedec6abf6",
    ("2x3", "fuzzy"): "8670d1a4b95ddf7babe1f49f3eb11ccf4ff1782e9538b5238f5d42550374cc0b",
    ("2x3", "montecarlo"): "abc2e56d85c5132689b3fa487776d2e11846320383a8e9eb438b61dc9fae12c0",
    ("2x3", "compare"): "991d7f6341247a373242fd4689849cd3bbc49f0bd83e1faf1ebb02e367d32a87",
}


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
