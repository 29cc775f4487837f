"""The result writers against their per-value references.

_json_text must write exactly json.dumps(_jsonable(x), indent=2), and
_fmt_row exactly ",".join(map(_fmt, row)), for every value the rounding
rule treats differently: signed zeros, infinities, nan, subnormals and
the float maximum, beside ints, bools, None, strings and empty
containers. _hist_rows writes each edge as _fmt does, but an edge at the
float maximum, whose 9 digits fall below it, in full.
"""

import json
import math

from hypothesis import example, given
from hypothesis import strategies as st

from fuzzyplan import cli
from fuzzyplan.ingest import BinnedHistogram

EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7976931348623157e308)
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((-0.0, 5e-324))
scalars = st.none() | st.booleans() | st.integers() | floats | st.text()
# lists of finite floats take the writer's one-call path; others go value by value
leaves = scalars | st.lists(finite, min_size=1) | st.lists(floats | st.integers(), min_size=1)


def containers(children):
    return (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.dictionaries(st.integers() | st.booleans() | st.none(), children)
    )


payloads = st.recursive(leaves, containers, max_leaves=40)


@given(payloads)
@example({"shipments": [[0.1 + 0.2, -0.0], [5e-324, 1.7976931348623157e308]], "total": 1 / 3})
@example({"quadruple": [math.nan, math.inf, -math.inf, 1.0], "empty": [], "none": {}})
@example([[True, 1, 1.0], (2.5,), "é\n"])
def test_json_text_equals_indented_dumps(payload):
    assert cli._json_text(payload) == json.dumps(cli._jsonable(payload), indent=2)


def test_write_json_ends_with_a_newline(tmp_path):
    payload = {"status": "optimal", "benefit": 2 / 3, "shipments": [[1.0, 0.5], [None, 7]]}
    path = tmp_path / "out.json"
    cli._write_json(path, payload)
    assert path.read_text() == json.dumps(cli._jsonable(payload), indent=2) + "\n"


@given(st.lists(floats | st.integers(-(10**300), 10**300) | st.booleans()))
@example(list(EDGE_FLOATS))
def test_fmt_row_equals_joined_fmt(row):
    assert cli._fmt_row(row) == ",".join(map(cli._fmt, row))


TOP = 1.7976931348623157e308


@given(st.lists(finite, min_size=2, max_size=6, unique=True).map(sorted))
@example([-TOP, 0.0, TOP])
@example([1.79769311e308, TOP])
def test_hist_rows_write_the_float_maximum_in_full(edges):
    counts = tuple(float(k + 1) for k in range(len(edges) - 1))
    rows = cli._hist_rows(BinnedHistogram(tuple(edges), counts))

    def text(edge):
        return repr(edge) if abs(edge) == TOP else cli._fmt(edge)

    assert rows == [
        f"{text(lo)},{text(hi)},{cli._fmt(n)}" for lo, hi, n in zip(edges, edges[1:], counts)
    ]
