import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyplan.fuzzy import TrapezoidalFuzzyNumber
from fuzzyplan.ingest import (
    BinnedHistogram,
    EmpiricalCDF,
    SampleSet,
    confidence_interval,
    ecdf_from_histogram,
    ecdf_from_samples,
    gaussian_to_trapezoid,
    read_histogram_csv,
    read_samples,
    to_trapezoid,
)
from fuzzyplan.ingest import _z_values

# inverse normal CDF at 0.65 and 0.95, frozen from statistics.NormalDist
Z_CORE_30 = 0.38532046640756773
Z_SUPPORT_90 = 1.6448536269514722


def unit_uniform_cdf():
    # single unit-mass bin on [0,1] gives the exact uniform CDF
    return ecdf_from_histogram(BinnedHistogram((0.0, 1.0), (1.0,)))


def test_type_validation():
    with pytest.raises(ValueError):
        SampleSet(())
    with pytest.raises(ValueError):
        SampleSet((1.0, float("inf")))
    with pytest.raises(ValueError):
        BinnedHistogram((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        BinnedHistogram((0.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        BinnedHistogram((0.0, 1.0), (-1.0,))
    with pytest.raises(ValueError):
        BinnedHistogram((0.0, 1.0, 2.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        EmpiricalCDF((0.0, 1.0), (0.0, 0.5))
    with pytest.raises(ValueError):
        EmpiricalCDF((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        EmpiricalCDF((0.0, 1.0), (0.8, 0.5))


@pytest.mark.parametrize(
    "xs, ps",
    [
        ((0.0, math.nan, 2.0), (0.0, 0.5, 1.0)),
        ((0.0, 1.0, 2.0), (0.0, math.nan, 1.0)),
        ((0.0, math.inf), (0.0, 1.0)),
        ((-math.inf, 0.0), (0.0, 1.0)),
        ((0.0, 1.0), (-math.inf, 1.0)),
    ],
)
def test_ecdf_rejects_knots_that_are_not_finite(xs, ps):
    # NaN compares false, so it passes every order test of the knots
    with pytest.raises(ValueError, match="finite"):
        EmpiricalCDF(xs, ps)


def test_ecdf_from_samples_median():
    f = ecdf_from_samples(SampleSet((1.0, 2.0, 3.0, 4.0)))
    assert f.cdf(2.5) == pytest.approx(0.5)
    assert f.cdf(1.0) == 0.0
    assert f.cdf(4.0) == 1.0
    assert f.cdf(0.5) == 0.0
    assert f.cdf(9.0) == 1.0
    assert f.xs[0] == 1.0
    assert f.xs[-1] == 4.0


def test_ecdf_constant_sample_steps():
    f = ecdf_from_samples(SampleSet((5.0, 5.0, 5.0)))
    assert f.cdf(4.999) == 0.0
    assert f.cdf(5.0) == 1.0
    assert f.quantile(0.3) == 5.0
    assert f.quantile(0.97) == 5.0


def test_ecdf_duplicates_keep_upper_envelope():
    f = ecdf_from_samples(SampleSet((1.0, 1.0, 2.0)))
    assert f.cdf(1.0) == pytest.approx(0.5)
    assert f.cdf(2.0) == 1.0


def test_ecdf_uniform_draws_match_uniform_cdf():
    rng = np.random.default_rng(42)
    f = ecdf_from_samples(SampleSet(tuple(rng.uniform(0, 1, 100_000))))
    assert f.cdf(0.35) == pytest.approx(0.35, abs=0.01)
    assert f.cdf(0.8) == pytest.approx(0.8, abs=0.01)


def test_ecdf_from_histogram_examples():
    f = ecdf_from_histogram(BinnedHistogram((0.0, 1.0, 2.0), (1.0, 1.0)))
    assert f.cdf(1.0) == pytest.approx(0.5)
    f = ecdf_from_histogram(BinnedHistogram((0.0, 10.0), (7.0,)))
    assert f.cdf(5.0) == pytest.approx(0.5)
    f = ecdf_from_histogram(BinnedHistogram((0.0, 1.0, 2.0), (3.0, 1.0)))
    assert f.cdf(1.0) == pytest.approx(0.75)
    assert f.cdf(0.5) == pytest.approx(0.375)


def test_quantile_infimum_on_flat_segment():
    # middle bin is empty, so the CDF is flat at 0.5 across [1, 2]
    f = ecdf_from_histogram(BinnedHistogram((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 1.0)))
    assert f.cdf(1.5) == pytest.approx(0.5)
    assert f.quantile(0.5) == pytest.approx(1.0)
    assert f.quantile(0.5 + 1e-9) == pytest.approx(2.0, abs=1e-6)


def test_quantile_cdf_roundtrip():
    rng = np.random.default_rng(13)
    f = ecdf_from_samples(SampleSet(tuple(rng.normal(0, 1, 500))))
    for g in (0.05, 0.2, 0.5, 0.8, 0.95):
        assert f.cdf(f.quantile(g)) == pytest.approx(g, abs=1e-9)


def _searchsorted_quantile(f: EmpiricalCDF, g: float) -> float:
    """EmpiricalCDF.quantile with numpy's binary search: the reference."""
    j = int(np.searchsorted(np.asarray(f.ps), g, side="left"))
    if j <= 0:
        return f.xs[0]
    if j >= len(f.ps):
        return f.xs[-1]
    p0, p1 = f.ps[j - 1], f.ps[j]
    x0, x1 = f.xs[j - 1], f.xs[j]
    return x0 + (g - p0) / (p1 - p0) * (x1 - x0)


# few distinct values, so samples repeat and histogram bins are empty
# (equal CDF heights at neighbouring knots)
few_values = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0, 7.25])


@st.composite
def ecdfs(draw):
    if draw(st.booleans()):
        return ecdf_from_samples(SampleSet(tuple(draw(st.lists(few_values, min_size=1)))))
    counts = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0]), min_size=1, max_size=12))
    counts[draw(st.integers(0, len(counts) - 1))] = 1.0  # some mass
    widths = st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=len(counts), max_size=len(counts))
    edges = np.cumsum([0.0] + draw(widths))
    return ecdf_from_histogram(BinnedHistogram(tuple(edges.tolist()), tuple(counts)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(f=ecdfs(), data=st.data())
def test_quantile_matches_searchsorted(f, data):
    # levels on the knots' own heights hit the ties, where side "left" matters
    g = data.draw(st.floats(0.0, 1.0) | st.sampled_from((0.0, 1.0) + f.ps), label="g")
    got, want = f.quantile(g), _searchsorted_quantile(f, g)
    assert got == want and type(got) is type(want)


def test_quantile_across_a_bin_wider_than_the_float_maximum(tmp_path):
    # x1 - x0 overflows on this bin: the quantiles interpolate as
    # (1 - t) x0 + t x1 instead, finite and in order inside its edges
    path = tmp_path / "wide.csv"
    path.write_text("-1e308,1e308,5\n")
    trap = to_trapezoid(ecdf_from_histogram(read_histogram_csv(path)))
    quad = [trap.a, trap.b, trap.c, trap.d]
    assert all(map(math.isfinite, quad))
    assert -1e308 <= trap.a < trap.b < trap.c < trap.d <= 1e308
    assert quad == pytest.approx([-0.9e308, -0.3e308, 0.3e308, 0.9e308], rel=1e-12)


def test_quantile_matches_searchsorted_on_repeated_heights():
    f = ecdf_from_histogram(BinnedHistogram((0.0, 1.0, 2.0, 3.0, 4.0), (1.0, 0.0, 0.0, 1.0)))
    assert len(set(f.ps)) < len(f.ps)
    for g in (0.0, 0.25, 0.5, 0.75, 1.0) + f.ps:
        assert f.quantile(g) == _searchsorted_quantile(f, g)


def test_confidence_interval_uniform():
    f = unit_uniform_cdf()
    ci30 = confidence_interval(f, 0.30)
    assert ci30.lo == pytest.approx(0.35)
    assert ci30.hi == pytest.approx(0.65)
    ci90 = confidence_interval(f, 0.90)
    assert ci90.lo == pytest.approx(0.05)
    assert ci90.hi == pytest.approx(0.95)
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            confidence_interval(f, bad)


def test_confidence_intervals_nest():
    rng = np.random.default_rng(19)
    f = ecdf_from_samples(SampleSet(tuple(rng.gamma(2.0, 3.0, 2000))))
    prev = None
    for g in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        ci = confidence_interval(f, g)
        if prev is not None:
            assert ci.contains(prev)
        prev = ci


def test_to_trapezoid_uniform():
    t = to_trapezoid(unit_uniform_cdf(), 0.30, 0.90)
    assert t.a == pytest.approx(0.05)
    assert t.b == pytest.approx(0.35)
    assert t.c == pytest.approx(0.65)
    assert t.d == pytest.approx(0.95)


def test_to_trapezoid_point_distribution():
    f = ecdf_from_samples(SampleSet((5.0, 5.0, 5.0)))
    assert to_trapezoid(f, 0.30, 0.90) == TrapezoidalFuzzyNumber(5.0, 5.0, 5.0, 5.0)


def test_to_trapezoid_level_validation():
    f = unit_uniform_cdf()
    for core, sup in ((0.9, 0.3), (0.3, 0.3), (0.0, 0.9), (0.3, 1.0)):
        with pytest.raises(ValueError):
            to_trapezoid(f, core, sup)


def test_to_trapezoid_gaussian_samples():
    rng = np.random.default_rng(7)
    f = ecdf_from_samples(SampleSet(tuple(rng.normal(100.0, 10.0, 100_000))))
    t = to_trapezoid(f, 0.30, 0.90)
    want = gaussian_to_trapezoid(100.0, 10.0, 0.30, 0.90)
    for got, ref in zip((t.a, t.b, t.c, t.d), (want.a, want.b, want.c, want.d)):
        assert got == pytest.approx(ref, abs=0.5)


def test_trapezoid_inside_cdf_support():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = ecdf_from_samples(SampleSet(tuple(rng.normal(0, 5, 200))))
        t = to_trapezoid(f, 0.30, 0.90)
        assert t.a <= t.b <= t.c <= t.d
        assert f.xs[0] <= t.a
        assert t.d <= f.xs[-1]


def test_gaussian_to_trapezoid_frozen():
    t = gaussian_to_trapezoid(100.0, 10.0, 0.30, 0.90)
    assert t.a == pytest.approx(100.0 - 10.0 * Z_SUPPORT_90, abs=1e-9)
    assert t.b == pytest.approx(100.0 - 10.0 * Z_CORE_30, abs=1e-9)
    assert t.c == pytest.approx(100.0 + 10.0 * Z_CORE_30, abs=1e-9)
    assert t.d == pytest.approx(100.0 + 10.0 * Z_SUPPORT_90, abs=1e-9)
    # two-decimal sanity anchors
    assert t.a == pytest.approx(83.55, abs=0.005)
    assert t.b == pytest.approx(96.15, abs=0.005)
    assert t.c == pytest.approx(103.85, abs=0.005)
    assert t.d == pytest.approx(116.45, abs=0.005)


def test_gaussian_to_trapezoid_degenerate_and_symmetry():
    assert gaussian_to_trapezoid(460.0, 0.0) == TrapezoidalFuzzyNumber.crisp(460.0)
    t = gaussian_to_trapezoid(0.0, 1.0, 0.30, 0.90)
    assert t.b == pytest.approx(-t.c)
    assert t.a == pytest.approx(-t.d)
    with pytest.raises(ValueError):
        gaussian_to_trapezoid(0.0, -1.0)


def test_sample_vs_analytic_consistency():
    rng = np.random.default_rng(101)
    f = ecdf_from_samples(SampleSet(tuple(rng.normal(50.0, 4.0, 200_000))))
    t = to_trapezoid(f)
    ref = gaussian_to_trapezoid(50.0, 4.0)
    for got, want in zip((t.a, t.b, t.c, t.d), (ref.a, ref.b, ref.c, ref.d)):
        assert got == pytest.approx(want, abs=0.2)


def test_read_samples(tmp_path):
    p = tmp_path / "vals.txt"
    p.write_text("1.5\n\n2.5\n-3\n")
    s = read_samples(p)
    assert s.values == (1.5, 2.5, -3.0)
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\noops\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_samples(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(ValueError):
        read_samples(empty)
    marked = tmp_path / "marked.txt"
    marked.write_text("1.5\n2.5\n", encoding="utf-8-sig")
    assert read_samples(marked).values == (1.5, 2.5)


@pytest.mark.parametrize(
    "text, where",
    [
        ("\n\n1.0\n\n  \noops\n2.0\nbad\n", ":6: not a number: 'oops'"),
        ("\ufeff1.0\n2.0\nx1\n", ":3: not a number: 'x1'"),
        ("\ufeffoops\n1.0\n", ":1: not a number: 'oops'"),
        ("1.0\r\n\r\n1 2\r\n", ":3: not a number: '1 2'"),
        ("1.0\r2.0\r3,0\r", ":3: not a number: '3,0'"),
    ],
    ids=["blank-lines", "byte-order-mark", "marked-first-line", "two-on-a-line", "cr-endings"],
)
def test_read_samples_names_first_bad_line(tmp_path, text, where):
    p = tmp_path / "vals.txt"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}{where}") + "$"):
        read_samples(p)


def test_read_samples_rejects_non_finite(tmp_path):
    p = tmp_path / "vals.txt"
    p.write_text("1.0\n-inf\nnan\n")
    message = f"{p}: sample values must be finite, got -inf"  # the file is named
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read_samples(p)


def test_gaussian_z_values_are_computed_once_per_level_pair():
    _z_values.cache_clear()
    for mean in (1.0, 2.0, 3.0):
        gaussian_to_trapezoid(mean, 1.0, 0.4, 0.8)
    assert _z_values.cache_info().misses == 1
    normal = NormalDist()
    want = (normal.inv_cdf(0.7), normal.inv_cdf(0.9))
    assert _z_values(0.4, 0.8) == want  # the same floats as computing them afresh
    t = gaussian_to_trapezoid(10.0, 2.0, 0.4, 0.8)
    assert (t.a, t.b, t.c, t.d) == (
        10.0 - want[1] * 2.0,
        10.0 - want[0] * 2.0,
        10.0 + want[0] * 2.0,
        10.0 + want[1] * 2.0,
    )


def test_read_histogram_csv(tmp_path):
    p = tmp_path / "hist.csv"
    for text in ("bin_lo,bin_hi,count\n", "\n ,\nbin_lo,bin_hi,count\n"):  # header after blank rows
        p.write_text(text + "0,1,3\n1,2,1\n")
        h = read_histogram_csv(p)
        assert h.bin_edges == (0.0, 1.0, 2.0)
        assert h.counts == (3.0, 1.0)


def test_read_histogram_csv_gap_and_no_header(tmp_path):
    p = tmp_path / "hist.csv"
    p.write_text("0,1,2\n3,4,2\n")
    h = read_histogram_csv(p)
    assert h.bin_edges == (0.0, 1.0, 3.0, 4.0)
    assert h.counts == (2.0, 0.0, 2.0)


def test_read_histogram_csv_errors(tmp_path):
    p = tmp_path / "overlap.csv"
    p.write_text("0,2,1\n1,3,1\n")
    with pytest.raises(ValueError, match="overlap"):
        read_histogram_csv(p)
    q = tmp_path / "junk.csv"
    q.write_text("bin_lo,bin_hi,count\n0,1,x\n")
    with pytest.raises(ValueError, match="junk.csv:2"):
        read_histogram_csv(q)
    twice = tmp_path / "twice.csv"  # only the first non-blank row may be a header
    twice.write_text("\nbin_lo,bin_hi,count\nbin_lo,bin_hi,count\n0,1,3\n")
    with pytest.raises(ValueError, match="twice.csv:3: bad numeric row"):
        read_histogram_csv(twice)
    r = tmp_path / "short.csv"
    r.write_text("bin_lo,bin_hi,count\n0,1\n")
    with pytest.raises(ValueError, match="3 columns"):
        read_histogram_csv(r)


@pytest.mark.parametrize("header", ["", "bin_lo,bin_hi,count\n"])
def test_read_histogram_csv_skips_byte_order_mark(tmp_path, header):
    # a byte-order mark before a numeric first row must not turn that row
    # into a header and drop its bin
    text = header + "0,1,3\n1,2,5\n2,3,2\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    h = read_histogram_csv(marked)
    assert h == read_histogram_csv(plain)
    assert h.bin_edges == (0.0, 1.0, 2.0, 3.0)
    assert h.counts == (3.0, 5.0, 2.0)
