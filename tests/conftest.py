import collections

import pytest

import fuzzyplan.basis as basis
from fuzzyplan.fuzzy import TrapezoidalFuzzyNumber
from fuzzyplan.ingest import gaussian_to_trapezoid
from fuzzyplan.model import CrispInstance, DistributionProblem

# bundled 3x3 distributor example (same numbers as data/table1.json)
DEMO = dict(
    supply_max=(460.0, 460.0, 610.0),
    demand_max=(410.0, 510.0, 610.0),
    purchase_min=(440.0, 440.0, 590.0),
    sale_min=(390.0, 490.0, 590.0),
    purchase_price=(590.0, 480.0, 570.0),
    sale_price=(990.0, 1100.0, 1180.0),
    transport_cost=(
        (100.0, 30.0, 100.0),
        (110.0, 36.0, 405.0),
        (120.0, 148.0, 11.0),
    ),
    contract_purchase_price=(600.0, 491.0, 581.0),
    contract_sale_price=(1000.0, 1130.0, 1197.0),
)

DEMO_OPTIMUM = 781030.0
DEMO_SIGMA = 10.0


def _map_values(table, fn):
    out = {}
    for key, val in table.items():
        if isinstance(val[0], tuple):
            out[key] = tuple(tuple(fn(v) for v in row) for row in val)
        else:
            out[key] = tuple(fn(v) for v in val)
    return out


@pytest.fixture
def demo_means() -> CrispInstance:
    return CrispInstance(**DEMO)


@pytest.fixture
def demo_crisp_problem() -> DistributionProblem:
    return DistributionProblem(**_map_values(DEMO, TrapezoidalFuzzyNumber.crisp))


@pytest.fixture
def demo_problem() -> DistributionProblem:
    # every parameter Gaussian with sigma 10, trapezoids at the 30%/90% levels
    return DistributionProblem(
        **_map_values(DEMO, lambda v: gaussian_to_trapezoid(v, DEMO_SIGMA))
    )


@pytest.fixture
def counted_solves(monkeypatch):
    """Counts the cold rows of basis._BasisCache.answer: the LPs that no
    stored basis certifies, which every crisp, Monte Carlo and fuzzy run
    hands to _BasisCache.fresh (the warm start from a stored basis, the
    transport proposal, then the simplex), one call each, with the LPs
    still pending, one a column."""
    calls = []
    fresh = basis._BasisCache.fresh

    def counted(self, c, b, start):
        calls.append((c, b))
        return fresh(self, c, b, start)

    monkeypatch.setattr(basis._BasisCache, "fresh", counted)
    return calls


@pytest.fixture
def tableau_solves(monkeypatch):
    """Counts the simplex solves of basis: the cold rows that no transport
    proposal certified."""
    calls = []
    solve = basis.solve

    def counted(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(basis, "solve", counted)
    return calls


@pytest.fixture
def engine_counts(monkeypatch):
    """A function that reads what the engines of basis._BasisCache.answer
    have done so far: "cold" rows (fresh calls), "warm" rows (certified
    by phase 2 from a stored basis), "phase 2" runs, "proposed" rows,
    "tableau" solves and "certify" calls. fresh proposes only where the
    warm start did not certify the row, so warm is cold minus proposed."""
    counts = collections.Counter()

    def count(owner, name, key):
        method = getattr(owner, name)

        def counted(*args):
            counts[key] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, counted)

    count(basis._BasisCache, "fresh", "cold")
    count(basis._BasisCache, "propose", "proposed")
    count(basis._BasisCache, "certify", "certify")
    count(basis, "solve", "tableau")
    count(basis, "reoptimize", "phase 2")

    def read():
        warm = counts["cold"] - counts["proposed"]
        keys = ("cold", "warm", "phase 2", "proposed", "tableau", "certify")
        return {key: warm if key == "warm" else counts[key] for key in keys}

    return read
