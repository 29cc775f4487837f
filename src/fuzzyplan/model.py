"""Distributor-benefit planning model.

A distributor buys from M suppliers (capacity-bounded, with contracted
minimum purchases) and sells to N customers (demand-bounded, with
contracted minimum sales). Unit profit on a lane is the sale price minus
the purchase price minus the transport cost; the model maximizes total
profit. Parameters are trapezoidal fuzzy numbers; a crisp snapshot of
them instantiates an ordinary LP. The LP is held as arrays: the
constraint matrix of a shape never changes (lp_skeleton), and lp_rows
turns scenarios, rows of parameter values in values() order, into their
lane profits c and right-hand sides b, for every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .intervals import midpoint
from .simplex import FEAS_TOL, LinearProgram

__all__ = [
    "Field",
    "FIELDS",
    "lanes",
    "ParameterTable",
    "DistributionProblem",
    "CrispInstance",
    "FeasibilityReport",
    "lane_profits",
    "lp_skeleton",
    "lp_rows",
    "to_lp",
    "necessary_violations",
    "feasibility_precheck",
    "midpoint_instance",
]


class Field(NamedTuple):
    """One model parameter: its name, its layout and how it moves the benefit."""

    name: str
    axis: str  # "rows": one per supplier, "cols": one per customer, "lanes": M rows of N
    optional: bool
    direction: int  # +1 raises the optimal benefit, -1 lowers it, 0 never enters the LP


# The parameter layout, declared once. Its order is the column order of
# scenario rows (see lp_rows), Monte Carlo draws and exported problem files.
FIELDS = (
    Field("supply_max", "rows", False, +1),  # units per supplier
    Field("demand_max", "cols", False, +1),  # units per customer
    Field("purchase_min", "rows", False, -1),  # contracted minimum purchase per supplier
    Field("sale_min", "cols", False, -1),  # contracted minimum sale per customer
    Field("purchase_price", "rows", False, -1),  # reduced purchase price per supplier
    Field("sale_price", "cols", False, +1),  # reduced sale price per customer
    Field("transport_cost", "lanes", False, -1),  # per (supplier, customer) lane
    Field("contract_purchase_price", "rows", True, 0),
    Field("contract_sale_price", "cols", True, 0),
)


def lanes(shape):
    """Lane names in lane order: row by row, the order of the LP's x.

    Every per-lane result is a flat tuple in this order. Names are
    1-based: x_ij while both M and N are at most 9, x_i_j beyond that,
    so that (1, 11) and (11, 1) stay apart.
    """
    m, n = shape
    sep = "" if max(m, n) <= 9 else "_"
    return tuple(f"x_{i + 1}{sep}{j + 1}" for i in range(m) for j in range(n))


def _declare_fields(cls):
    """Make cls a frozen dataclass with one field per FIELDS entry, in order."""
    cls.__annotations__ = {f.name: "tuple | None" if f.optional else "tuple" for f in FIELDS}
    for f in FIELDS:
        if f.optional:
            setattr(cls, f.name, None)
    return dataclass(frozen=True)(cls)


@_declare_fields
class ParameterTable:
    """One entry per model parameter, laid out as FIELDS says.

    Subclasses fix what an entry is: a trapezoid, a float or a Gaussian.
    Optional fields may be None; a present field must match the shape
    given by supply_max (M) and demand_max (N).
    """

    def __post_init__(self):
        m, n = self.shape
        if m < 1 or n < 1:
            raise ValueError("need at least one supplier and one customer")
        for f in FIELDS:
            value = getattr(self, f.name)
            if value is None and f.optional:
                continue
            want = n if f.axis == "cols" else m
            if len(value) != want:
                raise ValueError(f"{f.name} has length {len(value)}, expected {want}")
            if f.axis == "lanes":
                for i, row in enumerate(value):
                    if len(row) != n:
                        raise ValueError(f"{f.name}[{i}] has length {len(row)}, expected {n}")

    @property
    def shape(self) -> tuple:
        return len(self.supply_max), len(self.demand_max)

    def values(self):
        """Every entry in FIELDS order, lanes row by row; absent fields skipped."""
        for f in FIELDS:
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.axis == "lanes":
                for row in value:
                    yield from row
            else:
                yield from value

    def map(self, cls, fn):
        """cls(**fields) with each entry replaced by fn(field, index, entry).

        index is (i,) on supplier and customer fields and (i, j) on
        lanes. Entries are visited in values() order; absent fields
        stay absent.
        """
        kwargs = {}
        for f in FIELDS:
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.axis == "lanes":
                kwargs[f.name] = tuple(
                    tuple([fn(f, (i, j), v) for j, v in enumerate(row)])
                    for i, row in enumerate(value)
                )
            else:
                kwargs[f.name] = tuple([fn(f, (i,), v) for i, v in enumerate(value)])
        return cls(**kwargs)

    def with_values(self, cls, values):
        """cls(**fields) with the entries taken from values, in values() order."""
        values = iter(values)
        return self.map(cls, lambda *_: next(values))


class DistributionProblem(ParameterTable):
    """Fuzzy model parameters; every entry is a TrapezoidalFuzzyNumber.

    contract_purchase_price and contract_sale_price are bookkeeping from
    the source data sheets: the objective never uses them, they are kept
    only so problem files round-trip losslessly.
    """


class CrispInstance(ParameterTable):
    """Real-valued snapshot of the model parameters."""

    def __post_init__(self):
        super().__post_init__()
        if not all(math.isfinite(v) for v in self.values()):
            raise ValueError("crisp parameters must be finite")


def lane_profits(purchase_price, sale_price, transport_cost) -> np.ndarray:
    """Per-lane profit (sale - purchase) - haul, elementwise.

    Arrays of shape (..., M), (..., N) and (..., M, N) give (..., M, N):
    one scenario, or a batch of them along the leading axes. The order
    of the two subtractions is fixed, so a scenario gets the same floats
    alone or in a batch. Finite prices can still overflow here, so a
    profit that is not finite raises ValueError, before any LP is built.
    """
    with np.errstate(over="ignore"):
        profits = (sale_price[..., None, :] - purchase_price[..., :, None]) - transport_cost
    if not np.isfinite(profits).all():
        raise ValueError("lane profits must be finite")
    return profits


@cache
def lp_skeleton(shape) -> tuple:
    """(a, signs): the constraint rows of the distributor LP of one shape,
    a x + diag(signs) s = b with slacks s >= 0.

    Row sums are capped by supply and floored by the purchase contracts;
    column sums are capped by demand and floored by the sale contracts.
    a is the read-only (2(M+N), MN) 0/1 matrix of supplier row sums,
    customer column sums, then both again, held as bool: it stays cached
    for the run, and a float copy would take eight times the memory.
    signs is each row's read-only slack coefficient: +1 on the first
    M+N rows (capacities, a x <= b) and -1 on the rest (contracts,
    a x >= b). Row k pairs with the k-th entry of b. Only c and b vary
    between LPs of one shape.
    """
    m, n = shape
    lane = np.arange(m * n)
    sums = np.vstack([lane // n == np.arange(m)[:, None], lane % n == np.arange(n)[:, None]])
    a = np.vstack([sums, sums])
    signs = np.repeat([1.0, -1.0], m + n)
    a.flags.writeable = signs.flags.writeable = False
    return a, signs


def lp_rows(shape, rows: np.ndarray) -> tuple:
    """(c, b) of the LP of each scenario: each row of (K, P) values.

    The four right-hand-side fields lead FIELDS in constraint-row order,
    so b is the first 2(M+N) columns, a view of rows; the next M+N+MN
    are the prices.
    """
    m, n = shape
    k = 2 * (m + n)
    purchase, sale, haul = np.split(rows[:, k : k + m + n + m * n], [m, m + n], axis=1)
    c = lane_profits(purchase, sale, haul.reshape(-1, m, n)).reshape(len(rows), -1)
    return c, rows[:, :k]


def to_lp(inst: CrispInstance) -> LinearProgram:
    """Profit-maximizing LP of one scenario: MN shipments, 2(M+N) constraints."""
    (c,), (b,) = lp_rows(inst.shape, np.array([list(inst.values())], dtype=float))
    return LinearProgram(*lp_skeleton(inst.shape), b, c)


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def necessary_violations(supply_max, demand_max, purchase_min, sale_min):
    """Which feasibility conditions fail, for a batch of scenarios.

    Arguments are (K, M) or (K, N) arrays, one row per scenario, in
    FIELDS order. Returns boolean masks: (K, M) for a supplier whose
    capacity is below max(purchase minimum, 0), (K, N) for a customer
    whose demand is below max(sale minimum, 0), and (K,) for the total
    of positive sale minimums over total supply and for the total of
    positive purchase minimums over total demand. The lanes are uncapped
    and join every supplier to every customer, so a scenario is feasible
    exactly when no condition fails (Gale's supply-demand theorem,
    Pacific J. Math. 7, 1957). Each flags a violation by more than
    FEAS_TOL; the phase-1 sum of artificials is at least the violation,
    so the simplex reports every flagged scenario infeasible, and a
    scenario the screen passes is infeasible by at most FEAS_TOL.
    """
    # Totals near the float limit may overflow, and the screen still
    # flags only infeasible LPs. An infinite capacity total is never
    # exceeded. A minimum total sums values >= 0, so it reaches +inf
    # only past the float maximum, more than a finite capacity total
    # can carry. A capacity total is -inf or NaN only when some capacity
    # is negative, and the node test flags that scenario.
    purchase_min, sale_min = np.maximum(purchase_min, 0.0), np.maximum(sale_min, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        sale_total, purchase_total = sale_min.sum(axis=1), purchase_min.sum(axis=1)
        supply_total, demand_total = supply_max.sum(axis=1), demand_max.sum(axis=1)
    return (
        purchase_min > supply_max + FEAS_TOL,
        sale_min > demand_max + FEAS_TOL,
        sale_total > supply_total + FEAS_TOL,
        purchase_total > demand_total + FEAS_TOL,
    )


def feasibility_precheck(inst: CrispInstance) -> FeasibilityReport:
    """The feasibility screen of one scenario, with each failed condition named.

    The screen is exact (see necessary_violations), so a report that is
    not ok means phase 1 would find no feasible point; this names why
    before any solve.
    """
    batch = (np.array([getattr(inst, f.name)]) for f in FIELDS[:4])
    rows, cols, sale_total, purchase_total = necessary_violations(*batch)
    violations = []
    sides = (
        (rows[0], "purchase_min", "supply_max"),
        (cols[0], "sale_min", "demand_max"),
    )
    for flagged, least, most in sides:
        for i in np.flatnonzero(flagged):
            low, cap = getattr(inst, least)[i], getattr(inst, most)[i]
            if low > 0:
                violations.append(f"{least}[{i}]={low:g} exceeds {most}[{i}]={cap:g}")
            else:
                violations.append(f"{most}[{i}]={cap:g} is below 0")
    totals = (
        (sale_total[0], "sale_min", "supply_max"),
        (purchase_total[0], "purchase_min", "demand_max"),
    )
    for flagged, least, most in totals:
        if flagged:
            positive = sum(max(v, 0.0) for v in getattr(inst, least))
            violations.append(
                f"total {least} {positive:g} (positive minimums only) exceeds "
                f"total {most} {sum(getattr(inst, most)):g}"
            )
    return FeasibilityReport(not violations, tuple(violations))


def midpoint_instance(p: DistributionProblem) -> CrispInstance:
    """Crisp snapshot at the core midpoints (the means, for symmetric input)."""
    return p.map(CrispInstance, lambda field, index, t: midpoint(t.b, t.c))
