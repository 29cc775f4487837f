"""Distributor-benefit planning model.

A distributor buys from M suppliers (capacity-bounded, with contracted
minimum purchases) and sells to N customers (demand-bounded, with
contracted minimum sales). Unit profit on a lane is the sale price minus
the purchase price minus the transport cost; the model maximizes total
profit. Parameters are trapezoidal fuzzy numbers; a crisp snapshot of
them instantiates an ordinary LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .simplex import FEAS_TOL, LinearProgram

__all__ = [
    "Field",
    "FIELDS",
    "lanes",
    "ParameterTable",
    "DistributionProblem",
    "CrispInstance",
    "FeasibilityReport",
    "profit_coefficients",
    "PROFIT_FIELDS",
    "lane_profits",
    "crisp_profits",
    "RHS_FIELDS",
    "LpSkeleton",
    "lp_skeleton",
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


# The parameter layout, declared once. Its order is the Monte Carlo draw
# order and the key order of exported problem files.
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


class DistributionProblem(ParameterTable):
    """Fuzzy model parameters; every entry is a TrapezoidalFuzzyNumber.

    contract_purchase_price and contract_sale_price are bookkeeping from
    the source data sheets: the objective never uses them, they are kept
    only so problem files round-trip losslessly.
    """

    def is_crisp(self, tol: float = 0.0) -> bool:
        return all(t.is_crisp(tol) for t in self.values())


class CrispInstance(ParameterTable):
    """Real-valued snapshot of the model parameters."""

    def __post_init__(self):
        super().__post_init__()
        if not all(math.isfinite(v) for v in self.values()):
            raise ValueError("crisp parameters must be finite")


# The fields lane_profits takes, in its argument order.
PROFIT_FIELDS = ("purchase_price", "sale_price", "transport_cost")


def profit_coefficients(p: DistributionProblem) -> tuple:
    """Fuzzy per-lane profit: sale price minus purchase price minus haul cost."""
    m, n = p.shape
    return tuple(
        tuple(
            (p.sale_price[j] - p.purchase_price[i]) - p.transport_cost[i][j]
            for j in range(n)
        )
        for i in range(m)
    )


def lane_profits(purchase_price, sale_price, transport_cost) -> np.ndarray:
    """Per-lane profit (sale - purchase) - haul, elementwise.

    Arrays of shape (..., M), (..., N) and (..., M, N) give (..., M, N):
    one scenario, or a batch of them along the leading axes. The order
    of the two subtractions is fixed, so a scenario gets the same floats
    alone or in a batch.
    """
    return (sale_price[..., None, :] - purchase_price[..., :, None]) - transport_cost


def crisp_profits(inst: CrispInstance) -> tuple:
    z = lane_profits(*(np.array(getattr(inst, name)) for name in PROFIT_FIELDS))
    return tuple(map(tuple, z.tolist()))


# The fields whose entries are the LP's right-hand side, in constraint-row order.
RHS_FIELDS = ("supply_max", "demand_max", "purchase_min", "sale_min")


class LpSkeleton(NamedTuple):
    """The constraint rows of the distributor LP of one shape; only c and b vary."""

    coeffs: tuple  # 2(M+N) rows of 0/1 floats: supplier row sums, customer column sums, twice
    relations: tuple  # "<=" on the first M+N rows (capacities), ">=" on the rest (contracts)


@cache
def lp_skeleton(shape) -> LpSkeleton:
    """Row sums are capped by supply and floored by the purchase contracts;
    column sums are capped by demand and floored by the sale contracts.
    Row k pairs with the k-th entry of the RHS_FIELDS values.
    """
    m, n = shape
    rows = [tuple(1.0 if k // n == i else 0.0 for k in range(m * n)) for i in range(m)]
    cols = [tuple(1.0 if k % n == j else 0.0 for k in range(m * n)) for j in range(n)]
    return LpSkeleton(tuple(rows + cols) * 2, ("<=",) * (m + n) + (">=",) * (m + n))


def to_lp(inst: CrispInstance) -> LinearProgram:
    """Profit-maximizing LP: MN shipment variables, 2(M+N) constraints."""
    skeleton = lp_skeleton(inst.shape)
    objective = tuple(v for row in crisp_profits(inst) for v in row)
    rhs = [float(v) for name in RHS_FIELDS for v in getattr(inst, name)]
    return LinearProgram(objective, "max", tuple(zip(skeleton.coeffs, skeleton.relations, rhs)))


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def necessary_violations(supply_max, demand_max, purchase_min, sale_min):
    """Which necessary feasibility conditions fail, for a batch of scenarios.

    Arguments are (K, M) or (K, N) arrays, one row per scenario, in
    RHS_FIELDS order. Returns boolean masks: (K, M) for a supplier whose
    purchase minimum exceeds its capacity, (K, N) for a customer whose
    sale minimum exceeds its demand, and (K,) for total sale minimums
    over total supply and for total purchase minimums over total demand.
    Each flags a violation by more than FEAS_TOL; the phase-1 sum of
    artificials is at least the violation, so the simplex reports every
    flagged scenario infeasible.
    """
    return (
        purchase_min > supply_max + FEAS_TOL,
        sale_min > demand_max + FEAS_TOL,
        sale_min.sum(axis=1) > supply_max.sum(axis=1) + FEAS_TOL,
        purchase_min.sum(axis=1) > demand_max.sum(axis=1) + FEAS_TOL,
    )


def feasibility_precheck(inst: CrispInstance) -> FeasibilityReport:
    """Necessary-condition screen; passing does not guarantee feasibility.

    The full check is the phase-1 LP, which the solver runs anyway; this
    exists to give named diagnostics before any solve.
    """
    batch = (np.array([getattr(inst, name)]) for name in RHS_FIELDS)
    rows, cols, sale_total, purchase_total = necessary_violations(*batch)
    violations = []
    for i in np.flatnonzero(rows[0]):
        violations.append(
            f"purchase_min[{i}]={inst.purchase_min[i]:g} exceeds "
            f"supply_max[{i}]={inst.supply_max[i]:g}"
        )
    for j in np.flatnonzero(cols[0]):
        violations.append(
            f"sale_min[{j}]={inst.sale_min[j]:g} exceeds "
            f"demand_max[{j}]={inst.demand_max[j]:g}"
        )
    if sale_total[0]:
        violations.append(
            f"total sale_min {sum(inst.sale_min):g} exceeds "
            f"total supply_max {sum(inst.supply_max):g}"
        )
    if purchase_total[0]:
        violations.append(
            f"total purchase_min {sum(inst.purchase_min):g} exceeds "
            f"total demand_max {sum(inst.demand_max):g}"
        )
    return FeasibilityReport(not violations, tuple(violations))


def midpoint_instance(p: DistributionProblem) -> CrispInstance:
    """Crisp snapshot at the core midpoints (the means, for symmetric input)."""
    return p.map(CrispInstance, lambda field, index, t: 0.5 * (t.b + t.c))
