"""Independent slow-path oracles used to cross-check the package.

Nothing in here shares code with src/: the LP oracle brute-forces
vertices, the ordering oracle is plain Monte Carlo, the transport
certificate only *checks* optimality conditions instead of searching, and
the spanning-tree check relabels components instead of walking a tree.
The one exception is GeneralLP, which only translates a general LP
(either sense, "<=", ">=" and "=" rows as tuples) into the arrays that
simplex.solve takes, each "=" row as a "<=" and ">=" pair.
fixed_order_certify is basis certification with every test decided on
fixed-order sums, the reference that the banded certify must equal bit
for bit. north_west_corner is a poor transport start that gives MODI
many pivots to make. step_draws is the definition of one Monte Carlo
step's draws, which monte_carlo._draws must give bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from fuzzyplan.basis import CERTIFY_MARGIN, TIE_MARGIN
from fuzzyplan.simplex import PIVOT_TOL, LinearProgram, SimplexSolution, solve


class GeneralLP(NamedTuple):
    """max or min objective.x subject to (coeffs, relation, rhs) rows and x >= 0."""

    objective: tuple
    sense: str  # "max" or "min"
    constraints: tuple  # of (coeffs tuple, "<=" | ">=" | "=", rhs)

    def as_max(self) -> LinearProgram:
        """The rows as arrays, an "=" row as a "<=" row and then a ">="
        row; a "min" LP becomes the max of -objective.x."""
        c = np.array(self.objective, dtype=float)
        sign = {"<=": (1.0,), ">=": (-1.0,), "=": (1.0, -1.0)}
        rows = [(coeffs, s, rhs) for coeffs, rel, rhs in self.constraints for s in sign[rel]]
        a, signs, b = zip(*rows) if rows else ((), (), ())
        a = np.array(a, dtype=float).reshape(len(b), len(c))
        b = np.array(b, dtype=float)
        return LinearProgram(a, np.array(signs), b, c if self.sense == "max" else -c)


def solve_general(problem: GeneralLP) -> SimplexSolution:
    """simplex.solve on problem.as_max(); a "min" LP reports objective.x."""
    sol = solve(problem.as_max())
    if problem.sense == "max" or sol.x is None:
        return sol
    return replace(sol, objective_value=float(np.array(problem.objective) @ np.array(sol.x)))


def residuals(lp: LinearProgram, x) -> float:
    """Worst constraint violation of x in lp, sign-adjusted so 0 means feasible:
    a row's slack (b - a x) * sign below 0, or an x below 0."""
    x = np.asarray(x, dtype=float)
    gaps = (lp.a @ x - lp.b) * lp.signs
    return float(max(0.0, -x.min(initial=0.0), gaps.max(initial=0.0)))


def fixed_order_sum(vectors, matrix):
    """vectors @ matrix, each entry summed left to right over the rows of
    matrix that are not all zeros, from +0: the same bits whatever the
    number of vectors."""
    out = np.zeros((len(vectors), matrix.shape[1]))
    for r in np.flatnonzero(matrix.any(axis=1)):
        out += vectors[:, r : r + 1] * matrix[r]
    return out


def fixed_order_certify(cache, basis, c, b):
    """(mask, x, benefit, primal mask) of _BasisCache.certify, with every
    x_B, dual and reduced cost a fixed_order_sum over the whole batch.

    The primal mask holds where each basic variable is above minus its
    lead times the floor PIVOT_TOL * max(1, max |b|); a row passes where
    it holds and each nonbasic reduced cost is below -CERTIFY_MARGIN *
    max |c|, or at most TIE_MARGIN * max |c| from 0 where
    dual_lexicographic_negative holds for its column; x and benefit
    cover the passing rows.
    """
    floor = PIVOT_TOL * np.maximum(1.0, np.abs(b).max(axis=1))[:, None]
    x_basic = fixed_order_sum(b, basis.inverse.T)
    primal = (x_basic > -basis.lead * floor).all(axis=1)
    rows = np.flatnonzero(primal)
    costs = np.zeros((len(rows), cache.matrix.shape[1]))
    costs[:, : cache.lanes] = c[rows]
    c_basic = costs[:, basis.basic]
    duals = fixed_order_sum(c_basic, basis.inverse)
    reduced = costs[:, basis.nonbasic] - fixed_order_sum(duals, cache.matrix[:, basis.nonbasic])
    largest = np.abs(c[rows]).max(axis=1)[:, None]
    negative = [dual_lexicographic_negative(cache, basis, j) for j in basis.nonbasic]
    tied = (np.abs(reduced) <= TIE_MARGIN * largest) & negative
    optimal = ((reduced < -CERTIFY_MARGIN * largest) | tied).all(axis=1)
    rows, c_basic = rows[optimal], c_basic[optimal]
    x_basic = x_basic[rows]
    ok = np.zeros(len(b), dtype=bool)
    ok[rows] = True
    shipped = np.flatnonzero(basis.basic < cache.lanes)
    x = np.zeros((len(rows), cache.lanes))
    x[:, basis.basic[shipped]] = x_basic[:, shipped]
    benefit = np.zeros(len(rows))
    for r in shipped:
        benefit += c_basic[:, r] * x_basic[:, r]
    return ok, x, benefit, primal


def dual_lexicographic_negative(cache, basis, j) -> bool:
    """Whether nonbasic column j's reduced cost is negative once each
    profit c_k is raised by δ^(k+1): its δ-terms, written out over every
    column, lead negative."""
    terms = np.zeros(cache.matrix.shape[1])
    terms[j] = 1.0
    terms[basis.basic] = -np.rint(np.linalg.solve(cache.matrix[:, basis.basic], cache.matrix[:, j]))
    return terms[np.flatnonzero(terms)[0]] < 0


def lp_optimum_by_enumeration(c, a_ub, b_ub, a_eq=None, b_eq=None, sense="max", tol=1e-9):
    """Brute-force LP solve by enumerating basic feasible points.

    Variables are implicitly nonnegative. Only sound when the feasible
    region is bounded (the tests generate instances with explicit upper
    bounds on every variable). Returns (status, value, x) where status is
    "optimal" or "infeasible".
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = [np.asarray(r, dtype=float) for r in a_ub]
    rhs = [float(v) for v in b_ub]
    eq_mask = [False] * len(rows)
    if a_eq is not None:
        for r, v in zip(a_eq, b_eq):
            rows.append(np.asarray(r, dtype=float))
            rhs.append(float(v))
            eq_mask.append(True)
    # nonnegativity constraints -x_i <= 0
    for i in range(n):
        e = np.zeros(n)
        e[i] = -1.0
        rows.append(e)
        rhs.append(0.0)
        eq_mask.append(False)
    big_a = np.vstack(rows)
    big_b = np.asarray(rhs)

    best_val = None
    best_x = None
    for combo in itertools.combinations(range(len(rows)), n):
        sub = big_a[list(combo)]
        if abs(np.linalg.det(sub)) < tol:
            continue
        x = np.linalg.solve(sub, big_b[list(combo)])
        slack = big_b - big_a @ x
        ok = True
        for i, s in enumerate(slack):
            if eq_mask[i]:
                if abs(s) > 1e-7:
                    ok = False
                    break
            elif s < -1e-7:
                ok = False
                break
        if not ok:
            continue
        val = float(c @ x)
        if best_val is None or (sense == "max" and val > best_val) or (
            sense == "min" and val < best_val
        ):
            best_val = val
            best_x = x
    if best_val is None:
        return "infeasible", None, None
    return "optimal", best_val, best_x


def check_transport_optimal(costs, supply, demand, flows, basis, sense="min", tol=1e-7):
    """Certificate check for a transportation plan via dual potentials.

    Verifies primal feasibility, then derives potentials u_i + v_j = c_ij
    on the basis cells and asserts every nonbasic reduced cost has the
    optimal sign. Returns a list of violation strings, empty when the
    plan certifies as optimal.
    """
    costs = np.asarray(costs, dtype=float)
    flows = np.asarray(flows, dtype=float)
    m, n = costs.shape
    errs = []
    if np.any(flows < -tol):
        errs.append("negative flow")
    if not np.allclose(flows.sum(axis=1), supply, atol=tol):
        errs.append("row sums != supply")
    if not np.allclose(flows.sum(axis=0), demand, atol=tol):
        errs.append("col sums != demand")
    basis = list(basis)
    if len(basis) != m + n - 1:
        errs.append(f"basis has {len(basis)} cells, want {m + n - 1}")
        return errs
    for (i, j) in basis:
        if flows[i, j] < -tol:
            errs.append(f"basis cell ({i},{j}) negative")
    # solve u_i + v_j = c_ij over the basis, anchored at u_0 = 0
    u = [None] * m
    v = [None] * n
    u[0] = 0.0
    remaining = set(basis)
    progress = True
    while remaining and progress:
        progress = False
        for (i, j) in list(remaining):
            if u[i] is not None and v[j] is None:
                v[j] = costs[i, j] - u[i]
            elif v[j] is not None and u[i] is None:
                u[i] = costs[i, j] - v[j]
            elif u[i] is None and v[j] is None:
                continue
            remaining.discard((i, j))
            progress = True
    if remaining or any(x is None for x in u) or any(x is None for x in v):
        errs.append("basis does not connect all rows and columns")
        return errs
    basis_set = set(basis)
    for i in range(m):
        for j in range(n):
            if (i, j) in basis_set:
                continue
            reduced = costs[i, j] - u[i] - v[j]
            if sense == "min" and reduced < -tol:
                errs.append(f"cell ({i},{j}) reduced cost {reduced:.3g} < 0")
            if sense == "max" and reduced > tol:
                errs.append(f"cell ({i},{j}) reduced cost {reduced:.3g} > 0")
    return errs


def north_west_corner(supplies, demands):
    """Greedy top-left allocation walking a staircase path: (x, cells).

    Each step exhausts a column (move right) or a row (move down); a tie
    exhausts the column first, leaving a zero-shipment basic cell on the
    path. The last row always moves right, since balance holds only to a
    tolerance. The path visits exactly M+N-1 cells, and x holds the
    shipments as M row lists, the start that modi_optimize takes.
    """
    m, n = len(supplies), len(demands)
    supply = list(supplies)
    demand = list(demands)
    x = [[0.0] * n for _ in range(m)]
    cells = []
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        x[i][j] = q
        cells.append((i, j))
        supply[i] -= q
        demand[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if j < n - 1 and (demand[j] <= 0 or i == m - 1):
            j += 1
        else:
            i += 1
    return x, cells


def is_spanning_tree(cells, m, n):
    """True iff the cells, as edges between m row and n column nodes, form a spanning tree.

    A spanning tree of the m + n nodes has exactly m + n - 1 edges, and
    none of them joins two nodes that already share a component.
    """
    cells = set(cells)
    if len(cells) != m + n - 1:
        return False
    label = list(range(m + n))  # rows are nodes 0..m-1, columns m..m+n-1
    for i, j in cells:
        a, b = label[i], label[m + j]
        if a == b:
            return False
        label = [a if x == b else x for x in label]
    return True


def walk_tree(costs, cells, m, n):
    """Potentials, parents and depths of a spanning tree, by one full walk.

    Rows are nodes 0..m-1 and columns m..m+n-1; the walk starts at row 0
    with potential 0 and parent -1, and gives each node the potential
    c_ij - (its parent's potential) over the cell joining them.
    """
    adj = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    potential, up, depth = [0.0] * (m + n), [-1] * (m + n), [0] * (m + n)
    queue = [0]
    for a in queue:
        for b in adj[a]:
            if b != up[a]:
                i, j = (a, b - m) if a < m else (b, a - m)
                potential[b] = costs[i][j] - potential[a]
                up[b], depth[b] = a, depth[a] + 1
                queue.append(b)
    return potential, up, depth


def step_draws(specs, seed, index, block):
    """The parameter values of Monte Carlo step index, by definition: with
    block steps a block, row index % block of the normals that
    default_rng((seed, index // block)) draws as (block, P), times the
    sigmas, plus the means."""
    means, sigmas = specs.moments
    rng = np.random.default_rng((seed, index // block))
    z = rng.standard_normal((block, means.size))[index % block]
    return (means + sigmas * z).tolist()
