"""Classical balanced transportation problem.

Provides the balance test, two initial-plan heuristics (north-west
corner and Vogel's approximation) and the potentials (MODI) optimizer.
All plans carry an explicit basis so degeneracy is visible instead of
implicit.

A basis is a spanning tree of the bipartite graph whose nodes are the M
rows and N columns and whose edges are the basis cells: M+N-1 cells, no
loop. Both starts are such trees by construction. MODI walks the tree
once per pivot, from row 0, for the potentials and the parent links that
trace the entering loop, and prices every cell at once over a numpy
cost matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransportInstance",
    "TransportPlan",
    "check_balance",
    "north_west_corner",
    "vogel_approximation",
    "modi_optimize",
    "plan_cost",
]


@dataclass(frozen=True)
class TransportInstance:
    supplies: tuple
    demands: tuple
    costs: tuple  # row-major, len(supplies) rows of len(demands)

    def __post_init__(self):
        m, n = len(self.supplies), len(self.demands)
        if m < 1 or n < 1:
            raise ValueError("need at least one supply and one demand")
        if any(not math.isfinite(v) or v < 0 for v in self.supplies + self.demands):
            raise ValueError("supplies and demands must be finite and nonnegative")
        if len(self.costs) != m or any(len(row) != n for row in self.costs):
            raise ValueError(f"cost matrix must be {m}x{n}")
        for row in self.costs:
            if any(not math.isfinite(c) for c in row):
                raise ValueError("costs must be finite")

    @property
    def shape(self) -> tuple:
        return len(self.supplies), len(self.demands)


@dataclass(frozen=True)
class TransportPlan:
    shipments: tuple  # row-major matrix
    basis: frozenset  # of (i, j); superset of the positive cells


def plan_cost(t: TransportInstance, plan: TransportPlan) -> float:
    return sum(
        t.costs[i][j] * plan.shipments[i][j]
        for i in range(len(t.supplies))
        for j in range(len(t.demands))
    )


def check_balance(t: TransportInstance) -> bool:
    sa, sb = sum(t.supplies), sum(t.demands)
    return abs(sa - sb) <= 1e-9 * max(1.0, abs(sa), abs(sb))


def _require_balanced(t: TransportInstance):
    if not check_balance(t):
        raise ValueError(
            f"unbalanced instance: total supply {sum(t.supplies)} != total demand {sum(t.demands)}"
        )


def north_west_corner(t: TransportInstance) -> TransportPlan:
    """Greedy top-left allocation walking a staircase path.

    Each step exhausts a column (move right) or a row (move down); a tie
    exhausts the column first, leaving a zero-shipment basic cell on the
    path. The last row always moves right, since balance holds only to a
    tolerance. The path visits exactly M+N-1 cells.
    """
    _require_balanced(t)
    m, n = t.shape
    supply = list(t.supplies)
    demand = list(t.demands)
    x = [[0.0] * n for _ in range(m)]
    basis = []
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        x[i][j] = q
        basis.append((i, j))
        supply[i] -= q
        demand[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if j < n - 1 and (demand[j] <= 0 or i == m - 1):
            j += 1
        else:
            i += 1
    return TransportPlan(tuple(tuple(row) for row in x), frozenset(basis))


def vogel_approximation(t: TransportInstance) -> TransportPlan:
    """Iterated max-penalty allocation.

    Per iteration the open row or column with the largest penalty (gap
    between its two cheapest open cells) receives an allocation at its
    cheapest cell. Ties prefer rows over columns, then the lowest index;
    cheapest-cell ties take the lexicographically first cell. Exactly one
    line closes per allocation (a simultaneous exhaustion closes the
    column and leaves the zero-supply row open), so each cell joins two
    components that each hold one open line: the cells form a spanning
    tree with no loop to prune.
    """
    _require_balanced(t)
    m, n = t.shape
    costs = np.array(t.costs, dtype=float)
    supply = list(t.supplies)
    demand = list(t.demands)
    rows = list(range(m))  # open lines, ascending
    cols = list(range(n))
    x = [[0.0] * n for _ in range(m)]
    basis = []

    def allocate(i, j):
        q = min(supply[i], demand[j])
        x[i][j] += q
        basis.append((i, j))
        supply[i] -= q
        demand[j] -= q

    while len(rows) > 1 and len(cols) > 1:
        open_costs = costs[np.ix_(rows, cols)]
        lo = np.partition(open_costs, 1, axis=1)
        row_gap = lo[:, 1] - lo[:, 0]
        lo = np.partition(open_costs, 1, axis=0)
        col_gap = lo[1] - lo[0]
        r, c = int(row_gap.argmax()), int(col_gap.argmax())
        if row_gap[r] >= col_gap[c]:
            i, j = rows[r], cols[int(open_costs[r].argmin())]
        else:
            i, j = rows[int(open_costs[:, c].argmin())], cols[c]
        allocate(i, j)
        if demand[j] <= 0:
            cols.remove(j)
        else:
            rows.remove(i)
    # one line is left open: it takes every open cell across it, in order
    for i in rows:
        for j in cols:
            allocate(i, j)
    return TransportPlan(tuple(tuple(row) for row in x), frozenset(basis))


def modi_optimize(t: TransportInstance, start: TransportPlan, sense: str = "min") -> TransportPlan:
    """Potentials-method optimization from a basic feasible start.

    Maximization negates the costs internally. Degenerate bases are
    completed with zero-shipment cells, lexicographically smallest
    loop-free cell first. Raises ValueError when the start basis carries
    a loop or misses a positive shipment.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    m, n = t.shape
    costs = np.array(t.costs, dtype=float)
    if sense == "max":
        costs = -costs
    x = [list(row) for row in start.shipments]
    for i, j in np.argwhere(np.array(x) > 0).tolist():  # row-major
        if (i, j) not in start.basis:
            raise ValueError(f"positive shipment at ({i},{j}) missing from basis")
    basis = _spanning_basis(start.basis, m, n)
    tol = 1e-9 * (1.0 + float(np.abs(costs).max()))
    stall = 0
    lex_rule = False
    for _ in range(10_000):
        potential, up, depth = _walk_tree(costs, basis, m, n)
        uv = np.array(potential)
        reduced = costs - uv[:m, None] - uv[m:]  # c_ij - u_i - v_j
        reduced[tuple(zip(*basis))] = np.inf
        if lex_rule:  # first improving cell in row-major order
            flat = int(np.argmax(reduced < -tol))
        else:  # Dantzig: the most negative reduced cost, first on ties
            flat = int(reduced.argmin())
        if not reduced.flat[flat] < -tol:
            return TransportPlan(tuple(tuple(row) for row in x), frozenset(basis))
        entering = divmod(flat, n)
        loop = _entering_loop(entering, up, depth, m)
        minus = loop[1::2]
        theta = min(x[i][j] for i, j in minus)
        leaving = min((c for c in minus if x[c[0]][c[1]] == theta))
        for k, (i, j) in enumerate(loop):
            x[i][j] += theta if k % 2 == 0 else -theta
        x[leaving[0]][leaving[1]] = 0.0
        basis.remove(leaving)
        basis.add(entering)
        if theta <= tol:
            stall += 1
            if stall >= 2 * (m + n):
                lex_rule = True
        else:
            stall = 0
    raise RuntimeError("potentials method failed to terminate")


def _spanning_basis(cells, m: int, n: int) -> set:
    """Start cells plus lex-smallest loop-free cells, up to a spanning tree.

    Union-find over row nodes 0..m-1 and column nodes m..m+n-1; a start
    cell whose row and column are already joined closes a loop.
    """
    parent = list(range(m + n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(i, j):
        a, b = find(i), find(m + j)
        parent[a] = b
        return a != b

    basis = set()
    for (i, j) in cells:
        if not union(i, j):
            raise ValueError("start basis contains a loop")
        basis.add((i, j))
    for i in range(m):
        for j in range(n):
            if len(basis) == m + n - 1:
                return basis
            if (i, j) not in basis and union(i, j):
                basis.add((i, j))
    return basis


def _walk_tree(costs, basis, m: int, n: int):
    """Potentials u_i + v_j = c_ij from u_0 = 0, and parent and depth links.

    One walk of the tree from row 0 (column j is node m+j). Each node's
    path from row 0 is unique, so any walk order gives the same floats.
    """
    adj = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    potential = [0.0] * (m + n)
    up = [-1] * (m + n)
    depth = [0] * (m + n)
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b == up[a]:
                continue
            up[b] = a
            depth[b] = depth[a] + 1
            potential[b] = costs[_edge(a, b, m)] - potential[a]
            stack.append(b)
    return potential, up, depth


def _entering_loop(entering, up, depth, m: int) -> list:
    """Unique alternating cycle created by adding `entering` to the tree.

    Its row and column climb their parent chains until they meet. The
    cells run from `entering` along the path from its row to its column;
    the odd positions are the cells whose shipments decrease.
    """
    a, b = entering[0], m + entering[1]
    from_row, from_col = [], []
    while a != b:
        if depth[a] >= depth[b]:
            from_row.append(_edge(a, up[a], m))
            a = up[a]
        else:
            from_col.append(_edge(b, up[b], m))
            b = up[b]
    return [entering] + from_row + from_col[::-1]


def _edge(a: int, b: int, m: int) -> tuple:
    """The cell joining tree nodes a and b, one a row and one a column."""
    return (a, b - m) if a < m else (b, a - m)
