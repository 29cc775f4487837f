"""Classical balanced transportation problem.

Provides the balance test, Vogel's approximation for an initial plan
and the potentials (MODI) optimizer, which minimizes. Both work on an
(M, N) cost array and give a plan as (x, cells), the shipments as M row
lists and an explicit basis, so degeneracy is visible instead of
implicit. Crisp transport mode and fuzzyplan.basis call both.

A basis is a spanning tree of the bipartite graph whose nodes are the M
rows and N columns and whose edges are the basis cells: M+N-1 cells, no
loop. Vogel's start is such a tree by construction. MODI keeps the tree,
rooted at row 0, across its pivots: each node's neighbours, parent,
depth and potential. A pivot cuts the tree at the leaving cell and hangs
the cut-off part back on by the entering cell, and only that part is
walked again, with the same c_ij - u formula along the same paths, so
every float is the one a full walk from row 0 would give. Each pivot
prices every cell at once over a numpy cost matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import mul

import numpy as np

__all__ = [
    "TransportInstance",
    "check_balance",
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
        amounts = self.supplies + self.demands
        if not all(map(math.isfinite, amounts)) or min(amounts) < 0:
            raise ValueError("supplies and demands must be finite and nonnegative")
        if len(self.costs) != m or any(len(row) != n for row in self.costs):
            raise ValueError(f"cost matrix must be {m}x{n}")
        if not all(map(math.isfinite, chain.from_iterable(self.costs))):
            raise ValueError("costs must be finite")


def plan_cost(costs, x) -> float:
    """Sum of cost times shipment over the cells, row by row."""
    return sum(map(mul, chain.from_iterable(costs), chain.from_iterable(x)))


def check_balance(t: TransportInstance) -> bool:
    """Total supply equals total demand, to 1e-9 of the larger total.

    The totals are of the amounts divided by a power of two above the
    largest, which is exact in binary and keeps them below the float
    maximum.
    """
    e = max(0, math.frexp(max(t.supplies + t.demands))[1])
    sa = sum(math.ldexp(v, -e) for v in t.supplies)
    sb = sum(math.ldexp(v, -e) for v in t.demands)
    return abs(sa - sb) <= 1e-9 * max(math.ldexp(1.0, -e), abs(sa), abs(sb))


@np.errstate(over="ignore")
def vogel_approximation(costs: np.ndarray, supply: list, demand: list):
    """Iterated max-penalty allocation on an (M, N) cost array: (x, cells).

    supply and demand are lists, balanced (check_balance), and are used
    up in place; x holds the shipments as M row lists and cells the M+N-1
    basis cells in allocation order.

    Per iteration the open row or column with the largest penalty (gap
    between its two cheapest open cells) receives an allocation at its
    cheapest cell. Ties prefer rows over columns, then the lowest index;
    cheapest-cell ties take the lexicographically first cell. Exactly one
    line closes per allocation (a simultaneous exhaustion closes the
    column and leaves the zero-supply row open), so each cell joins two
    components that each hold one open line: the cells form a spanning
    tree with no loop to prune. Each line's penalty is kept between
    allocations and found again only where the closed line held one of
    its two cheapest open cells, from the same two floats.
    """
    m, n = costs.shape
    rows = list(range(m))  # open lines, ascending
    cols = list(range(n))
    x = [[0.0] * n for _ in range(m)]
    cells = []
    open_costs = costs.copy()  # closed lines at +inf
    row_low, row_gap, col_low, col_gap = np.empty(m), np.empty(m), np.empty(n), np.empty(n)

    def allocate(i, j):
        q = min(supply[i], demand[j])
        x[i][j] += q
        cells.append((i, j))
        supply[i] -= q
        demand[j] -= q

    def reprice(line, low, gap, touched):
        """Penalties again of the open lines (rows of line) in touched."""
        lo = np.partition(line[touched], 1, axis=1)
        low[touched], gap[touched] = lo[:, 1], lo[:, 1] - lo[:, 0]

    if m > 1 and n > 1:
        reprice(open_costs, row_low, row_gap, np.ones(m, dtype=bool))
        reprice(open_costs.T, col_low, col_gap, np.ones(n, dtype=bool))
    while len(rows) > 1 and len(cols) > 1:
        # closed lines hold a -inf gap, so the first largest is an open line
        r, c = int(row_gap.argmax()), int(col_gap.argmax())
        if row_gap[r] >= col_gap[c]:
            i, j = r, int(open_costs[r].argmin())
        else:
            i, j = int(open_costs[:, c].argmin()), c
        allocate(i, j)
        if demand[j] <= 0:
            cols.remove(j)
            touched = (costs[:, j] <= row_low) & (row_gap > -np.inf)
            open_costs[:, j], col_gap[j] = np.inf, -np.inf
            if len(cols) > 1:
                reprice(open_costs, row_low, row_gap, touched)
        else:
            rows.remove(i)
            touched = (costs[i] <= col_low) & (col_gap > -np.inf)
            open_costs[i], row_gap[i] = np.inf, -np.inf
            if len(rows) > 1:
                reprice(open_costs.T, col_low, col_gap, touched)
    # one line is left open: it takes every open cell across it, in order
    for i in rows:
        for j in cols:
            allocate(i, j)
    return x, cells


@np.errstate(over="ignore", invalid="ignore")
def modi_optimize(costs: np.ndarray, x: list, cells):
    """Potentials-method minimization of cost: (x, cells), or None.

    To maximize, pass the negated costs. x holds a basic feasible
    start's shipments as M row lists and is updated in place; cells is
    its basis, a spanning tree that holds every positive shipment, as
    Vogel's start is. Returns the optimal x and its basis cells in
    row-major order, or None after 10,000 pivots.

    Each tolerance is in the units of what it compares: a reduced cost
    prices as improving below -1e-9 times the largest |cost|, and a
    pivot stalls where it moves at most 1e-9 times the start's largest
    shipment. So scaling the costs, or the supplies and demands, by a
    power of two that neither overflows nor underflows them scales every
    figure exactly and leaves every pivot as it was.
    A potential sums at most M+N costs, so where that could pass the
    float maximum the costs are first divided by a power of two (exact
    in binary); other costs pivot unscaled. Overflow elsewhere raises no
    numpy warning; the caller checks what it needs of the plan (the CLI,
    that its total cost is finite).
    """
    m, n = costs.shape
    e = math.frexp(float(np.abs(costs).max()))[1] + (2 * (m + n)).bit_length() - 1023
    if e > 0:
        costs = np.ldexp(costs, -e)
    tree = _Tree(costs.tolist(), cells, m, n)
    basic = np.zeros((m, n), dtype=bool)
    basic[tuple(zip(*cells))] = True
    tol = 1e-9 * float(np.abs(costs).max())
    flow_tol = 1e-9 * max(map(max, x))
    stall = 0
    lex_rule = False
    for _ in range(10_000):
        uv = np.array(tree.potential)
        reduced = costs - uv[:m, None] - uv[m:]  # c_ij - u_i - v_j
        reduced[basic] = np.inf
        if lex_rule:  # first improving cell in row-major order
            flat = int(np.argmax(reduced < -tol))
        else:  # Dantzig: the most negative reduced cost, first on ties
            flat = int(reduced.argmin())
        if not reduced.flat[flat] < -tol:
            return x, [tuple(cell) for cell in np.argwhere(basic).tolist()]
        entering = divmod(flat, n)
        loop = tree.loop(entering)
        minus = loop[1::2]
        theta = min(x[i][j] for i, j in minus)
        leaving = min((c for c in minus if x[c[0]][c[1]] == theta))
        for k, (i, j) in enumerate(loop):
            x[i][j] += theta if k % 2 == 0 else -theta
        x[leaving[0]][leaving[1]] = 0.0
        basic[leaving] = False
        basic[entering] = True
        tree.exchange(entering, leaving)
        if theta <= flow_tol:
            stall += 1
            if stall >= 2 * (m + n):
                lex_rule = True
        else:
            stall = 0
    return None


class _Tree:
    """A basis as a spanning tree rooted at row 0 (column j is node m+j).

    Holds each node's adjacency, parent (up), depth and potential, with
    u_i + v_j = c_ij on every basis cell and u_0 = 0. Each node's path
    from row 0 is unique, so its potential is the same float whatever
    order a walk takes, and exchange keeps every figure equal to a full
    walk of the new tree.
    """

    def __init__(self, costs: list, cells, m: int, n: int):
        self.costs, self.m = costs, m
        self.adj = [[] for _ in range(m + n)]
        for (i, j) in cells:
            self.adj[i].append(m + j)
            self.adj[m + j].append(i)
        self.up = [-1] * (m + n)
        self.depth = [0] * (m + n)
        self.potential = [0.0] * (m + n)
        self._walk(0)

    def _cell(self, a: int, b: int) -> tuple:
        """The cell joining nodes a and b, one a row and one a column."""
        return (a, b - self.m) if a < self.m else (b, a - self.m)

    def _walk(self, root: int):
        """Parent, depth and potential of every node below root, from root's own."""
        costs, m = self.costs, self.m
        adj, up, depth, potential = self.adj, self.up, self.depth, self.potential
        stack = [root]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if b == up[a]:
                    continue
                up[b] = a
                depth[b] = depth[a] + 1
                cost = costs[a][b - m] if a < m else costs[b][a - m]
                potential[b] = cost - potential[a]
                stack.append(b)

    def loop(self, entering) -> list:
        """Unique alternating cycle created by adding `entering` to the tree.

        Its row and column climb their parent chains until they meet. The
        cells run from `entering` along the path from its row to its
        column; the odd positions are the cells whose shipments decrease.
        """
        m, up, depth = self.m, self.up, self.depth
        a, b = entering[0], m + entering[1]
        from_row, from_col = [], []
        while a != b:
            if depth[a] >= depth[b]:
                from_row.append(self._cell(a, up[a]))
                a = up[a]
            else:
                from_col.append(self._cell(b, up[b]))
                b = up[b]
        return [entering] + from_row + from_col[::-1]

    def exchange(self, entering, leaving):
        """Replace the leaving cell by the entering one.

        Cutting the leaving cell parts the subtree below it from row 0;
        the entering cell hangs it back on by whichever end lies in it,
        and only that subtree is walked again.
        """
        m, up, depth = self.m, self.up, self.depth
        child = max(leaving[0], m + leaving[1], key=depth.__getitem__)
        parent = up[child]
        root, hook = entering[0], m + entering[1]
        node = root
        while depth[node] > depth[child]:
            node = up[node]
        if node != child:
            root, hook = hook, root
        self.adj[child].remove(parent)
        self.adj[parent].remove(child)
        self.adj[root].append(hook)
        self.adj[hook].append(root)
        up[root] = hook
        depth[root] = depth[hook] + 1
        i, j = self._cell(root, hook)
        self.potential[root] = self.costs[i][j] - self.potential[hook]
        self._walk(root)
