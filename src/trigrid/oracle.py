"""Approximate continuous shortest paths.

Each refinement level places 2**level - 1 evenly spaced nodes on every edge
of every finite cell. Graph moves are straight hops: any corner to any other
corner priced by the segment metric, plus any two nodes on the boundary of a
common finite cell, paying the cell weight across its interior or the
min-rule weight along a shared edge. Every graph path is a genuine plane
path, so the reported cost is an upper bound on the true optimum, and it is
non-increasing in the level because dyadic node sets nest.

At level 0 the graph is the complete corner graph, whose cliques add no
arc cheaper than a hop, so level 0 runs the vertex-path search. What no
level changes sits in one _SolveContext per call, so a ratio report makes
one corner-graph search, for SVP and level 0 both.

Clique arcs are priced from one exact distance table per level. Every cell
is an equilateral triangle of side 2 with its level-L nodes every 2**(1-L)
along each edge, so two boundary nodes of a cell, k and j steps from the
vertex their edges share (or on one edge), lie 2**(1-L) * sqrt(n) apart
for the integer n = k*k - k*j + j*j (or (k - j)**2). The table holds those
correctly rounded values, the same for every cell and every window.

The search is the frontier-array Dijkstra all three path families share
(grid_paths._frontier_search). It settles nodes in (cost, node id) order,
the order a binary heap of (cost, id) pairs pops, so node order decides a
tie only between bit-equal costs. With exact distances a hop along an edge
and its split at a node in between cost the same before rounding, so the
reported path drops every node whose path neighbours lie on the same
lattice edge as it: the merged hop is an arc of the same clique at the
same min-rule weight, and the reported cost stays the search's sum. A
corner hop and the same segment split at a collinear corner can still
round apart; which of the two is reported then depends on rounding, not on
node order.
"""

import functools
import logging
import math
from typing import List, NamedTuple, Tuple

import numpy as np

from .grid_paths import UnreachableError, _check_endpoints, _frontier_search, _hop_search
from .metric import WeightMap, corner_hop_table
from .tessellation import (
    SQRT3,
    Corner,
    Point,
    Tessellation,
    cell_edges,
    cell_vertices,
    corner_position,
)

logger = logging.getLogger(__name__)

DEFAULT_REL_TOL = 1e-6
DEFAULT_MAX_LEVEL = 7
# Largest Steiner graph built, in nodes: corners plus 2**level - 1 per edge of
# a finite cell. Level 7 on a 24x24 window needs about 115,000.
MAX_STEINER_NODES = 2_000_000
# Deepest level built. A level's distance table grows as 4**level: it takes
# 25 MB at level 10 and 101 MB at level 11.
MAX_LEVEL = 10


def _reference_cell(down: int):
    """The layout of cell (0, down), of which every cell of its orientation is
    a translate: its cell_vertices as (di, dj) offsets from its (col, row),
    and the vertex indices of each cell_edges slot's first and second end."""
    cell = (0, down)
    verts = cell_vertices(cell)
    offsets = [(i - down, j) for i, j in verts]
    return offsets, [[verts.index(c) for c in edge] for edge in cell_edges(cell)]


# [down, vertex] -> (di, dj); [down, slot] -> (first end, second end)
_VERTEX_OFFSETS, _SLOT_ENDS = map(np.array, zip(_reference_cell(0), _reference_cell(1)))


def _slot_members(slot: int, per_edge: int) -> np.ndarray:
    """Local ids of a slot's two vertices (alike in both orientations), then its nodes."""
    run = 3 + slot * per_edge
    return np.r_[_SLOT_ENDS[0, slot], run : run + per_edge]


class OracleResult(NamedTuple):
    path: Tuple[Point, ...]
    cost: float
    level: int
    converged: bool


class _Support(NamedTuple):
    """The finite cells of a window and their distinct edges.

    cells is (C, 2) (row, col) in row-major order; verts (C, 3) holds the
    corner ids of cell_vertices(cell); edges is (E, 2) corner ids of each
    distinct edge in first-seen order, ends in corner order like edge_key;
    slot_edges (C, 3) indexes edges by the slots of cell_edges(cell).
    """

    cells: np.ndarray
    verts: np.ndarray
    edges: np.ndarray
    slot_edges: np.ndarray


@functools.lru_cache(maxsize=MAX_LEVEL + 1)
def _clique_table(level: int) -> Tuple[np.ndarray, np.ndarray]:
    """The level's exact clique distances and every cell's columns into them.

    With P = 2**level, the table has shape (P + 1, 3 * (P + 1)): row k is
    [Q(k, .), Q(P - k, .), |k - .|] * 2**(1 - level), Q(k, j) = sqrt(k*k -
    k*j + j*j). A node k steps from its edge's first end reads row k, a
    corner row 0. Block A reaches nodes j steps from that end on another
    edge, through it; block B nodes j steps from the second end; block C
    the nodes of its own edge and its ends.

    The columns, (2, 6, 3 + 3 * per_edge) int32, are indexed [down, row
    kind, local member] like _SteinerGraph's weight rows. They are read off
    steps[v, c], the steps from vertex v to member c along an edge that
    holds both, -1 where none does. A slot row reads C for the slot's own
    members, A through its first end where that end has an edge to the
    member, and B through its second end elsewhere. Vertex v's row reads C
    where steps[v] >= 0, and elsewhere B from the first end of the opposite
    edge: Q(P, j) = Q(P, P - j), so either end would do. At most MAX_LEVEL
    + 1 levels are cached: about 0.5 MB for levels 0-7, 34 MB for 0-10.
    """
    p = 2 ** level
    k, j = np.arange(p + 1)[:, None], np.arange(p + 1)
    q = np.sqrt(k * k - k * j + j * j)
    table = np.concatenate((q, q[::-1], np.abs(k - j)), axis=1) * 2.0 ** (1 - level)

    along = np.arange(1, p)  # node m of an edge sits m + 1 steps from its first end
    second, own = p + 1, 2 * (p + 1)  # the offsets of blocks B and C
    columns = np.empty((2, 6, 3 + 3 * (p - 1)), dtype=np.int32)
    for down, slot_ends in enumerate(_SLOT_ENDS):
        steps = np.full((3, 3 + 3 * (p - 1)), -1)
        steps[:, :3] = p - p * np.eye(3, dtype=int)  # any two vertices share an edge
        for slot, (first, last) in enumerate(slot_ends):
            run = _slot_members(slot, p - 1)[2:]
            steps[first, run], steps[last, run] = along, p - along
        for slot, (first, last) in enumerate(slot_ends):
            row = np.where(steps[first] >= 0, steps[first], second + steps[last])
            mine = _slot_members(slot, p - 1)
            row[mine] = own + steps[first, mine]
            columns[down, slot] = row
            apex = 3 - first - last  # the vertex whose opposite edge this slot is
            columns[down, 3 + apex] = np.where(
                steps[apex] >= 0, own + steps[apex], second + steps[first]
            )
    table.setflags(write=False)
    columns.setflags(write=False)
    return table, columns


class _SteinerGraph:
    """The level's Steiner graph, with its cell cliques stacked in arrays.

    Nodes are the window's corners, then 2**level - 1 nodes along each
    distinct edge, from its first end to its second. Every finite cell has
    the same local layout: its 3 vertices, then the nodes of its edges in
    slot order. A node relaxes through the cells around it with one weight
    row per cell: the cell weight, or the min-rule edge weight for targets
    on an edge that also holds the node. Those rows are merged per node
    (per corner, or per edge for the nodes on it), each head kept once with
    its weight and its column in the level's distance table, so one settle
    prices all of a node's cliques with one gather from one table row.
    """

    def __init__(self, ctx: "_SolveContext", level: int):
        cells, verts, edges, slot_edges = ctx.support
        n_corners, n_cells, per_edge = len(ctx.cx), len(cells), 2 ** level - 1
        self.n_corners, self.per_edge, self.edges = n_corners, per_edge, edges
        self.hop_matrix, self.corner_heads = ctx.hop_matrix, np.arange(n_corners)

        cx, cy = ctx.cx, ctx.cy
        fractions = np.arange(1, per_edge + 1) / float(2 ** level)
        ax, ay = cx[edges[:, 0], None], cy[edges[:, 0], None]
        bx, by = cx[edges[:, 1], None], cy[edges[:, 1], None]
        self.x = np.concatenate((cx, (ax + fractions * (bx - ax)).ravel()))
        self.y = np.concatenate((cy, (ay + fractions * (by - ay)).ravel()))

        # local layout of every cell: 3 vertices, then per_edge nodes per slot
        edge_node_ids = n_corners + slot_edges[:, :, None] * per_edge + np.arange(per_edge)
        cell_ids = np.concatenate((verts, edge_node_ids.reshape(n_cells, 3 * per_edge)), axis=1)

        # weight row k (0-2) prices the arcs from a node on edge slot k, row
        # 3 + m those from vertex m: a target on an edge that holds the source
        # pays that edge's min-rule weight, any other the cell weight
        weight_rows = np.empty((n_cells, 6, 3 + 3 * per_edge))
        weight_rows[:] = ctx.cell_w[:, None, None]
        for k in range(3):
            members = _slot_members(k, per_edge)
            for row in (k, *(3 + members[:2])):  # the slot's row and its vertices' rows
                weight_rows[:, row, members] = ctx.edge_w[:, k, None]

        # relaxation groups: corners 0..n_corners-1, then one per edge. A group
        # keeps each head once: the copies that cells sharing an edge give it
        # are priced alike, at that edge's min-rule weight.
        group = np.concatenate((verts.ravel(), n_corners + slot_edges.ravel()))
        row_cell = np.tile(np.repeat(np.arange(n_cells), 3), 2)
        row_kind = np.concatenate((np.tile([3, 4, 5], n_cells), np.tile([0, 1, 2], n_cells)))
        n_nodes = len(self.x)
        keys = (group[:, None] * n_nodes + cell_ids[row_cell]).ravel()
        keys, first = np.unique(keys, return_index=True)
        bounds = np.searchsorted(keys // n_nodes, np.arange(n_corners + len(edges) + 1))
        self.group_bounds = bounds.tolist()
        self.heads = keys % n_nodes
        self.head_w = weight_rows[row_cell, row_kind].ravel()[first]
        self.table, columns = _clique_table(level)
        down = (cells[:, 0] + cells[:, 1]) % 2
        self.head_idx = columns[down[row_cell], row_kind].ravel()[first]

    def _arcs(self, u: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The hop row of a corner, then the merged clique heads of u."""
        if u < self.n_corners:
            out = [(self.corner_heads, self.hop_matrix[u])]
            group, row = u, 0
        else:
            out = []
            edge, step = divmod(u - self.n_corners, self.per_edge)
            group, row = self.n_corners + edge, step + 1
        lo, hi = self.group_bounds[group], self.group_bounds[group + 1]
        if lo < hi:
            dvec = self.table[row][self.head_idx[lo:hi]]
            out.append((self.heads[lo:hi], self.head_w[lo:hi] * dvec))
        return out

    def _lies_on(self, u: int, edge: int) -> bool:
        """Whether node u is a node of the edge or one of its ends."""
        if u < self.n_corners:
            return u in self.edges[edge]
        return (u - self.n_corners) // self.per_edge == edge

    def _merge_edge_runs(self, path: List[int]) -> List[int]:
        """Drop every node whose path neighbours lie on the same edge as it.

        Only an edge node pins down the one edge that three nodes could
        share: no edge holds three corners.
        """
        keep = path[:1]
        for trio in zip(path, path[1:], path[2:]):
            node = next((u for u in trio if u >= self.n_corners), None)
            if node is not None:
                edge = (node - self.n_corners) // self.per_edge
                if all(self._lies_on(u, edge) for u in trio):
                    continue
            keep.append(trio[1])
        return keep + path[-1:]


def _steiner_support(tess: Tessellation, weights: WeightMap, level: int) -> _Support:
    """The finite cells and their distinct edges, in first-seen order.

    Refuses a level over MAX_LEVEL, or one whose Steiner graph would exceed
    MAX_STEINER_NODES, before anything of that size is allocated.
    """
    if level < 0:
        raise ValueError("refinement level must be non-negative")
    if level > MAX_LEVEL:
        raise ValueError(
            f"refinement level {level} is over the budget of level {MAX_LEVEL}: "
            "a level's distance table grows as 4**level"
        )
    cells = np.argwhere(np.isfinite(weights.values))
    row, col = cells[:, 0], cells[:, 1]
    offsets = _VERTEX_OFFSETS[(row + col) % 2]
    verts = tess.corner_grid[row[:, None] + offsets[..., 1], col[:, None] + offsets[..., 0]]
    # each slot's two vertices, alike in both orientations; ids sort like edge_key
    a, b = np.moveaxis(verts[:, _SLOT_ENDS[0]], -1, 0)
    n_corners = len(tess.corners)
    keys = (np.minimum(a, b) * n_corners + np.maximum(a, b)).ravel()
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    edges = np.stack(np.divmod(distinct[order], n_corners), axis=1)
    slot_edges = rank[inverse].reshape(-1, 3)
    # the per-edge fractions are laid out even with no edges
    nodes = n_corners + max(len(edges), 1) * (2 ** level - 1)
    if nodes > MAX_STEINER_NODES:
        raise ValueError(
            f"refinement level {level} needs more than the budget of "
            f"{MAX_STEINER_NODES} Steiner nodes"
        )
    return _Support(cells, verts, edges, slot_edges)


class _SolveContext:
    """What no level of one s-t solve changes: support, hop costs (none if
    s == t), cell and min-rule edge weights, corner positions. solve() drops
    each level's graph on return, so no two levels' graphs are alive at once."""

    def __init__(
        self, tess: Tessellation, weights: WeightMap, s: Corner, t: Corner, max_level: int
    ):
        """Refuses bad endpoints, and a max_level over the budget."""
        _check_endpoints(tess, weights, s, t)
        self.s, self.t, self.max_level = s, t, max_level
        self.si, self.ti = tess.corner_ids[s], tess.corner_ids[t]
        self.support = _steiner_support(tess, weights, max_level)
        cells, _, edges, slot_edges = self.support
        self.hop_matrix = None if s == t else corner_hop_table(tess).cost_matrix(weights)
        self.cell_w = weights.values[cells[:, 0], cells[:, 1]]
        # an edge's min-rule weight is the least weight of the finite cells that hold it
        min_w = np.full(len(edges), np.inf)
        np.minimum.at(min_w, slot_edges, self.cell_w[:, None])
        self.edge_w = min_w[slot_edges]
        corner_i, corner_j = tess.corner_array.T
        self.cx, self.cy = corner_i.astype(float), corner_j * SQRT3

    def solve(self, level: int) -> OracleResult:
        """The level's path, logging its nodes, settles and cost at DEBUG."""
        if self.s == self.t:
            return OracleResult((corner_position(self.s),), 0.0, level, True)
        if level == 0:
            x, y = self.cx, self.cy
            cost, path, settled = _hop_search(self.hop_matrix, self.si, self.ti)
        else:
            graph = _SteinerGraph(self, level)
            x, y = graph.x, graph.y
            cost, path, settled = _frontier_search(len(x), self.si, self.ti, graph._arcs)
            path = graph._merge_edge_runs(path)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("level %d: %d nodes, %d settled, cost %r", level, len(x), settled, cost)
        if math.isinf(cost):
            raise UnreachableError(f"no finite-cost path from {self.s!r} to {self.t!r}")
        return OracleResult(tuple((x[k], y[k]) for k in path), cost, level, False)

    def refine(self, rel_tol: float) -> Tuple[OracleResult, OracleResult]:
        """refine_until's result, and level 0's, which is SVP's."""
        if not rel_tol > 0.0:  # NaN compares false both ways
            raise ValueError("rel_tol must be positive")
        debug = logger.isEnabledFor(logging.DEBUG)
        prev = corner_graph = self.solve(0)
        if prev.cost == 0.0:
            if debug:
                logger.debug("stopped at level 0: zero cost")
            return prev, corner_graph
        for level in range(1, self.max_level + 1):
            cur = self.solve(level)
            improvement = (prev.cost - cur.cost) / cur.cost
            if debug:
                logger.debug("level %d: relative improvement %.3g", level, improvement)
            if improvement < rel_tol:
                if debug:
                    logger.debug("stopped at level %d: tolerance %g met", level, rel_tol)
                return OracleResult(cur.path, cur.cost, level, True), corner_graph
            prev = cur
        if debug:
            logger.debug("stopped at level %d: max_level reached", self.max_level)
        return prev, corner_graph


def approx_shortest_path(
    tess: Tessellation, weights: WeightMap, s: Corner, t: Corner, level: int = 3
) -> OracleResult:
    """Shortest path in the level's Steiner graph.

    The converged flag is only meaningful for refine_until; single-level
    results report False unless the endpoints coincide. At DEBUG the module
    logger records the level's node count, settled-node count and cost.
    """
    return _SolveContext(tess, weights, s, t, level).solve(level)


def refine_until(
    tess: Tessellation,
    weights: WeightMap,
    s: Corner,
    t: Corner,
    rel_tol: float = DEFAULT_REL_TOL,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> OracleResult:
    """Refine until the relative improvement per level drops below rel_tol.

    Costs are non-increasing in the level, so the loop stops at the first
    level whose improvement over the previous one is small enough; the
    result is flagged converged. Hitting max_level first leaves the flag
    unset. A max_level beyond the node budget is refused up front. At DEBUG
    each level's search logs its line (see approx_shortest_path), then this
    loop logs the level's relative improvement and, last, why it stopped.
    """
    return _SolveContext(tess, weights, s, t, max_level).refine(rel_tol)[0]
