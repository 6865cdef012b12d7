"""Approximate continuous shortest paths.

Each refinement level places 2**level - 1 evenly spaced nodes on every edge
of every finite cell. Graph moves are straight hops: any corner to any other
corner priced by the segment metric, plus any two nodes on the boundary of a
common finite cell, paying the cell weight across its interior or the
min-rule weight along a shared edge. Every graph path is a genuine plane
path, so the reported cost is an upper bound on the true optimum, and it is
non-increasing in the level because dyadic node sets nest.

At level 0 the graph degenerates to the complete corner graph, so the
result coincides with the vertex-path solver's.

The search is the frontier-array Dijkstra all three path families share
(grid_paths._frontier_search). It settles nodes in (cost, node id) order,
the order a binary heap of (cost, id) pairs pops, so node order decides a
tie only between bit-equal costs. A hop and the same segment split at a
collinear node trace one polyline but can differ in the last bit; which of
the two is reported then depends on rounding, not on node order.
"""

import logging
import math
from typing import List, NamedTuple, Tuple

import numpy as np

from .grid_paths import UnreachableError, _check_endpoints, _frontier_search
from .metric import WeightMap, corner_hop_table
from .tessellation import SQRT3, Corner, Point, Tessellation, corner_position

logger = logging.getLogger(__name__)

DEFAULT_REL_TOL = 1e-6
DEFAULT_MAX_LEVEL = 7
# Largest Steiner graph built, in nodes: corners plus 2**level - 1 per edge of
# a finite cell. Level 7 on a 24x24 window needs about 115,000.
MAX_STEINER_NODES = 2_000_000

# vertex m of a cell lies on these slots of cell_edges(cell)
_VERTEX_EDGE_SLOTS = ((0, 2), (0, 1), (1, 2))


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


class _SteinerGraph:
    """The level's Steiner graph, with its cell cliques stacked in arrays.

    Nodes are the window's corners, then 2**level - 1 nodes along each
    distinct edge, from its first end to its second. Every finite cell has
    the same local layout: its 3 vertices, then the nodes of its edges in
    slot order. A node relaxes through the cells around it with one weight
    row per cell: the cell weight, or the min-rule edge weight for targets
    on an edge that also holds the node. Those rows are merged per node
    (per corner, or per edge for the nodes on it), each head kept once, so
    one settle prices all of a node's cliques in one array operation.
    """

    def __init__(self, tess: Tessellation, weights: WeightMap, level: int, support: _Support):
        cells, verts, edges, slot_edges = support
        n_corners = len(tess.corners)
        n_cells = len(cells)
        per_edge = 2 ** level - 1
        self.tess = tess
        self.n_corners = n_corners
        self.per_edge = per_edge
        self.hop_matrix = corner_hop_table(tess).cost_matrix(weights)
        self.corner_heads = np.arange(n_corners)

        corner_i, corner_j = tess.corner_array.T
        cx, cy = corner_i.astype(float), corner_j * SQRT3
        fractions = np.arange(1, per_edge + 1) / float(2 ** level)
        ax, ay = cx[edges[:, 0], None], cy[edges[:, 0], None]
        bx, by = cx[edges[:, 1], None], cy[edges[:, 1], None]
        self.x = np.concatenate((cx, (ax + fractions * (bx - ax)).ravel()))
        self.y = np.concatenate((cy, (ay + fractions * (by - ay)).ravel()))

        # local layout of every cell: 3 vertices, then per_edge nodes per slot
        edge_node_ids = n_corners + slot_edges[:, :, None] * per_edge + np.arange(per_edge)
        cell_ids = np.concatenate((verts, edge_node_ids.reshape(n_cells, 3 * per_edge)), axis=1)

        # edge slot k of a cell holds vertices k and k+1 and its per_edge nodes
        members = [
            np.r_[k, (k + 1) % 3, 3 + k * per_edge : 3 + (k + 1) * per_edge] for k in range(3)
        ]
        # weight row k (0-2) prices the arcs from a node on edge slot k, row
        # 3 + m those from vertex m: a target on an edge that holds the source
        # pays that edge's min-rule weight, any other the cell weight
        cell_w = weights.values[cells[:, 0], cells[:, 1]]
        edge_w = np.minimum(cell_w[:, None], _across_weights(weights, cells))
        weight_rows = np.empty((n_cells, 6, 3 + 3 * per_edge))
        weight_rows[:] = cell_w[:, None, None]
        for row, slots in enumerate(((0,), (1,), (2,), *_VERTEX_EDGE_SLOTS)):
            for k in slots:
                weight_rows[:, row, members[k]] = edge_w[:, k, None]

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
        self.head_x = self.x[self.heads]
        self.head_y = self.y[self.heads]
        self.head_w = weight_rows[row_cell, row_kind].ravel()[first]

    @property
    def n_nodes(self) -> int:
        return len(self.x)

    def _arcs(self, u: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The hop row of a corner, then the merged clique heads of u."""
        if u < self.n_corners:
            out = [(self.corner_heads, self.hop_matrix[u])]
            group = u
        else:
            out = []
            group = self.n_corners + (u - self.n_corners) // self.per_edge
        lo, hi = self.group_bounds[group], self.group_bounds[group + 1]
        if lo < hi:
            dvec = np.hypot(self.head_x[lo:hi] - self.x[u], self.head_y[lo:hi] - self.y[u])
            out.append((self.heads[lo:hi], self.head_w[lo:hi] * dvec))
        return out

    def shortest(self, s: Corner, t: Corner) -> Tuple[float, Tuple[Point, ...], int]:
        """Cost, point path and settled-node count; (inf, (), settled) if unreachable."""
        si = self.tess.corner_ids[s]
        ti = self.tess.corner_ids[t]
        cost, path, settled = _frontier_search(self.n_nodes, si, ti, self._arcs)
        points = tuple((self.x[k], self.y[k]) for k in path)
        return (cost, points, settled)


def _across_weights(weights: WeightMap, cells: np.ndarray) -> np.ndarray:
    """(C, 3) weight of the cell across each slot of cell_edges(cell).

    Slot 0 faces (row, col - 1); slot 1 faces (row, col + 1) from an upward
    cell and (row + 1, col) from a downward one; slot 2 faces (row - 1, col)
    and (row, col + 1). Cells outside the window weigh infinity.
    """
    row, col = cells[:, 0], cells[:, 1]
    down = (row + col) % 2
    d_row = np.stack((np.zeros_like(down), down, down - 1), axis=1)
    d_col = np.stack((np.full_like(down, -1), 1 - down, down), axis=1)
    padded = np.full((weights.rows + 2, weights.cols + 2), np.inf)
    padded[1:-1, 1:-1] = weights.values
    return padded[row[:, None] + d_row + 1, col[:, None] + d_col + 1]


def _steiner_support(tess: Tessellation, weights: WeightMap, level: int) -> _Support:
    """The finite cells and their distinct edges, in first-seen order.

    Refuses a level whose Steiner graph would exceed MAX_STEINER_NODES,
    before anything of that size is allocated.
    """
    if level < 0:
        raise ValueError("refinement level must be non-negative")
    cells = np.argwhere(np.isfinite(weights.values))
    row, col = cells[:, 0], cells[:, 1]
    down = (row + col) % 2
    # cell_vertices: upward (col, row), (col+1, row+1), (col+2, row); downward
    # (col+1, row), (col, row+1), (col+2, row+1)
    vert_i = np.stack((col + down, col + 1 - down, col + 2), axis=1)
    vert_j = np.stack((row, row + 1, row + down), axis=1)
    verts = tess.corner_grid[vert_j, vert_i]
    # slot k joins vertices k and k+1; corner ids sort like edge_key
    a, b = verts, np.roll(verts, -1, axis=1)
    n_corners = len(tess.corners)
    keys = (np.minimum(a, b) * n_corners + np.maximum(a, b)).ravel()
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    edges = np.stack(np.divmod(distinct[order], n_corners), axis=1)
    slot_edges = rank[inverse].reshape(-1, 3)
    # the per-edge fractions are laid out even with no edges; clamping the
    # exponent keeps a huge level from building a huge integer, and any
    # clamped count is already over budget
    per_edge = 2 ** min(level, MAX_STEINER_NODES.bit_length()) - 1
    nodes = n_corners + max(len(edges), 1) * per_edge
    if nodes > MAX_STEINER_NODES:
        raise ValueError(
            f"refinement level {level} needs more than the budget of "
            f"{MAX_STEINER_NODES} Steiner nodes"
        )
    return _Support(cells, verts, edges, slot_edges)


def approx_shortest_path(
    tess: Tessellation, weights: WeightMap, s: Corner, t: Corner, level: int = 3
) -> OracleResult:
    """Shortest path in the level's Steiner graph.

    The converged flag is only meaningful for refine_until; single-level
    results report False unless the endpoints coincide. At DEBUG the module
    logger records the level's node count, settled-node count and cost.
    """
    _check_endpoints(tess, weights, s, t)
    support = _steiner_support(tess, weights, level)
    if s == t:
        return OracleResult((corner_position(s),), 0.0, level, True)
    graph = _SteinerGraph(tess, weights, level, support)
    cost, path, settled = graph.shortest(s, t)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "level %d: %d nodes, %d settled, cost %r", level, graph.n_nodes, settled, cost
        )
    if math.isinf(cost):
        raise UnreachableError(f"no finite-cost path from {s!r} to {t!r}")
    return OracleResult(path, cost, level, False)


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
    _check_endpoints(tess, weights, s, t)
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    _steiner_support(tess, weights, max_level)
    debug = logger.isEnabledFor(logging.DEBUG)
    prev = approx_shortest_path(tess, weights, s, t, level=0)
    if prev.cost == 0.0:
        if debug:
            logger.debug("stopped at level 0: zero cost")
        return prev
    for level in range(1, max_level + 1):
        cur = approx_shortest_path(tess, weights, s, t, level=level)
        improvement = (prev.cost - cur.cost) / cur.cost
        if debug:
            logger.debug("level %d: relative improvement %.3g", level, improvement)
        if improvement < rel_tol:
            if debug:
                logger.debug("stopped at level %d: tolerance %g met", level, rel_tol)
            return OracleResult(cur.path, cur.cost, level, True)
        prev = cur
    if debug:
        logger.debug("stopped at level %d: max_level reached", max_level)
    return prev
