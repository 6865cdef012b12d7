"""Shortest paths through tessellation corners.

Two solvers share the corner set but differ in moves. The grid-path solver
walks single lattice edges between adjacent corners. The vertex-path solver
may hop in a straight line between any two corners, paying the weighted
length of the segment, so its moves form a complete graph priced by the
metric. Both settle corners in (cost, (j, i) key) order, so a tie between
bit-equal costs goes to the smaller key and results are reproducible. That
order decides nothing between costs that differ in the last bit: a hop and
the same segment split at a collinear corner trace one polyline, but their
float sums can round apart, and then the cheaper rounding is reported. The
Steiner oracle reports a run along one lattice edge as one hop, so there
this tie is left only for corner hops.

All three path families run one search kernel, _frontier_search: a
Dijkstra that keeps unsettled tentative distances in a dense array and
settles its first minimum, with no heap. The grid-path solver relaxes a
corner through its six lattice edges, the vertex-path solver through its
row of hop costs, and the Steiner oracle adds its cell cliques. A settle
asks its callback for candidate distances, the settled distance already
added, so the oracle can add it in place to the clique costs it has just
priced, and keeps the strictly improved ones with boolean masks: gathering
their positions with nonzero and take instead measured slower, on the
six heads of a grid step and on the hundreds of a deep Steiner level.
"""

import functools
import math
from typing import Callable, Iterable, List, NamedTuple, Tuple

import numpy as np

from .metric import (
    HOP_TABLE_CACHE_SIZE,
    WeightMap,
    _flat_cells,
    _padded_weights,
    corner_hop_table,
)
from .tessellation import Corner, Tessellation, adjacent_corners, edge_cells


class UnreachableError(Exception):
    """No finite-cost path exists between the endpoints."""


class InvalidCornerError(ValueError):
    """An endpoint is not a corner of the tessellation window."""


class PathResult(NamedTuple):
    path: Tuple[Corner, ...]
    cost: float


def _check_endpoints(tess: Tessellation, weights: WeightMap, s: Corner, t: Corner):
    """Refuse endpoints off the window and a weight map of another shape."""
    for c in (s, t):
        if not tess.valid_corner(c):
            raise InvalidCornerError(f"not a corner of the window: {c!r}")
    if (weights.rows, weights.cols) != (tess.rows, tess.cols):
        raise ValueError("weight map shape does not match the window")


# The six (di, dj) steps in adjacent_corners order, and the (row, col)
# offsets of the two cells along each step's edge: the lattice is invariant
# under corner translations, so the steps from the origin serve every corner
_STEPS = np.array(adjacent_corners((0, 0)))
_STEP_CELLS = np.array([edge_cells(((0, 0), step)) for step in adjacent_corners((0, 0))])


# Kept for as many window shapes as hop tables are, least recently used first
@functools.lru_cache(maxsize=HOP_TABLE_CACHE_SIZE)
def _grid_layout(tess: Tessellation) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_corners, 6) heads of every corner's lattice edges, and the padded
    weight grid's flat indices of the two cells along each edge.

    A step off the window is an arc from the corner to itself. Both cells
    along its edge lie outside the window, so it costs infinity and never
    relaxes.
    """
    ci, cj = tess.corner_array.T
    # corners fill corner_grid at even i + j (Tessellation.valid_corner), and
    # steps move j by at most 1 and i by at most 2, so this margin reads -1
    padded = np.full((tess.rows + 3, tess.cols + 6), -1)
    padded[1:-1, 2:-2] = tess.corner_grid
    heads = padded[cj[:, None] + _STEPS[:, 1] + 1, ci[:, None] + _STEPS[:, 0] + 2]
    cells = _flat_cells(
        tess.cols, cj[:, None, None] + _STEP_CELLS[..., 0], ci[:, None, None] + _STEP_CELLS[..., 1]
    )
    off = heads < 0
    heads[off] = np.nonzero(off)[0]
    layout = (heads, np.ascontiguousarray(cells[..., 0]), np.ascontiguousarray(cells[..., 1]))
    for a in layout:
        a.setflags(write=False)
    return layout


def _grid_arcs(tess: Tessellation, weights: WeightMap) -> Tuple[np.ndarray, np.ndarray]:
    """(n_corners, 6) heads and costs of every corner's lattice edges.

    The heads and cells come from the shape's cached layout, and the cells
    are priced from the padded weight grid the hop tables price from.
    """
    heads, cells_a, cells_b = _grid_layout(tess)
    padded = _padded_weights(weights)
    costs = np.minimum(padded[cells_a], padded[cells_b])
    costs *= 2.0
    return heads, costs


def shortest_grid_path(
    tess: Tessellation, weights: WeightMap, s: Corner, t: Corner
) -> PathResult:
    """Cheapest path that moves along lattice edges only."""
    _check_endpoints(tess, weights, s, t)
    if s == t:
        return PathResult((s,), 0.0)
    heads, costs = _grid_arcs(tess, weights)
    cost, path, _ = _frontier_search(
        len(heads),
        tess.corner_ids[s],
        tess.corner_ids[t],
        lambda u, d: ((heads[u], d + costs[u]),),
    )
    if math.isinf(cost):
        raise UnreachableError(f"no finite-cost grid path from {s!r} to {t!r}")
    corners = tess.corners
    return PathResult(tuple(corners[k] for k in path), cost)


# arcs(u, d) gives node u's out-arcs, settled at distance d, as (heads,
# candidates) blocks: heads an index array, candidates d plus the arc costs to
# them, of the same shape. The kernel only reads a block, so a callback may
# add d in place to costs it has just computed. A head may repeat within a
# block only with bit-equal candidates, since one write keeps either copy.
_Arcs = Callable[[int, float], Iterable[Tuple[np.ndarray, np.ndarray]]]


def _frontier_search(
    n: int, si: int, ti: int, arcs: _Arcs
) -> Tuple[float, List[int], int]:
    """Dijkstra from node si to node ti over nodes 0..n-1.

    frontier[v] holds the tentative distance of each reached, unsettled
    node and infinity otherwise; each step settles its first minimum, which
    is the (cost, node id) order a binary heap of (cost, id) pairs pops.
    A relaxation writes only strictly improved entries, so all blocks of one
    node's arcs leave the minimum of their candidates whatever their order;
    see _Arcs for what a block holds.
    Returns the cost, the node path and the number of nodes settled; cost
    and path are (inf, []) when ti is unreachable.
    """
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    frontier = np.full(n, np.inf)
    dist[si] = frontier[si] = 0.0
    settled = 0
    while True:
        u = int(frontier.argmin())
        d = frontier[u]
        if d == np.inf:
            return (math.inf, [], settled)
        settled += 1
        if u == ti:
            break
        frontier[u] = np.inf
        for heads, nd in arcs(u, d):
            better = nd < dist[heads]
            lower = heads[better]
            if lower.size:
                vals = nd[better]
                dist[lower] = vals
                frontier[lower] = vals
                parent[lower] = u
    path = [ti]
    while path[-1] != si:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return (float(dist[ti]), path, settled)


def shortest_vertex_path(
    tess: Tessellation, weights: WeightMap, s: Corner, t: Corner
) -> PathResult:
    """Cheapest corner-to-corner polyline under the segment metric.

    Every corner pair is a candidate hop, so the relaxation runs over dense
    rows of the shared hop-cost matrix instead of adjacency lists.
    """
    _check_endpoints(tess, weights, s, t)
    if s == t:
        return PathResult((s,), 0.0)
    m = corner_hop_table(tess).cost_matrix(weights)
    cost, path, _ = _hop_search(m, tess.corner_ids[s], tess.corner_ids[t])
    if math.isinf(cost):
        raise UnreachableError(f"no finite-cost vertex path from {s!r} to {t!r}")
    return PathResult(tuple(tess.corners[k] for k in path), cost)


def _hop_search(hop_matrix: np.ndarray, si: int, ti: int) -> Tuple[float, List[int], int]:
    """The vertex-path search over a hop-cost matrix; also the oracle's level 0."""
    heads = np.arange(len(hop_matrix))
    return _frontier_search(len(heads), si, ti, lambda u, d: ((heads, d + hop_matrix[u]),))
