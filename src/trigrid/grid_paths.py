"""Shortest paths through tessellation corners.

Two solvers share the corner set but differ in moves. The grid-path solver
walks single lattice edges between adjacent corners. The vertex-path solver
may hop in a straight line between any two corners, paying the weighted
length of the segment, so its moves form a complete graph priced by the
metric. Both settle corners in (cost, (j, i) key) order, so a tie between
bit-equal costs goes to the smaller key and results are reproducible. That
order decides nothing between costs that differ in the last bit: a hop and
the same segment split at a collinear corner trace one polyline, but their
float sums can round apart, and then the cheaper rounding is reported.

All three path families run one search kernel, _frontier_search: a
Dijkstra that keeps unsettled tentative distances in a dense array and
settles its first minimum, with no heap. The grid-path solver relaxes a
corner through its six lattice edges, the vertex-path solver through its
row of hop costs, and the Steiner oracle adds its cell cliques.
"""

import math
from typing import Callable, Iterable, List, NamedTuple, Tuple

import numpy as np

from .metric import WeightMap, _effective_array, corner_hop_table
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


def _grid_arcs(tess: Tessellation, weights: WeightMap) -> Tuple[np.ndarray, np.ndarray]:
    """(n_corners, 6) heads and costs of every corner's lattice edges.

    A step off the window is an arc from the corner to itself. Both cells
    along its edge lie outside the window, so it costs infinity and never
    relaxes.
    """
    ci, cj = tess.corner_array.T
    # steps move j by at most 1 and i by at most 2, so this margin reads -1
    padded = np.full((tess.rows + 3, tess.cols + 6), -1)
    padded[1:-1, 2:-2] = tess.corner_grid
    heads = padded[cj[:, None] + _STEPS[:, 1] + 1, ci[:, None] + _STEPS[:, 0] + 2]
    cells = np.stack((cj, ci), axis=1)[:, None, None, :] + _STEP_CELLS
    w = _effective_array(weights, cells.reshape(-1, 2)).reshape(len(ci), 6, 2)
    costs = 2.0 * w.min(axis=2)
    off = heads < 0
    heads[off] = np.nonzero(off)[0]
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
        len(heads), tess.corner_ids[s], tess.corner_ids[t], lambda u: ((heads[u], costs[u]),)
    )
    if math.isinf(cost):
        raise UnreachableError(f"no finite-cost grid path from {s!r} to {t!r}")
    corners = tess.corners
    return PathResult(tuple(corners[k] for k in path), cost)


# A node's out-arcs as (heads, costs) blocks: heads an index array, costs the
# arc costs to them, of the same shape. A head may repeat within a block only
# with bit-equal costs, since one masked write keeps either copy.
_Arcs = Callable[[int], Iterable[Tuple[np.ndarray, np.ndarray]]]


def _frontier_search(
    n: int, si: int, ti: int, arcs: _Arcs
) -> Tuple[float, List[int], int]:
    """Dijkstra from node si to node ti over nodes 0..n-1.

    frontier[v] holds the tentative distance of each reached, unsettled
    node and infinity otherwise; each step settles its first minimum, which
    is the (cost, node id) order a binary heap of (cost, id) pairs pops.
    A relaxation writes only strictly improved entries, so all blocks of one
    node's arcs leave the minimum of their candidates whatever their order.
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
        for heads, costs in arcs(u):
            nd = d + costs
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
    corners = tess.corners
    m = corner_hop_table(tess).cost_matrix(weights)
    heads = np.arange(len(corners))
    cost, path, _ = _frontier_search(
        len(corners), tess.corner_ids[s], tess.corner_ids[t], lambda u: ((heads, m[u]),)
    )
    if math.isinf(cost):
        raise UnreachableError(f"no finite-cost vertex path from {s!r} to {t!r}")
    return PathResult(tuple(corners[k] for k in path), cost)
