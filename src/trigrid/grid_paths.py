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

The vertex-path solver and the Steiner oracle share one search kernel,
_frontier_search: a Dijkstra that keeps unsettled tentative distances in a
dense array and settles its first minimum, with no heap.
"""

import heapq
import math
from typing import Callable, Dict, Iterable, List, NamedTuple, Tuple

import numpy as np

from .metric import WeightMap, corner_hop_table, grid_edge_cost
from .tessellation import Corner, Tessellation


class UnreachableError(Exception):
    """No finite-cost path exists between the endpoints."""


class InvalidCornerError(ValueError):
    """An endpoint is not a corner of the tessellation window."""


class PathResult(NamedTuple):
    path: Tuple[Corner, ...]
    cost: float


def _check_endpoints(tess: Tessellation, s: Corner, t: Corner):
    for c in (s, t):
        if not tess.valid_corner(c):
            raise InvalidCornerError(f"not a corner of the window: {c!r}")


def _reconstruct(parent: Dict[Corner, Corner], s: Corner, t: Corner) -> Tuple[Corner, ...]:
    out = [t]
    while out[-1] != s:
        out.append(parent[out[-1]])
    out.reverse()
    return tuple(out)


def shortest_grid_path(
    tess: Tessellation, weights: WeightMap, s: Corner, t: Corner
) -> PathResult:
    """Cheapest path that moves along lattice edges only."""
    _check_endpoints(tess, s, t)
    if s == t:
        return PathResult((s,), 0.0)
    dist: Dict[Corner, float] = {s: 0.0}
    parent: Dict[Corner, Corner] = {}
    done = set()
    heap = [(0.0, (s[1], s[0]), s)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in done:
            continue  # stale heap entry for an already settled corner
        if node == t:
            return PathResult(_reconstruct(parent, s, t), d)
        done.add(node)
        for nb in tess.corner_neighbors(node):
            if nb in done:
                continue
            nd = d + grid_edge_cost(weights, node, nb)
            if math.isinf(nd):
                continue
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                parent[nb] = node
                heapq.heappush(heap, (nd, (nb[1], nb[0]), nb))
    raise UnreachableError(f"no finite-cost grid path from {s!r} to {t!r}")


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
    _check_endpoints(tess, s, t)
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
