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

All three path families share one search contract: a Dijkstra from si to
ti that settles nodes in (cost, node id) order, writes a tentative
distance only where it improves strictly, and returns (cost, node path,
nodes settled), (inf, [], settled) when ti is unreachable. Two frontiers
keep it, and a solver picks the one that suits the length of its rows.
_list_search keeps distances in Python lists and pops a heap of (cost,
node id) pairs: it settles the grid-path solver, whose corners relax
through their six edges of the shape's _Lattice, the edges that carry
the Steiner nodes, and the Steiner oracle's level 1. On rows that short
a numpy call costs more than the arithmetic: SGP ran 2.0-2.4x faster over
lists than on the dense frontier from 4x5 to 16x16, and a level-1 solve
0.78x the dense time at 28 corners (6x6), 1.00x at 91 (12x12) and 1.13x
at 153 (16x16). _frontier_search keeps unsettled tentative distances in
a dense array and settles its first minimum, with no heap: it settles
the vertex-path solver, whose corners relax through their row of hop
costs to every corner, and the oracle's level 0 and deeper levels, whose
cliques run to hundreds of heads. There a settle asks its callback for candidate distances, the
settled distance already added, so the oracle can add it in place to
the clique costs it has just priced, and keeps the strictly improved
ones with boolean masks: gathering their positions with nonzero and take
instead measured slower, on the six heads of a grid step and on the
hundreds of a deep Steiner level. On hop rows the list search was 0.92x
the dense frontier's time at 28 corners (6x6) and 1.18x at 41 (8x7).
"""

import functools
import heapq
import math
from typing import Callable, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .metric import HOP_TABLE_CACHE_SIZE, WeightMap, corner_hop_table
from .tessellation import Corner, Tessellation, cell_edges, cell_vertices


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


def _reference_cell(down: int):
    """The layout of cell (0, down), of which every cell of its orientation is
    a translate: its cell_vertices as (di, dj) offsets from its (col, row),
    and the vertex indices of each cell_edges slot's first and second end."""
    cell = (0, down)
    verts = cell_vertices(cell)
    offsets = [(i - down, j) for i, j in verts]
    return offsets, [[verts.index(c) for c in edge] for edge in cell_edges(cell)]


_UP_CELL, _DOWN_CELL = _reference_cell(0), _reference_cell(1)
# [vertex] -> ((di, dj) in an upward cell, (di, dj) in a downward one)
_VERTEX_OFFSETS = tuple(zip(_UP_CELL[0], _DOWN_CELL[0]))
# [down, slot] -> (first end, second end)
_SLOT_ENDS = np.array((_UP_CELL[1], _DOWN_CELL[1]))


class _Lattice:
    """The edges of a window shape, numbered once for SGP and the Steiner graph.

    verts (C, 3) holds each cell's cell_vertices as corner ids and
    slot_edges (C, 3) its cell_edges slots' edges, cells in row-major order.
    edges (E, 2) holds each edge's ends in corner order, numbered as cells
    first see them, row-major and slot by slot: a cell's slot 0 (left edge)
    is seen first by its left neighbour and an upward cell's slot 2 (bottom
    edge) by the cell below, every other slot by the cell. edge_cells (2, E)
    holds each edge's first and second seer, the first twice on the border.
    arc_heads and arc_edges (n_corners, 6) hold the far end and edge of each
    corner's steps in adjacent_corners order; a step off the window runs to
    the corner itself along edge E, which _edge_weights prices at infinity.
    Every solve of the shape shares these arrays, so they are read-only."""

    def __init__(self, tess: Tessellation):
        rows, cols, grid = tess.rows, tess.cols, tess.corner_grid
        # a vertex sits at its upward offset in an upward cell and at its
        # downward one in a downward cell; at the other orientation's offset
        # i + j is odd and the grid reads -1, so the larger id is the vertex
        verts = np.empty((rows, cols, 3), dtype=grid.dtype)
        for v, ((ui, uj), (di, dj)) in enumerate(_VERTEX_OFFSETS):
            up_at = grid[uj : uj + rows, ui : ui + cols]
            np.maximum(up_at, grid[dj : dj + rows, di : di + cols], out=verts[..., v])
        up = grid[:rows, :cols] >= 0
        first = np.ones((rows, cols, 3), dtype=bool)
        first[:, 1:, 0] = False
        np.logical_not(up[1:], out=first[1:, :, 2])
        ids = np.cumsum(first).reshape(rows, cols, 3)
        ids -= 1
        # a downward neighbour sees its slots 1 and 2 first, one after the other,
        # so its slot 2's id is its slot 1's plus one
        np.add(ids[:, :-1, 1], up[:, 1:], out=ids[:, 1:, 0])
        np.copyto(ids[1:, :, 2], ids[:-1, :, 1], where=up[1:])
        edges = verts[..., _SLOT_ENDS[0]][first]
        edges.sort(axis=1)

        n_cells = rows * cols
        self.verts, self.slot_edges = verts.reshape(n_cells, 3), ids.reshape(n_cells, 3)
        # each edge's first seer (edges are numbered in first-seen order),
        # then its second, where it has one
        seer, first = np.repeat(np.arange(n_cells), 3), first.ravel()
        self.edge_cells = np.array((seer[first], seer[first]))
        second = ~first
        self.edge_cells[1, self.slot_edges.ravel()[second]] = seer[second]
        self.edges = edges

        # an edge runs from its first end a to b by (2, 0), (-1, 1) or (1, 1):
        # adjacent_corners steps 3, 4 and 5 of a, and steps 2, 1 and 0 of b
        a, b = edges.T
        ci, cj = tess.corner_array.T
        dj = cj[b] - cj[a]
        step = 3 + dj + dj * (ci[b] > ci[a])
        at_a, at_b = a * 6 + step, b * 6 + 5 - step
        n_corners = len(tess.corners)
        self.arc_heads = np.repeat(np.arange(n_corners), 6)
        self.arc_edges = np.full(6 * n_corners, len(edges))
        self.arc_heads[at_a], self.arc_heads[at_b] = b, a
        self.arc_edges[at_a] = self.arc_edges[at_b] = np.arange(len(edges))
        self.arc_heads.shape = self.arc_edges.shape = (n_corners, 6)
        for arr in vars(self).values():
            arr.setflags(write=False)


# Kept for as many window shapes as hop tables are, least recently used first
@functools.lru_cache(maxsize=HOP_TABLE_CACHE_SIZE)
def _lattice(tess: Tessellation) -> _Lattice:
    """The shape's shared edge layout; the shape fully determines it."""
    return _Lattice(tess)


def _edge_weights(edge_cells: np.ndarray, cell_w: np.ndarray) -> np.ndarray:
    """Each window edge's min-rule weight, the lesser of its edge_cells'
    (_Lattice) raveled weights cell_w; then infinity, for the padding edge E."""
    w = np.full(edge_cells.shape[1] + 1, np.inf)
    np.minimum(cell_w[edge_cells[0]], cell_w[edge_cells[1]], out=w[:-1])
    return w


def _grid_arcs(tess: Tessellation, weights: WeightMap) -> Tuple[np.ndarray, np.ndarray]:
    """(n_corners, 6) heads and costs of every corner's lattice edges: every
    edge has length 2, so an arc costs twice its edge's min-rule weight."""
    lattice = _lattice(tess)
    costs = _edge_weights(lattice.edge_cells, weights.values.ravel()).take(lattice.arc_edges)
    costs *= 2.0
    return lattice.arc_heads, costs


def shortest_grid_path(
    tess: Tessellation, weights: WeightMap, s: Corner, t: Corner
) -> PathResult:
    """Cheapest path that moves along lattice edges only."""
    _check_endpoints(tess, weights, s, t)
    if s == t:
        return PathResult((s,), 0.0)
    heads, costs = (arr.tolist() for arr in _grid_arcs(tess, weights))
    cost, path, _ = _list_search(
        len(heads), tess.corner_ids[s], tess.corner_ids[t], lambda u: ((heads[u], costs[u]),)
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


# rows(u) gives node u's out-arcs as (heads, costs) pairs of Python sequences
_RowLists = Callable[[int], Iterable[Tuple[Sequence[int], Sequence[float]]]]


def _list_search(n: int, si: int, ti: int, rows: _RowLists) -> Tuple[float, List[int], int]:
    """_frontier_search over Python lists, popping a heap of (cost, node id).

    Node u settled at d offers each head v of its rows the candidate d + c
    for the arc cost c, written only where it improves v strictly. So a
    node enters the heap once per distance it is given, and an entry above
    its node's distance is stale: the lower entry pops first and settles
    the node, and the stale one is skipped. The heap pops the (cost, node
    id) order in which the frontier's first minimum settles nodes, so both
    searches return the same (cost, path, settled).
    """
    dist = [math.inf] * n
    parent = [-1] * n
    dist[si] = 0.0
    heap = [(0.0, si)]
    push, pop = heapq.heappush, heapq.heappop
    settled = 0
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        settled += 1
        if u == ti:
            path = [ti]
            while path[-1] != si:
                path.append(parent[path[-1]])
            path.reverse()
            return (d, path, settled)
        for heads, costs in rows(u):
            for v, c in zip(heads, costs):
                c += d
                if c < dist[v]:
                    dist[v] = c
                    parent[v] = u
                    push(heap, (c, v))
    return (math.inf, [], settled)


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
