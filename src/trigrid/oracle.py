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
"""

import heapq
import math
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .grid_paths import UnreachableError, _check_endpoints
from .metric import WeightMap, corner_hop_table, edge_weight
from .tessellation import (
    Cell,
    Corner,
    Edge,
    Point,
    Tessellation,
    cell_edges,
    cell_vertices,
    corner_cells,
    corner_position,
    edge_cells,
)

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


class _CellClique:
    """Boundary nodes of one finite cell, laid out for vectorized relaxation."""

    __slots__ = ("ids", "x", "y", "weight", "edges", "edge_weights", "edge_members")

    def __init__(self, ids, x, y, weight, edges, edge_weights, edge_members):
        self.ids = ids
        self.x = x
        self.y = y
        self.weight = weight
        self.edges = edges
        self.edge_weights = edge_weights
        self.edge_members = edge_members


class _SteinerGraph:
    def __init__(self, tess: Tessellation, weights: WeightMap, level: int):
        finite_cells, edges = _steiner_support(tess, weights, level)
        self.tess = tess
        self.corners = tess.corners
        n_corners = len(self.corners)
        self.n_corners = n_corners
        self.hop_matrix = corner_hop_table(tess).cost_matrix(weights)

        per_edge = 2 ** level - 1
        fractions = np.arange(1, per_edge + 1) / float(2 ** level)

        xs: List[float] = [corner_position(c)[0] for c in self.corners]
        ys: List[float] = [corner_position(c)[1] for c in self.corners]
        edge_nodes: Dict[Edge, np.ndarray] = {}
        node_edge: List[Edge] = []
        for edge in edges:
            (ax, ay), (bx, by) = corner_position(edge[0]), corner_position(edge[1])
            first = len(xs)
            for f in fractions:
                xs.append(ax + f * (bx - ax))
                ys.append(ay + f * (by - ay))
                node_edge.append(edge)
            edge_nodes[edge] = np.arange(first, first + per_edge, dtype=np.int64)

        self.x = np.array(xs)
        self.y = np.array(ys)
        self.node_edge = node_edge
        corner_ids = tess.corner_ids

        self.cliques: List[_CellClique] = []
        cell_clique_idx: Dict[Tuple[int, int], int] = {}
        for cell in finite_cells:
            verts = cell_vertices(cell)
            vert_ids = [corner_ids[c] for c in verts]
            edges = cell_edges(cell)
            members: List[np.ndarray] = []
            ids_list = [np.array(vert_ids, dtype=np.int64)]
            offset = 3
            spans = []
            for edge in edges:
                nodes = edge_nodes[edge]
                ids_list.append(nodes)
                spans.append((offset, offset + len(nodes)))
                offset += len(nodes)
            for slot, edge in enumerate(edges):
                ends = [m for m, c in enumerate(verts) if c in edge]
                lo, hi = spans[slot]
                members.append(np.array(ends + list(range(lo, hi)), dtype=np.int64))
            ids = np.concatenate(ids_list)
            clique = _CellClique(
                ids,
                self.x[ids],
                self.y[ids],
                weights.effective(cell),
                edges,
                [edge_weight(weights, e) for e in edges],
                members,
            )
            cell_clique_idx[cell] = len(self.cliques)
            self.cliques.append(clique)

        # which cliques each node can relax through
        self.corner_cliques: List[List[int]] = []
        for corner in self.corners:
            incident = []
            for cell in corner_cells(corner):
                idx = cell_clique_idx.get(cell)
                if idx is not None:
                    incident.append(idx)
            self.corner_cliques.append(incident)
        self.edge_cliques: Dict[Edge, List[int]] = {}
        for edge in edge_nodes:
            self.edge_cliques[edge] = [
                cell_clique_idx[c] for c in edge_cells(edge) if c in cell_clique_idx
            ]
        self._corner_range = np.arange(n_corners)

    def shortest(self, s: Corner, t: Corner) -> Tuple[float, Tuple[Point, ...]]:
        n = len(self.x)
        si = self.tess.corner_ids[s]
        ti = self.tess.corner_ids[t]
        dist = np.full(n, np.inf)
        parent = np.full(n, -1, dtype=np.int64)
        done = np.zeros(n, dtype=bool)
        dist[si] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, si)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            if u == ti:
                break
            done[u] = True
            if u < self.n_corners:
                row = d + self.hop_matrix[u]
                self._improve(self._corner_range, row, u, dist, parent, heap)
                cliques = self.corner_cliques[u]
            else:
                cliques = self.edge_cliques[self.node_edge[u - self.n_corners]]
            for ci in cliques:
                clique = self.cliques[ci]
                dvec = np.hypot(clique.x - self.x[u], clique.y - self.y[u])
                cost = clique.weight * dvec
                for slot, edge in enumerate(clique.edges):
                    if not self._node_on_edge(u, edge):
                        continue
                    ew = clique.edge_weights[slot]
                    if ew < clique.weight:
                        mem = clique.edge_members[slot]
                        cost[mem] = ew * dvec[mem]
                self._improve(clique.ids, d + cost, u, dist, parent, heap)
        if math.isinf(dist[ti]):
            return (math.inf, ())
        path = [ti]
        while path[-1] != si:
            path.append(int(parent[path[-1]]))
        points = tuple((self.x[k], self.y[k]) for k in reversed(path))
        return (float(dist[ti]), points)

    def _node_on_edge(self, u: int, edge: Edge) -> bool:
        if u >= self.n_corners:
            return self.node_edge[u - self.n_corners] == edge
        return self.corners[u] in edge

    @staticmethod
    def _improve(ids, nd, u, dist, parent, heap):
        mask = nd < dist[ids]
        if not mask.any():
            return
        sel = ids[mask]
        vals = nd[mask]
        dist[sel] = vals
        parent[sel] = u
        for node, val in zip(sel.tolist(), vals.tolist()):
            heapq.heappush(heap, (val, node))


def _steiner_support(
    tess: Tessellation, weights: WeightMap, level: int
) -> Tuple[List[Cell], List[Edge]]:
    """The finite cells and their distinct edges, in first-seen order.

    Refuses a level whose Steiner graph would exceed MAX_STEINER_NODES,
    before anything of that size is allocated.
    """
    if level < 0:
        raise ValueError("refinement level must be non-negative")
    finite_cells = [cell for cell in tess.cells if not math.isinf(weights.effective(cell))]
    edges = list(dict.fromkeys(edge for cell in finite_cells for edge in cell_edges(cell)))
    # the per-edge fractions are laid out even with no edges; clamping the
    # exponent keeps a huge level from building a huge integer, and any
    # clamped count is already over budget
    per_edge = 2 ** min(level, MAX_STEINER_NODES.bit_length()) - 1
    nodes = len(tess.corners) + max(len(edges), 1) * per_edge
    if nodes > MAX_STEINER_NODES:
        raise ValueError(
            f"refinement level {level} needs more than the budget of "
            f"{MAX_STEINER_NODES} Steiner nodes"
        )
    return finite_cells, edges


def approx_shortest_path(
    tess: Tessellation, weights: WeightMap, s: Corner, t: Corner, level: int = 3
) -> OracleResult:
    """Shortest path in the level's Steiner graph.

    The converged flag is only meaningful for refine_until; single-level
    results report False unless the endpoints coincide.
    """
    _check_endpoints(tess, s, t)
    if s == t:
        return OracleResult((corner_position(s),), 0.0, level, True)
    cost, path = _SteinerGraph(tess, weights, level).shortest(s, t)
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
    unset. A max_level beyond the node budget is refused up front.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    _steiner_support(tess, weights, max_level)
    prev = approx_shortest_path(tess, weights, s, t, level=0)
    if prev.cost == 0.0:
        return prev
    for level in range(1, max_level + 1):
        cur = approx_shortest_path(tess, weights, s, t, level=level)
        if (prev.cost - cur.cost) / cur.cost < rel_tol:
            return OracleResult(cur.path, cur.cost, level, True)
        prev = cur
    return prev
