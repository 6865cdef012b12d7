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
from .metric import HOP_TABLE_CACHE_SIZE, WeightMap, corner_hop_table
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


_UP_CELL, _DOWN_CELL = _reference_cell(0), _reference_cell(1)
# [vertex] -> ((di, dj) in an upward cell, (di, dj) in a downward one)
_VERTEX_OFFSETS = tuple(zip(_UP_CELL[0], _DOWN_CELL[0]))
# [down, slot] -> (first end, second end)
_SLOT_ENDS = np.array((_UP_CELL[1], _DOWN_CELL[1]))


def _slot_members(slot: int, per_edge: int) -> np.ndarray:
    """Local ids of a slot's two vertices (alike in both orientations), then its nodes."""
    run = 3 + slot * per_edge
    return np.concatenate((_SLOT_ENDS[0, slot], np.arange(run, run + per_edge)))


class OracleResult(NamedTuple):
    """A Steiner path, its cost (an upper bound on SP) and its level.

    converged means refine_until stopped because the last level improved
    the cost by less than rel_tol, relative to it. It certifies no gap to
    the true optimum: a level may fail to improve on the one before while
    a deeper one still does (see refine_until).
    """

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

    The columns, (2, 6, 3 + 3 * per_edge) intp, are indexed [down, row
    kind, local member] like _SolveContext's stacked rows. They are read off
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
    columns = np.empty((2, 6, 3 + 3 * (p - 1)), dtype=np.intp)
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


@functools.lru_cache(maxsize=MAX_LEVEL + 1)
def _weight_slots(level: int) -> np.ndarray:
    """Which weight prices each arc of a cell, indexed like _clique_table's
    columns: slot k (0-2) for the min-rule weight of the cell's edge slot k,
    3 for the cell weight. A source pays edge slot k's weight to a target
    on that edge when the edge holds the source too: a node of the slot, or
    one of its ends. A vertex lies on two slots and pays the later one's
    weight to itself, at distance 0."""
    per_edge = 2 ** level - 1
    slots = np.full((6, 3 + 3 * per_edge), 3, dtype=np.int8)
    for k in range(3):
        members = _slot_members(k, per_edge)
        slots[[[k], [3 + members[0]], [3 + members[1]]], members] = k
    slots = np.stack((slots, slots))
    slots.setflags(write=False)
    return slots


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
    Each group's heads, columns and weights are laid out once per level as
    views, and each node's group and table row are looked up, so a settle
    slices nothing. Heads and columns are intp, so no gather casts them.
    """

    def __init__(self, ctx: "_SolveContext", level: int):
        cells, verts, edges, slot_edges = ctx.support
        n_corners, n_cells, per_edge = ctx.corner_xy.shape[1], len(cells), 2 ** level - 1
        n_members = 3 + 3 * per_edge
        self.n_corners, self.per_edge, self.edges = n_corners, per_edge, edges
        self.hop_matrix, self.corner_heads = ctx.hop_matrix, np.arange(n_corners)

        fractions = np.arange(1, per_edge + 1) / float(2 ** level)
        a, b = ctx.corner_xy[:, edges, None].transpose(2, 0, 1, 3)  # each (xy, edge, 1)
        along = (a + fractions * (b - a)).reshape(2, -1)
        self.x, self.y = np.concatenate((ctx.corner_xy, along), axis=1)
        n_nodes = len(self.x)

        # each stacked row's node ids, in the local layout of its cell (3
        # vertices, then per_edge nodes per slot), offset by its group, so
        # that sorting them groups the rows' heads
        edge_node_ids = n_corners + slot_edges[:, :, None] * per_edge + np.arange(per_edge)
        cell_ids = np.concatenate((verts, edge_node_ids.reshape(n_cells, -1)), axis=1)
        del edge_node_ids
        keys = cell_ids[ctx.row_cell]
        del cell_ids
        keys += (ctx.row_group * n_nodes)[:, None]
        keys = keys.ravel()
        # a group keeps each head once: the copies that cells sharing an edge
        # give it are priced alike, at that edge's min-rule weight. Keep each
        # key's first copy, as np.unique(keys, return_index=True) finds it but
        # without its fixed cost, which a small level-1 graph feels.
        first = keys.argsort(kind="stable")
        keys = keys[first]
        kept = np.empty(len(keys), dtype=bool)
        kept[:1], kept[1:] = True, keys[1:] != keys[:-1]
        keys, first = keys[kept], first[kept]
        del kept
        group_starts = np.arange(0, (n_corners + len(edges) + 1) * n_nodes, n_nodes)
        bounds = np.searchsorted(keys, group_starts).tolist()
        # integer floor division by a scalar is fast, remainder and divmod are not
        group_base = keys // n_nodes
        group_base *= n_nodes
        heads = np.subtract(keys, group_base, out=keys)
        del group_base
        # each kept copy's stacked row and local member price it: its column
        # in the level's table, and its weight, which the member's weight slot
        # picks from the row's three min-rule edge weights and its cell weight
        rows = first // n_members
        members = first  # reused in place: first is not read again
        del first
        members -= rows * n_members
        table, columns = _clique_table(level)
        members += (ctx.row_columns * n_members).take(rows)  # a flat index into columns
        head_idx = columns.take(members)
        slot = _weight_slots(level).take(members)
        del members
        rows *= 4
        rows += slot
        head_w = ctx.row_w.take(rows)
        del rows, slot
        self.groups = [
            (heads[lo:hi], head_idx[lo:hi], head_w[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]
        # node u relaxes through group node_group[u], priced from table row
        # node_row[u]: a corner through its own group and row 0, node m of an
        # edge through the edge's group and row m + 1. The nodes of an edge
        # share one int object for their group. Deriving both from u with
        # divmod instead measured about 1% slower per settle at level 7.
        group_ids = np.arange(n_corners + len(edges), dtype=object)
        edge_groups = np.repeat(group_ids[n_corners:], per_edge)
        self.node_group = np.concatenate((group_ids[:n_corners], edge_groups)).tolist()
        table_rows = list(table)
        self.node_row = table_rows[:1] * n_corners + table_rows[1:-1] * len(edges)

    def _arcs(self, u: int, d: float) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """The candidates of u settled at d: a corner's hop row, then u's group
        of clique heads, priced in place from its table row."""
        heads, idx, w = self.groups[self.node_group[u]]
        clique = self.node_row[u].take(idx)
        clique *= w
        clique += d
        if u < self.n_corners:
            return ((self.corner_heads, d + self.hop_matrix[u]), (heads, clique))
        return ((heads, clique),)

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


# Kept for as many window shapes as hop tables are, least recently used first
@functools.lru_cache(maxsize=HOP_TABLE_CACHE_SIZE)
def _window_support(tess: Tessellation) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The support of the whole window, as if no cell were blocked.

    Returns verts (rows, cols, 3), each cell's cell_vertices as corner
    ids; ids (rows, cols, 3), each slot's edge in the order cells first see
    them, row-major and slot by slot; edges (E, 2), each edge's ends in
    corner order; and up (rows, cols), which cells point upward.

    The order is closed form. A cell's slot 0 is its left edge, which its
    left neighbour saw first: as slot 2 when that neighbour points down (so
    the cell points up), as slot 1 when it points up. An upward cell's slot
    2 is its bottom edge, which the cell below saw first as slot 1. Every
    other slot sees its edge first. Every call of the shape shares these
    arrays, and _steiner_support reads them only through gathers, which copy.
    """
    rows, cols, grid = tess.rows, tess.cols, tess.corner_grid
    # a vertex sits at its upward offset in an upward cell and at its
    # downward one in a downward cell; at the other orientation's offset
    # i + j is odd and the grid reads -1, so the larger id is the vertex
    verts = np.empty((rows, cols, 3), dtype=grid.dtype)
    for v, ((ui, uj), (di, dj)) in enumerate(_VERTEX_OFFSETS):
        up_at, down_at = grid[uj : uj + rows, ui : ui + cols], grid[dj : dj + rows, di : di + cols]
        np.maximum(up_at, down_at, out=verts[..., v])
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
    return verts, ids, edges, up


def _steiner_support(tess: Tessellation, weights: WeightMap, level: int) -> _Support:
    """The finite cells and their distinct edges, in first-seen order.

    Cut from the window's support: a finite cell's slot sees its edge first
    among the finite cells unless the cell that saw it first in the window
    (_window_support) is finite too. Refuses a level over MAX_LEVEL, or one
    whose Steiner graph would exceed MAX_STEINER_NODES, before anything of
    that size is allocated.
    """
    if level < 0:
        raise ValueError("refinement level must be non-negative")
    if level > MAX_LEVEL:
        raise ValueError(
            f"refinement level {level} is over the budget of level {MAX_LEVEL}: "
            "a level's distance table grows as 4**level"
        )
    verts, ids, window_edges, up = _window_support(tess)
    finite = np.isfinite(weights.values)
    # the window's first seer of slot 0 is the left neighbour, of an upward
    # cell's slot 2 the cell below, and of every other slot the cell itself
    first = np.empty(finite.shape + (3,), dtype=bool)
    first[...] = finite[..., None]
    np.greater(first[:, 1:, 0], finite[:, :-1], out=first[:, 1:, 0])
    np.greater(first[1:, :, 2], up[1:] & finite[:-1], out=first[1:, :, 2])
    kept = ids[first]
    rank = np.empty(len(window_edges), dtype=np.intp)
    rank[kept] = np.arange(len(kept))
    # the per-edge fractions are laid out even with no edges
    nodes = len(tess.corners) + max(len(kept), 1) * (2 ** level - 1)
    if nodes > MAX_STEINER_NODES:
        raise ValueError(
            f"refinement level {level} needs more than the budget of "
            f"{MAX_STEINER_NODES} Steiner nodes"
        )
    cells = np.transpose(np.nonzero(finite))  # np.argwhere, without its checks
    return _Support(cells, verts[finite], window_edges[kept], rank[ids[finite]])


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
        cells, verts, edges, slot_edges = self.support
        self.hop_matrix = None if s == t else corner_hop_table(tess).cost_matrix(weights)
        cell_w = weights.values[cells[:, 0], cells[:, 1]]
        # an edge's min-rule weight is the least weight of the finite cells that hold it
        min_w = np.full(len(edges), np.inf)
        np.minimum.at(min_w, slot_edges, cell_w[:, None])
        corner_i, corner_j = tess.corner_array.T
        self.corner_xy = np.stack((corner_i.astype(float), corner_j * SQRT3))
        # every level stacks the cells' weight rows alike: each cell's rows
        # 3-5 (its vertices), then each cell's rows 0-2 (its slots). A row
        # relaxes group row_group (a corner, or n_corners + an edge), reads
        # columns[row_columns // 6, row_columns % 6] and picks its weights
        # from row_w: its cell's three slot min-rule weights, then the cell's.
        n_cells = len(cells)
        self.row_cell = np.arange(6 * n_cells) // 3 % n_cells
        self.row_group = np.concatenate((verts.ravel(), len(tess.corners) + slot_edges.ravel()))
        kind = np.repeat(np.array([[[3, 4, 5]], [[0, 1, 2]]]), n_cells, axis=1).ravel()
        self.row_columns = 6 * ((cells[:, 0] + cells[:, 1]) % 2)[self.row_cell] + kind
        self.row_w = np.concatenate((min_w[slot_edges], cell_w[:, None]), axis=1)[self.row_cell]

    def solve(self, level: int) -> OracleResult:
        """The level's path, logging its nodes, settles and cost at DEBUG."""
        if self.s == self.t:
            return OracleResult((corner_position(self.s),), 0.0, level, True)
        if level == 0:
            x, y = self.corner_xy
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
        # Python floats, so that every layer reading the path does float arithmetic
        return OracleResult(tuple(zip(x[path].tolist(), y[path].tolist())), cost, level, False)

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
    result is flagged converged. That flag means only that the last level
    improved by less than rel_tol, not that the cost is within rel_tol of
    the optimum. On instances.gen_svp_witness() levels 1-3 cost the same,
    so the loop stops at level 2, converged, with svp/sp 1.10874, while
    level 4 gives 1.11150. Hitting max_level first leaves the flag unset.
    A max_level beyond the node budget is refused up front. At DEBUG
    each level's search logs its line (see approx_shortest_path), then this
    loop logs the level's relative improvement and, last, why it stopped.
    """
    return _SolveContext(tess, weights, s, t, max_level).refine(rel_tol)[0]
