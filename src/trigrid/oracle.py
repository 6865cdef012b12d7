"""Approximate continuous shortest paths.

Each refinement level places 2**level - 1 evenly spaced nodes on every edge
of the window (Lanthier, Maheshwari and Sack's uniform placement), so a
level's nodes and their order are set by the window shape alone. Graph
moves are straight hops: any corner to any other corner priced by the
segment metric, plus any two nodes on the boundary of a common finite cell,
paying the cell weight across its interior or the min-rule weight along a
shared edge; the arcs of blocked cells are dropped when the level's layout
is priced. Every graph path is a genuine plane path, so the reported cost is
an upper bound on the true optimum, and it is non-increasing in the level
because dyadic node sets nest.

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

Every level keeps the search contract all three path families share
(grid_paths): nodes settle in (cost, node id) order, so node order decides
a tie only between bit-equal costs, and either frontier returns the same
cost, path and settles. Level 0's rows are hop rows to every corner, and
past level 1 a settle weighs tens to hundreds of clique heads, so those
levels take the dense frontier (grid_paths._frontier_search). A level-1
settle weighs 18 heads on average over sweep's solves (8 at an edge's
node, 40 at a corner, hop row included), so level 1 takes the list search
(grid_paths._list_search) on every window. A warm level-1 solve over
lists took 0.78x the dense frontier's time at 28 corners (6x6), 1.00x at
91 (12x12), 1.13x at 153 (16x16) and 1.26x at 325 (24x24).

With exact distances a hop along an edge and its split at a node in
between cost the same before rounding, so the reported path drops every
node whose path neighbours lie on the same lattice edge as it: the merged
hop is an arc of the same clique at the same min-rule weight, and the
reported cost stays the search's sum. A corner hop and the same segment
split at a collinear corner can still round apart; which of the two is
reported then depends on rounding, not on node order.
"""

import functools
import logging
import math
from typing import List, NamedTuple, Tuple

import numpy as np

from .grid_paths import (
    _SLOT_ENDS,
    UnreachableError,
    _check_endpoints,
    _edge_weights,
    _frontier_search,
    _hop_search,
    _lattice,
    _list_search,
)
from .metric import HOP_TABLE_CACHE_SIZE, WeightMap, corner_hop_table
from .tessellation import SQRT3, Corner, Point, Tessellation, corner_position

logger = logging.getLogger(__name__)

DEFAULT_REL_TOL = 1e-6
DEFAULT_MAX_LEVEL = 7
# Largest Steiner graph built, in nodes: corners plus 2**level - 1 per edge of
# the window, blocked or not. Level 7 on a 24x24 window needs 114,625.
MAX_STEINER_NODES = 2_000_000
# Deepest level built. A level's distance table grows as 4**level: it takes
# 25 MB at level 10 and 101 MB at level 11.
MAX_LEVEL = 10


# the row kinds of a cell's vertex rows, then of its slot rows
_ROW_KINDS = np.array([[[3, 4, 5]], [[0, 1, 2]]])


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


class _Rows(NamedTuple):
    """Some cells, verts (C, 3) their cell_vertices as corner ids and
    slot_edges (C, 3) their cell_edges slots' edges, and their stacked rows:
    each cell's rows 3-5 (its vertices), then each cell's rows 0-2 (its
    slots), so row r is cell r // 3 % C's. A row relaxes group (a corner or
    n_corners + an edge), reads _clique_table's columns[columns // 6, columns
    % 6] and prices its members with w: its cell's slot min-rule weights and
    then its weight, as weights or as indices into a solve's weight vector."""

    verts: np.ndarray
    slot_edges: np.ndarray
    group: np.ndarray
    columns: np.ndarray
    w: np.ndarray


class _Window:
    """The Steiner layout of a window shape, as if no cell were blocked, on
    the shape's lattice (grid_paths._Lattice): edges and edge_cells are the
    lattice's arrays, and rows stacks every cell's rows, in row-major order,
    with weight indices. Solves of the shape share these arrays and
    level_one, the level-1 layout of every cell, so all are read-only."""

    def __init__(self, tess: Tessellation):
        lattice = _lattice(tess)
        self.edges, self.edge_cells = lattice.edges, lattice.edge_cells
        verts, ids = lattice.verts, lattice.slot_edges
        n_cells, n_corners = len(verts), len(tess.corners)
        up = tess.corner_grid[: tess.rows, : tess.cols] >= 0
        self.corner_xy = (tess.corner_array * (1.0, SQRT3)).T
        self.corner_heads = np.arange(n_corners)
        group = np.concatenate((verts.ravel(), n_corners + ids.ravel()))
        columns = (np.where(up, 0, 6).reshape(1, -1, 1) + _ROW_KINDS).ravel()
        w = np.concatenate((n_cells + ids, np.arange(n_cells)[:, None]), axis=1)
        self.rows = _Rows(verts, ids, group, columns, w[np.arange(6 * n_cells) // 3 % n_cells])
        for arr in (self.corner_xy, self.corner_heads, *self.rows):
            arr.setflags(write=False)

    @functools.cached_property
    def level_one(self) -> tuple:
        """Level 1's layout of every cell (_steiner_layout) as x, y, heads,
        each head's distance from its group's node, its weight index and
        the group bounds. At level 1 node g relaxes through group g, a
        corner's from table row 0 and an edge's middle node from row 1."""
        x, y, heads, idx, w, bounds = _steiner_layout(self, 1, self.rows)
        table = _clique_table(1)[0]
        split = bounds[len(self.corner_heads)]
        dist = np.concatenate((table[0].take(idx[:split]), table[1].take(idx[split:])))
        layout = (x, y, heads, dist, w, bounds)
        for arr in layout:
            arr.setflags(write=False)
        return layout


# Kept for as many window shapes as hop tables are, least recently used first
@functools.lru_cache(maxsize=HOP_TABLE_CACHE_SIZE)
def _window_support(tess: Tessellation) -> _Window:
    """The shape's shared Steiner layout; the shape fully determines it."""
    return _Window(tess)


def _steiner_layout(window: _Window, level: int, cells: _Rows) -> tuple:
    """The level's graph over the window's cells that cells holds, before
    pricing: node positions x and y; and each group's heads, their columns
    in the level's distance table and what cells.w gives them, laid end to
    end, group g at bounds[g]:bounds[g + 1]. Nodes are the corners, then 2**level - 1 along each edge of
    the window, from its first end, whichever cells are laid out; every
    cell's members are its 3 vertices, then its slots' nodes.
    """
    n_corners, n_edges = len(window.corner_heads), len(window.edges)
    per_edge = 2 ** level - 1
    n_members = 3 + 3 * per_edge
    fractions = np.arange(1, per_edge + 1) / float(2 ** level)
    a, b = window.corner_xy[:, window.edges, None].transpose(2, 0, 1, 3)  # each (xy, edge, 1)
    along = (a + fractions * (b - a)).reshape(2, -1)
    x, y = np.concatenate((window.corner_xy, along), axis=1)
    n_nodes = len(x)
    verts, slot_edges, row_group, row_columns, row_w = cells
    n_cells = len(verts)
    row_cell = np.arange(6 * n_cells) // 3 % n_cells

    # each stacked row's node ids, in the local layout of its cell (3
    # vertices, then per_edge nodes per slot), offset by its group, so
    # that sorting them groups the rows' heads
    edge_node_ids = n_corners + slot_edges[:, :, None] * per_edge + np.arange(per_edge)
    cell_ids = np.concatenate((verts, edge_node_ids.reshape(n_cells, 3 * per_edge)), axis=1)
    del edge_node_ids
    keys = cell_ids[row_cell]
    del cell_ids
    keys += (row_group * n_nodes)[:, None]
    keys = keys.ravel()
    # a group keeps each head once: the copies that cells sharing an edge
    # give it are priced alike, at that edge's min-rule weight (a corner's
    # copies of itself lie at distance 0). Keep each key's first copy, as
    # np.unique(keys, return_index=True) does, without its fixed cost.
    first = keys.argsort(kind="stable")
    keys = keys[first]
    kept = np.empty(len(keys), dtype=bool)
    kept[:1], kept[1:] = True, keys[1:] != keys[:-1]
    keys, first = keys[kept], first[kept]
    del kept
    bounds = np.searchsorted(keys, np.arange(0, (n_corners + n_edges + 1) * n_nodes, n_nodes))
    # integer floor division by a scalar is fast, remainder and divmod are not
    group_base = keys // n_nodes
    group_base *= n_nodes
    heads = np.subtract(keys, group_base, out=keys)
    del group_base
    # each kept copy's stacked row and local member place it: its column in
    # the level's table, and its weight, which the member's weight slot
    # picks from the row's three min-rule edge weights and its cell weight
    rows = first // n_members
    members = first  # reused in place: first is not read again
    del first
    members -= rows * n_members
    columns = _clique_table(level)[1]
    members += (row_columns * n_members).take(rows)  # a flat index into columns
    head_idx = columns.take(members)
    slot = _weight_slots(level).take(members)
    del members
    rows *= 4
    rows += slot
    head_w = row_w.take(rows)
    del rows, slot
    return x, y, heads, head_idx, head_w, bounds


class _SteinerGraph:
    """The level's Steiner graph: a layout (_steiner_layout) priced by one
    solve's weights, and the search that settles it (search names it):
    the list search at level 1, the dense frontier past it.

    Nodes span every edge of the window, so node order, and with it the
    (cost, node id) order of ties, is set by the shape alone. A node
    relaxes through the cells around it with one weight row per cell: the
    cell weight, or the min-rule edge weight for targets on an edge that
    also holds the node. Those rows are merged per node (per corner, or per
    edge for the nodes on it), each head kept once with its weight and its
    column in the level's distance table. A node whose edge borders only
    blocked cells has no arcs.

    At level 1 node g alone relaxes through group g, so one gather and one
    multiply price every arc of the shape's layout (_Window.level_one) for
    the solve, after the heads priced through a blocked cell, at infinite
    weight, are dropped, so no 0 * inf is computed. The priced arcs are
    kept as Python lists, from which a settle slices its group. Deeper
    levels, whose layouts run to megabytes, lay out the finite cells
    alone, from rows priced once per solve, for the dense frontier: a
    settle prices all of a node's cliques with one gather from its table
    row, through its group's views of heads, columns and weights. Heads
    and columns are intp, so no gather casts them.
    """

    def __init__(self, ctx: "_SolveContext", level: int):
        window = ctx.window
        self.n_corners, self.per_edge = len(window.corner_heads), 2 ** level - 1
        self.edges, self.corner_heads = window.edges, window.corner_heads
        self.hop_matrix = ctx.hop_matrix
        if level > 1:
            self.search = "dense"
            self.x, self.y, heads, idx, w, bounds = _steiner_layout(window, level, ctx.finite_rows)
            bounds = bounds.tolist()
            self.groups = [(heads[lo:hi], idx[lo:hi], w[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
            # node u relaxes through group node_group[u], priced from table
            # row node_row[u]: a corner through its own group and row 0, node
            # m of an edge through the edge's group and row m + 1. The nodes
            # of an edge share one int object for their group (a list repeats
            # it in a third of np.repeat's time at level 7). Deriving both
            # from u with divmod instead measured about 1% slower per settle
            # at level 7.
            n_edges = len(self.edges)
            self.node_group = list(range(self.n_corners))
            for group in range(self.n_corners, self.n_corners + n_edges):
                self.node_group += [group] * self.per_edge
            table_rows = list(_clique_table(level)[0])
            self.node_row = table_rows[:1] * self.n_corners + table_rows[1:-1] * n_edges
            return
        self.x, self.y, heads, dist, w, bounds = window.level_one
        w = ctx.w.take(w)
        kept = np.isfinite(w)
        if not kept.all():
            # a group's bound moves down by the heads dropped before it
            kept = kept.nonzero()[0]
            bounds = kept.searchsorted(bounds)
            heads, dist, w = heads.take(kept), dist.take(kept), w.take(kept)
        w *= dist
        self.search, self.corners = "list", range(self.n_corners)
        self.heads, self.costs, self.bounds = heads.tolist(), w.tolist(), bounds.tolist()

    def shortest(self, si: int, ti: int) -> Tuple[float, List[int], int]:
        """The search's cost, node path with its edge runs merged, and settles."""
        if self.search == "list":
            cost, path, settled = _list_search(len(self.x), si, ti, self._rows)
        else:
            cost, path, settled = _frontier_search(len(self.x), si, ti, self._arcs)
        return cost, self._merge_edge_runs(path), settled

    def _rows(self, u: int) -> tuple:
        """The list search's arcs of u at level 1: a corner's hop row, then
        u's group of clique heads."""
        lo, hi = self.bounds[u], self.bounds[u + 1]
        clique = (self.heads[lo:hi], self.costs[lo:hi])
        if u < self.n_corners:
            return ((self.corners, self.hop_matrix[u].tolist()), clique)
        return (clique,)

    def _arcs(self, u: int, d: float) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """The candidates of u settled at d past level 1: a corner's hop row,
        then u's group of clique heads, priced in place from its table row."""
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


class _SolveContext:
    """What no level of one s-t solve changes, none of it built if s == t:
    the shape's layout (_window_support), hop costs, and the weight vector w
    that prices every level's graph, the cell weights in row-major order,
    then grid_paths._edge_weights. solve() drops each level's graph on
    return, so no two levels' graphs are alive at once."""

    def __init__(
        self, tess: Tessellation, weights: WeightMap, s: Corner, t: Corner, max_level: int
    ):
        """Refuses bad endpoints, a max_level over MAX_LEVEL or past
        MAX_STEINER_NODES and, unless s == t, a window over the hop-table
        budget, before anything of that size is allocated."""
        _check_endpoints(tess, weights, s, t)
        if max_level < 0:
            raise ValueError("refinement level must be non-negative")
        if max_level > MAX_LEVEL:
            raise ValueError(
                f"refinement level {max_level} is over the budget of level {MAX_LEVEL}: "
                "a level's distance table grows as 4**level"
            )
        # counted with no layout: the corners are every other point of a (rows + 1)
        # x (cols + 2) grid, its first too, and by Euler's formula edges number
        # corners + cells - 1
        n_corners = ((tess.rows + 1) * (tess.cols + 2) + 1) // 2
        n_edges = n_corners + tess.rows * tess.cols - 1
        if n_corners + n_edges * (2 ** max_level - 1) > MAX_STEINER_NODES:
            raise ValueError(
                f"refinement level {max_level} needs more than the budget of "
                f"{MAX_STEINER_NODES} Steiner nodes"
            )
        self.s, self.t, self.max_level = s, t, max_level
        if s == t:
            return
        self.hop_matrix = corner_hop_table(tess).cost_matrix(weights)
        self.si, self.ti = tess.corner_ids[s], tess.corner_ids[t]
        self.window = _window_support(tess)
        cell_w = weights.values.ravel()
        self.w = np.concatenate((cell_w, _edge_weights(self.window.edge_cells, cell_w)))

    @functools.cached_property
    def finite_rows(self) -> _Rows:
        """The finite cells' rows, priced: what every level past 1 lays out."""
        verts, slot_edges, group, columns, w = self.window.rows
        cells = np.isfinite(self.w[: len(verts)])
        rows = np.tile(np.repeat(cells, 3), 2)  # each cell's vertex rows, then its slot rows
        return _Rows(verts[cells], slot_edges[cells], group[rows], columns[rows], self.w[w[rows]])

    def solve(self, level: int) -> OracleResult:
        """The level's path, logging its search, nodes, settles and cost at DEBUG."""
        if self.s == self.t:
            return OracleResult((corner_position(self.s),), 0.0, level, True)
        if level == 0:
            (x, y), search = self.window.corner_xy, "dense"
            cost, path, settled = _hop_search(self.hop_matrix, self.si, self.ti)
        else:
            graph = _SteinerGraph(self, level)
            x, y, search = graph.x, graph.y, graph.search
            cost, path, settled = graph.shortest(self.si, self.ti)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "level %d: %s search, %d nodes, %d settled, cost %r",
                level, search, len(x), settled, cost,
            )
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
