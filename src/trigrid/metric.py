"""Weighted region metric over the lattice.

A weight map assigns every window cell a positive weight, possibly
infinite. A straight segment is priced piece by piece: pieces crossing a
cell's interior cost that cell's weight times their Euclidean length, and
pieces running along a lattice edge cost the cheaper of the two incident
cells. Cells outside the window count as infinitely heavy.
"""

import math
from collections import OrderedDict
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .tessellation import (
    EDGE_COLLINEAR,
    Cell,
    Corner,
    Edge,
    Point,
    Tessellation,
    WalkRecord,
    are_adjacent,
    corner_position,
    edge_cells,
    edge_key,
    segment_walk,
)


class WeightMap:
    """Positive cell weights on a rows x cols window.

    Infinity marks impassable cells. The value grid is kept read-only so a
    map can be shared freely; derive modified maps with replace().
    """

    __slots__ = ("values", "rows", "cols")

    def __init__(self, values: Sequence[Sequence[float]]):
        arr = np.array(values, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("weights must form a non-empty 2d grid")
        if np.isnan(arr).any() or (arr <= 0.0).any():
            raise ValueError("weights must be positive, or infinite for blocked cells")
        arr.setflags(write=False)
        self.values = arr
        self.rows, self.cols = arr.shape

    def effective(self, cell: Cell) -> float:
        """Weight seen by the metric: the stored value, or infinity outside."""
        row, col = cell
        if 0 <= row < self.rows and 0 <= col < self.cols:
            return float(self.values[row, col])
        return math.inf

    def replace(self, cell: Cell, weight: float) -> "WeightMap":
        """A copy of this map with one cell's weight changed."""
        row, col = cell
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"cell outside the window: {cell!r}")
        out = np.array(self.values)
        out[row, col] = weight
        return WeightMap(out)

    def __repr__(self):
        return f"WeightMap({self.rows}x{self.cols})"


def edge_weight(weights: WeightMap, edge: Edge) -> float:
    """Min-rule weight of an edge: the cheaper of its two incident cells."""
    a, b = edge_cells(edge)
    return min(weights.effective(a), weights.effective(b))


def grid_edge_cost(weights: WeightMap, a: Corner, b: Corner) -> float:
    """Cost of one grid-graph edge; every lattice edge has length 2."""
    if not are_adjacent(a, b):
        raise ValueError(f"corners are not adjacent: {a!r}, {b!r}")
    return 2.0 * edge_weight(weights, edge_key(a, b))


def walk_cost(weights: WeightMap, pieces: Iterable[WalkRecord]) -> float:
    """Weighted length of walk pieces, summed with math.fsum.

    A piece across a cell pays the cell's weight, one along an edge the
    edge's min-rule weight. Walks emit no zero-length pieces, so an
    infinite weight never meets a zero length.
    """
    return math.fsum(
        (
            edge_weight(weights, rec.edge)
            if rec.kind == EDGE_COLLINEAR
            else weights.effective(rec.cell)
        )
        * math.dist(rec.entry, rec.exit)
        for rec in pieces
    )


def segment_cost(weights: WeightMap, p: Point, q: Point) -> float:
    """Weighted length of the straight segment from p to q."""
    return walk_cost(weights, segment_walk(p, q))


class _Walk(NamedTuple):
    """The walk from the origin corner to one displacement, as piece arrays.

    Collinear pieces carry both incident cells; interior pieces carry their
    cell twice, so pricing takes the min over (cells_a, cells_b) uniformly.
    """

    lengths: np.ndarray
    cells_a: np.ndarray
    cells_b: np.ndarray


# Walks keyed by corner displacement (dj, di). A walk between lattice corners
# depends only on their difference: the walk from a to a + d is the walk from
# the origin to d with every cell shifted by (a_j, a_i). Entries are pure
# geometry, shared by every window shape, and the set grows only with the
# largest window extent in use.
_WALKS: Dict[Tuple[int, int], _Walk] = {}


def _origin_walk(dj: int, di: int) -> _Walk:
    """The library's walk to displacement (dj, di), walked on first use."""
    walk = _WALKS.get((dj, di))
    if walk is None:
        lengths: List[float] = []
        cells_a: List[Cell] = []
        cells_b: List[Cell] = []
        for rec in segment_walk((0.0, 0.0), corner_position((di, dj))):
            if rec.kind == EDGE_COLLINEAR:
                ca, cb = edge_cells(rec.edge)
            else:
                ca = cb = rec.cell
            lengths.append(math.dist(rec.entry, rec.exit))
            cells_a.append(ca)
            cells_b.append(cb)
        walk = _WALKS[(dj, di)] = _Walk(
            np.array(lengths),
            np.array(cells_a, dtype=np.int32).reshape(-1, 2),
            np.array(cells_b, dtype=np.int32).reshape(-1, 2),
        )
    return walk


# Largest hop table built, in walk pieces of 28 bytes: 24x24 needs about
# 0.87 M pieces (25 MB), 32x32 3.6 M and 48x48 26 M.
MAX_HOP_PIECES = 2_000_000


def _check_table_budget(tess: Tessellation) -> None:
    """Refuse a window whose hop table would hold over MAX_HOP_PIECES pieces.

    The pieces are counted per corner displacement, and counting stops at
    the budget, so nothing of the table's size is allocated or walked. The
    window's corners are the (i, j) with i + j even in a grid of rows + 1
    by cols + 2, so of the nj x ni grid points a displacement can start
    from, with the first in column i0, every other one is a corner, the
    first one when i0 is even.
    """
    n_j, n_i = tess.rows + 1, tess.cols + 2
    pieces = 0
    for dj in range(n_j):
        for di in range(-(n_i - 1), n_i):
            if (di + dj) % 2 or (dj == 0 and di <= 0):
                continue
            starts = ((n_j - dj) * (n_i - abs(di)) + 1 - max(0, -di) % 2) // 2
            if starts:
                pieces += starts * len(_origin_walk(dj, di).lengths)
            if pieces > MAX_HOP_PIECES:
                raise ValueError(
                    f"a {tess.rows}x{tess.cols} hop table needs more than the budget of "
                    f"{MAX_HOP_PIECES} walk pieces"
                )


class CornerHopTable:
    """Flattened walk pieces for every pair of window corners.

    The walks depend only on the window shape, so one table serves every
    weight map of that shape; pricing all pairs under a map reduces to a
    couple of vectorized array operations. Pairs (a, b) with a before b in
    corner order have b - a in canonical form (dj > 0, or dj == 0 and
    di > 0), so each pair's pieces are gathered from the shared origin walk
    of its displacement and shifted onto a. Piece arrays are int32 where
    they index, 28 bytes per piece with the float lengths. A window over
    MAX_HOP_PIECES pieces is refused.
    """

    def __init__(self, tess: Tessellation):
        _check_table_budget(tess)
        self.rows = tess.rows
        self.cols = tess.cols
        self.corners = tess.corners
        n = len(self.corners)
        ci, cj = tess.corner_array.T
        ai, bi = np.triu_indices(n, k=1)
        dj, di = cj[bi] - cj[ai], ci[bi] - ci[ai]
        # dj >= 0 and |di| <= cols + 1, so this key is unique per displacement
        keys = dj * (2 * self.cols + 5) + di
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        walks = [_origin_walk(int(dj[k]), int(di[k])) for k in first]
        counts = np.array([len(w.lengths) for w in walks], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

        per_pair = counts[inverse]
        pair_idx = np.repeat(np.arange(len(ai), dtype=np.int32), per_pair)
        # a pair's pieces are its walk's pieces in order, so each pair's block
        # of the table maps onto its walk's block of the concatenated walks
        offset = starts[inverse] - (np.cumsum(per_pair) - per_pair)
        src = np.arange(len(pair_idx)) + offset[pair_idx]
        shift = np.stack((cj, ci), axis=1).astype(np.int32)[ai[pair_idx]]

        self.n_corners = n
        self.pairs = np.stack((ai, bi), axis=1).astype(np.int32)
        self.pair_idx = pair_idx
        self.lengths = np.concatenate([w.lengths for w in walks])[src]
        self.cells_a = np.concatenate([w.cells_a for w in walks])[src] + shift
        self.cells_b = np.concatenate([w.cells_b for w in walks])[src] + shift

    def cost_matrix(self, weights: WeightMap) -> np.ndarray:
        """Dense symmetric matrix of straight-hop costs between all corners."""
        if (weights.rows, weights.cols) != (self.rows, self.cols):
            raise ValueError("weight map shape does not match the table")
        wa = _effective_array(weights, self.cells_a)
        wb = _effective_array(weights, self.cells_b)
        contrib = np.minimum(wa, wb) * self.lengths
        per_pair = np.bincount(self.pair_idx, weights=contrib, minlength=len(self.pairs))
        m = np.zeros((self.n_corners, self.n_corners))
        ai, bi = self.pairs[:, 0], self.pairs[:, 1]
        m[ai, bi] = per_pair
        m[bi, ai] = per_pair
        return m


def _effective_array(weights: WeightMap, cells: np.ndarray) -> np.ndarray:
    rows, cols = cells[:, 0], cells[:, 1]
    inside = (rows >= 0) & (rows < weights.rows) & (cols >= 0) & (cols < weights.cols)
    out = np.full(len(cells), np.inf)
    vals = weights.values[np.clip(rows, 0, weights.rows - 1), np.clip(cols, 0, weights.cols - 1)]
    out[inside] = vals[inside]
    return out


# Tables kept per window shape, least recently used first. A table holds
# every pair's pieces, O(n_corners^2 * walk length) memory, so only a few stay
# resident; rebuilding an evicted one costs gathers from the walk library.
HOP_TABLE_CACHE_SIZE = 8
_HOP_TABLES: "OrderedDict[Tuple[int, int], CornerHopTable]" = OrderedDict()


def corner_hop_table(tess: Tessellation) -> CornerHopTable:
    """Shared per-shape table; window shape fully determines the geometry."""
    key = (tess.rows, tess.cols)
    table = _HOP_TABLES.get(key)
    if table is None:
        table = _HOP_TABLES[key] = CornerHopTable(tess)
        if len(_HOP_TABLES) > HOP_TABLE_CACHE_SIZE:
            _HOP_TABLES.popitem(last=False)
    else:
        _HOP_TABLES.move_to_end(key)
    return table
