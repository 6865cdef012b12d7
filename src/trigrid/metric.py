"""Weighted region metric over the lattice.

A weight map assigns every window cell a positive weight, possibly
infinite. A straight segment is priced piece by piece: pieces crossing a
cell's interior cost that cell's weight times their Euclidean length, and
pieces running along a lattice edge cost the cheaper of the two incident
cells. Cells outside the window count as infinitely heavy.
"""

import functools
import math
from typing import Iterable, NamedTuple, Sequence

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
    map can be shared freely.
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
    A mirrored walk shares its lengths array with the walk it mirrors.
    """

    lengths: np.ndarray
    cells_a: np.ndarray
    cells_b: np.ndarray


# A walk between lattice corners depends only on their difference: the walk
# from a to a + d is the walk from the origin to d with every cell shifted by
# (a_j, a_i). So one cache of origin walks, keyed by (dj, di), serves every
# window shape and grows only with the largest window extent in use.
@functools.cache
def _origin_walk(dj: int, di: int) -> _Walk:
    """The walk from the origin corner to displacement (dj, di).

    Only walks with di >= 0 are traced. The lattice is symmetric under the
    mirror x -> -x, which maps corner (i, j) to (-i, j) and cell (row, col)
    to (row, -col - 2), so the walk to (dj, -di) is the walk to (dj, di)
    with its cells mirrored: the same lengths, in the same order.
    """
    if di < 0:
        twin = _origin_walk(dj, -di)
        sign, offset = np.array([1, -1], dtype=np.int32), np.array([0, -2], dtype=np.int32)
        return _Walk(twin.lengths, sign * twin.cells_a + offset, sign * twin.cells_b + offset)
    lengths, cells = [], []
    for rec in segment_walk((0.0, 0.0), corner_position((di, dj))):
        lengths.append(math.dist(rec.entry, rec.exit))
        cells.append(edge_cells(rec.edge) if rec.kind == EDGE_COLLINEAR else (rec.cell, rec.cell))
    pairs = np.array(cells, dtype=np.int32).reshape(-1, 2, 2)
    return _Walk(np.array(lengths), pairs[:, 0], pairs[:, 1])


# Largest hop table built, in walk pieces of 20 bytes: 24x24 needs about
# 0.87 M pieces (17 MB), 32x32 3.6 M and 48x48 26 M.
MAX_HOP_PIECES = 2_000_000


def _check_table_budget(tess: Tessellation) -> None:
    """Refuse a window whose hop table would hold over MAX_HOP_PIECES pieces.

    The pieces are counted per corner displacement, and counting stops at
    the budget, so nothing of the table's size is allocated or walked. The
    window's corners are the (i, j) with i + j even in a grid of rows + 1
    by cols + 2 (Tessellation.valid_corner), so of the nj x ni grid points
    a displacement can start from, with the first in column i0, every
    other one is a corner, the first one when i0 is even.
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


# Pricing reads cells from one copy of the weight grid inside a border of
# infinite weight, raveled. Walks between window corners name rows -1..rows
# and columns -1..cols, and the six lattice steps of a window corner rows
# -1..rows and columns -2..cols + 1, so this border holds every cell either
# names, and a cell outside the window reads infinity with no bounds test.
_PAD_ROWS, _PAD_COLS = 1, 2


def _padded_weights(weights: WeightMap) -> np.ndarray:
    """The raveled weight grid inside its infinite border; see _flat_cells."""
    rows, cols = weights.rows, weights.cols
    grid = np.full((rows + 2 * _PAD_ROWS, cols + 2 * _PAD_COLS), np.inf)
    grid[_PAD_ROWS : _PAD_ROWS + rows, _PAD_COLS : _PAD_COLS + cols] = weights.values
    return grid.ravel()


def _flat_cells(cols: int, row, col):
    """Index of cell (row, col) in the padded grid of a window cols wide."""
    return (row + _PAD_ROWS) * (cols + 2 * _PAD_COLS) + (col + _PAD_COLS)


class CornerHopTable:
    """Flattened walk pieces for every pair of window corners.

    The walks depend only on the window shape, so one table serves every
    weight map of that shape; pricing all pairs under a map reduces to a
    couple of vectorized array operations. Pairs (a, b) with a before b in
    corner order have b - a in canonical form (dj > 0, or dj == 0 and
    di > 0), so each pair's pieces are gathered from the shared origin walk
    of its displacement and shifted onto a. A piece holds its length, its
    pair and both of its cells as int32 indices into the padded weight grid
    (_padded_weights): 20 bytes. A window over MAX_HOP_PIECES pieces is
    refused.
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
        cells_a = np.concatenate([w.cells_a for w in walks])
        cells_b = np.concatenate([w.cells_b for w in walks])
        _check_padding(tess, dj[first], di[first], starts, cells_a, cells_b)

        per_pair = counts[inverse]
        pair_idx = np.repeat(np.arange(len(ai), dtype=np.int32), per_pair)
        # a pair's pieces are its walk's pieces in order, so each pair's block
        # of the table maps onto its walk's block of the concatenated walks
        offset = starts[inverse] - (np.cumsum(per_pair) - per_pair)
        src = np.repeat(offset.astype(np.int32), per_pair)
        src += np.arange(len(src), dtype=np.int32)
        # a cell's index is its origin walk's index plus its pair's first corner's
        width = self.cols + 2 * _PAD_COLS
        shift = np.repeat(_flat_cells(self.cols, cj[ai], ci[ai]).astype(np.int32), per_pair)

        self.n_corners = n
        self.pairs = np.stack((ai, bi), axis=1).astype(np.int32)
        self.pair_idx = pair_idx
        self.lengths = np.concatenate([w.lengths for w in walks])[src]
        self.flat_a = (cells_a[:, 0] * width + cells_a[:, 1])[src]
        self.flat_a += shift
        self.flat_b = (cells_b[:, 0] * width + cells_b[:, 1])[src]
        self.flat_b += shift

    def cost_matrix(self, weights: WeightMap) -> np.ndarray:
        """Dense symmetric matrix of straight-hop costs between all corners."""
        if (weights.rows, weights.cols) != (self.rows, self.cols):
            raise ValueError("weight map shape does not match the table")
        padded = _padded_weights(weights)
        contrib = np.minimum(padded[self.flat_a], padded[self.flat_b]) * self.lengths
        per_pair = np.bincount(self.pair_idx, weights=contrib, minlength=len(self.pairs))
        m = np.zeros((self.n_corners, self.n_corners))
        ai, bi = self.pairs[:, 0], self.pairs[:, 1]
        m[ai, bi] = per_pair
        m[bi, ai] = per_pair
        return m


def _check_padding(tess, dj, di, starts, cells_a, cells_b) -> None:
    """Refuse walks whose shifted cells could leave the padded weight grid.

    A cell outside it would get the flat index of another cell. Each walk's
    cell range is shifted by the range of first corners a pair with its
    displacement can have: rows 0..rows - dj, columns max(0, -di)..cols + 1
    - max(0, di), since the corners fill the grid 0 <= j <= rows,
    0 <= i <= cols + 1 at even i + j (Tessellation.valid_corner).
    """
    lo = np.minimum.reduceat(np.minimum(cells_a, cells_b), starts)
    hi = np.maximum.reduceat(np.maximum(cells_a, cells_b), starts)
    first_row, last_row = lo[:, 0], hi[:, 0] + tess.rows - dj
    first_col = lo[:, 1] + np.maximum(0, -di)
    last_col = hi[:, 1] + tess.cols + 1 - np.maximum(0, di)
    if (
        first_row.min() < -_PAD_ROWS
        or last_row.max() >= tess.rows + _PAD_ROWS
        or first_col.min() < -_PAD_COLS
        or last_col.max() >= tess.cols + _PAD_COLS
    ):
        raise RuntimeError(f"a {tess.rows}x{tess.cols} hop walk leaves the padded weight grid")


# Tables kept per window shape, least recently used first. A table holds
# every pair's pieces, O(n_corners^2 * walk length) memory, so only a few stay
# resident; rebuilding an evicted one costs gathers from the walk cache.
HOP_TABLE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=HOP_TABLE_CACHE_SIZE)
def corner_hop_table(tess: Tessellation) -> CornerHopTable:
    """Shared per-shape table; window shape fully determines the geometry."""
    return CornerHopTable(tess)
