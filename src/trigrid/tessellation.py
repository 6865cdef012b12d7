"""Triangle lattice geometry.

Corners are indexed by integer pairs (i, j) with i + j even and sit at
(i, j * sqrt(3)); every triangle side has length 2. Cells are indexed by
(row, col) and point upward when row + col is even, downward otherwise.
Geometric predicates work on the unbounded lattice; the Tessellation class
adds the rows x cols window of cells that may carry weight.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0

# Geometry tolerance in plane units; the shortest lattice feature has size 1.
EPS_GEO = 1e-9

Corner = Tuple[int, int]
Cell = Tuple[int, int]
Edge = Tuple[Corner, Corner]
Point = Tuple[float, float]

INTERIOR_CROSSING = "interior-crossing"
EDGE_COLLINEAR = "edge-collinear"

# Steps to the six adjacent corners, in counterclockwise angular order
# starting from the +x direction.
CORNER_STEPS_CCW = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))


class WalkRecord(NamedTuple):
    """One maximal piece of a segment walk.

    A piece either crosses the interior of a single cell or runs along a
    single lattice edge. Collinear pieces keep the edge they follow; their
    cell field is the lower (row, col) of the two incident cells and is only
    a deterministic representative, pricing must consult both sides.
    """

    cell: Cell
    entry: Point
    exit: Point
    kind: str
    edge: Optional[Edge] = None


def corner_position(corner: Corner) -> Point:
    """Plane position of a lattice corner."""
    i, j = corner
    if (i + j) % 2:
        raise ValueError(f"not a lattice corner: {corner!r}")
    return (float(i), j * SQRT3)


def is_upward(cell: Cell) -> bool:
    row, col = cell
    return (row + col) % 2 == 0


def cell_vertices(cell: Cell) -> Tuple[Corner, Corner, Corner]:
    """The three corners of a cell, in clockwise order."""
    row, col = cell
    if is_upward(cell):
        return ((col, row), (col + 1, row + 1), (col + 2, row))
    return ((col + 1, row), (col, row + 1), (col + 2, row + 1))


def edge_key(a: Corner, b: Corner) -> Edge:
    """Canonical form of the edge between two adjacent corners."""
    return (a, b) if (a[1], a[0]) < (b[1], b[0]) else (b, a)


def cell_edges(cell: Cell) -> Tuple[Edge, Edge, Edge]:
    a, b, c = cell_vertices(cell)
    return (edge_key(a, b), edge_key(b, c), edge_key(c, a))


def edge_cells(edge: Edge) -> Tuple[Cell, Cell]:
    """Both lattice cells incident to an edge, sorted by (row, col)."""
    (i1, j1), (i2, j2) = edge_key(*edge)
    if (i1 + j1) % 2 or (i2 + j2) % 2:
        raise ValueError(f"not a lattice edge: {edge!r}")
    if j2 == j1 and i2 == i1 + 2:
        pair = ((j1, i1), (j1 - 1, i1))  # horizontal: up above, down below
    elif j2 == j1 + 1 and i2 == i1 + 1:
        pair = ((j1, i1), (j1, i1 - 1))  # rising diagonal
    elif j2 == j1 + 1 and i2 == i1 - 1:
        pair = ((j1, i1 - 2), (j1, i1 - 1))  # falling diagonal
    else:
        raise ValueError(f"not a lattice edge: {edge!r}")
    return tuple(sorted(pair))


def corner_cells(corner: Corner) -> Tuple[Cell, ...]:
    """The six lattice cells meeting at a corner, sorted by (row, col)."""
    i, j = corner
    if (i + j) % 2:
        raise ValueError(f"not a lattice corner: {corner!r}")
    return (
        (j - 1, i - 2), (j - 1, i - 1), (j - 1, i),
        (j, i - 2), (j, i - 1), (j, i),
    )


def adjacent_corners(corner: Corner) -> Tuple[Corner, ...]:
    """The six lattice neighbours of a corner, sorted by (j, i)."""
    i, j = corner
    return (
        (i - 1, j - 1), (i + 1, j - 1),
        (i - 2, j), (i + 2, j),
        (i - 1, j + 1), (i + 1, j + 1),
    )


def are_adjacent(a: Corner, b: Corner) -> bool:
    di, dj = b[0] - a[0], b[1] - a[1]
    return (abs(di), abs(dj)) in ((2, 0), (1, 1))


def _affine(p: Point) -> Tuple[float, float, float]:
    """Map a point to (rho, u, v); lattice lines sit at integer rho and even u, v."""
    x, y = p
    rho = y / SQRT3
    return (rho, x - rho, x + rho)


def _cell_margin(cell: Cell, rho: float, u: float, v: float) -> float:
    """Smallest signed distance from the point to the cell's supporting lines."""
    row, col = cell
    if is_upward(cell):
        return min(
            (rho - row) * SQRT3,
            (u - (col - row)) * HALF_SQRT3,
            ((col + 2 + row) - v) * HALF_SQRT3,
        )
    return min(
        ((row + 1) - rho) * SQRT3,
        ((col + 1 - row) - u) * HALF_SQRT3,
        (v - (col + 1 + row)) * HALF_SQRT3,
    )


def _locate_cell(p: Point) -> Cell:
    """Lattice cell containing p, chosen by maximum boundary clearance."""
    rho, u, v = _affine(p)
    row0 = math.floor(rho)
    col0 = math.floor(p[0])
    best = None
    best_margin = -math.inf
    for row in (row0 - 1, row0, row0 + 1):
        for col in range(col0 - 2, col0 + 2):
            margin = _cell_margin((row, col), rho, u, v)
            if margin > best_margin:
                best, best_margin = (row, col), margin
    return best


def _nearest_corner(p: Point) -> Optional[Corner]:
    i, j = round(p[0]), round(p[1] / SQRT3)
    if (i + j) % 2 == 0 and math.dist(p, (i, j * SQRT3)) <= EPS_GEO:
        return (i, j)
    return None


def _snap_corner(p: Point) -> Point:
    corner = _nearest_corner(p)
    return corner_position(corner) if corner is not None else p


def _nearest_edge(p: Point) -> Optional[Edge]:
    """Edge whose line passes within EPS_GEO of p; p must not sit at a corner."""
    rho, u, v = _affine(p)
    if abs(rho - round(rho)) * SQRT3 <= EPS_GEO:
        return _edge_on_line("rho", round(rho), p)
    for fam, val in (("u", u), ("v", v)):
        k = 2 * round(val / 2.0)
        if abs(val - k) * HALF_SQRT3 <= EPS_GEO:
            return _edge_on_line(fam, k, p)
    return None


def _edge_on_line(fam: str, k: int, p: Point) -> Edge:
    """The lattice edge of line (fam, k) whose span contains p."""
    if fam == "rho":
        i0 = math.floor(p[0])
        if (i0 + k) % 2:
            i0 -= 1
        return ((i0, k), (i0 + 2, k))
    j0 = math.floor(p[1] / SQRT3)
    if fam == "u":
        return ((k + j0, j0), (k + j0 + 1, j0 + 1))
    return ((k - j0, j0), (k - j0 - 1, j0 + 1))


def _collinear_lattice_line(p: Point, q: Point) -> Optional[Tuple[str, int]]:
    (rp, up, vp), (rq, uq, vq) = _affine(p), _affine(q)
    for fam, a, b, tol, step in (
        ("rho", rp, rq, EPS_GEO / SQRT3, 1),
        ("u", up, uq, EPS_GEO / HALF_SQRT3, 2),
        ("v", vp, vq, EPS_GEO / HALF_SQRT3, 2),
    ):
        k = step * round(a / step)
        if abs(a - k) <= tol and abs(b - k) <= tol:
            return (fam, k)
    return None


def _lerp(p: Point, q: Point, t: float) -> Point:
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _line_crossings(a: float, b: float, step: int, eps_t: float) -> List[float]:
    """Parameters where a + t*(b - a) hits multiples of step, clamped to [0, 1]."""
    if abs(b - a) < 1e-15:
        return []
    lo, hi = (a, b) if a < b else (b, a)
    k = step * math.ceil(lo / step)
    out = []
    while k <= hi:
        t = (k - a) / (b - a)
        if -eps_t < t < 1.0 + eps_t:
            out.append(min(1.0, max(0.0, t)))
        k += step
    return out


def _merged_events(ts: List[float], eps_t: float) -> List[float]:
    """Cluster sorted parameters closer than eps_t; endpoint clusters clamp."""
    ts = sorted(ts)
    reps: List[float] = []
    start = 0
    for idx in range(1, len(ts) + 1):
        if idx == len(ts) or ts[idx] - ts[idx - 1] > eps_t:
            group = ts[start:idx]
            if group[0] <= 0.0:
                reps.append(0.0)
            elif group[-1] >= 1.0:
                reps.append(1.0)
            else:
                reps.append(math.fsum(group) / len(group))
            start = idx
    if reps[0] != 0.0:
        reps.insert(0, 0.0)
    if reps[-1] != 1.0:
        reps.append(1.0)
    return reps


def segment_walk(p: Point, q: Point) -> List[WalkRecord]:
    """Trace a straight segment through the lattice.

    Returns one record per maximal piece, in traversal order. Event points
    within EPS_GEO of a corner are snapped to it and pieces shorter than
    EPS_GEO are dropped, so zero-length pieces never appear. The original
    endpoints are kept exact.
    """
    length = math.dist(p, q)
    if length <= EPS_GEO:
        return []
    line = _collinear_lattice_line(p, q)
    if line is not None:
        return _walk_along_line(p, q, length, line)
    return _walk_across_cells(p, q, length)


def _walk_across_cells(p: Point, q: Point, length: float) -> List[WalkRecord]:
    eps_t = EPS_GEO / length
    (rp, up, vp), (rq, uq, vq) = _affine(p), _affine(q)
    ts = [0.0, 1.0]
    for a, b, step in ((rp, rq, 1), (up, uq, 2), (vp, vq, 2)):
        ts.extend(_line_crossings(a, b, step, eps_t))
    records = []
    events = _merged_events(ts, eps_t)
    for ta, tb in zip(events, events[1:]):
        entry = _snap_corner(_lerp(p, q, ta)) if ta > 0.0 else p
        exit_ = _snap_corner(_lerp(p, q, tb)) if tb < 1.0 else q
        if math.dist(entry, exit_) <= EPS_GEO:
            continue
        mid = ((entry[0] + exit_[0]) / 2.0, (entry[1] + exit_[1]) / 2.0)
        records.append(WalkRecord(_locate_cell(mid), entry, exit_, INTERIOR_CROSSING))
    return records


def _walk_along_line(
    p: Point, q: Point, length: float, line: Tuple[str, int]
) -> List[WalkRecord]:
    fam, k = line
    eps_t = EPS_GEO / length
    dx, dy = q[0] - p[0], q[1] - p[1]
    ts = [0.0, 1.0]
    for corner in _corners_on_line(fam, k, p, q):
        cx, cy = corner_position(corner)
        t = ((cx - p[0]) * dx + (cy - p[1]) * dy) / (length * length)
        if -eps_t < t < 1.0 + eps_t:
            ts.append(min(1.0, max(0.0, t)))
    records = []
    events = _merged_events(ts, eps_t)
    for ta, tb in zip(events, events[1:]):
        entry = _snap_corner(_lerp(p, q, ta)) if ta > 0.0 else p
        exit_ = _snap_corner(_lerp(p, q, tb)) if tb < 1.0 else q
        if math.dist(entry, exit_) <= EPS_GEO:
            continue
        mid = ((entry[0] + exit_[0]) / 2.0, (entry[1] + exit_[1]) / 2.0)
        edge = _edge_on_line(fam, k, mid)
        records.append(WalkRecord(edge_cells(edge)[0], entry, exit_, EDGE_COLLINEAR, edge))
    return records


def _corners_on_line(fam: str, k: int, p: Point, q: Point) -> List[Corner]:
    if fam == "rho":
        lo = math.floor(min(p[0], q[0])) - 1
        hi = math.ceil(max(p[0], q[0])) + 1
        return [(i, k) for i in range(lo, hi + 1) if (i + k) % 2 == 0]
    lo = math.floor(min(p[1], q[1]) / SQRT3) - 1
    hi = math.ceil(max(p[1], q[1]) / SQRT3) + 1
    if fam == "u":
        return [(k + j, j) for j in range(lo, hi + 1)]
    return [(k - j, j) for j in range(lo, hi + 1)]


@dataclass(frozen=True)
class Tessellation:
    """A rows x cols window of lattice cells.

    The window decides which cells belong to the weighted domain and which
    corners are usable as path endpoints; geometry itself is unbounded, so
    walks may report out-of-window cells and callers price those as
    infinitely heavy.
    """

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("tessellation needs at least one row and one column")

    def in_domain(self, cell: Cell) -> bool:
        row, col = cell
        return 0 <= row < self.rows and 0 <= col < self.cols

    def valid_corner(self, corner: Corner) -> bool:
        """True when the corner touches at least one in-window cell."""
        i, j = corner
        if (i + j) % 2:
            return False
        return any(self.in_domain(c) for c in corner_cells(corner))

    @cached_property
    def cells(self) -> Tuple[Cell, ...]:
        return tuple(
            (row, col) for row in range(self.rows) for col in range(self.cols)
        )

    @cached_property
    def corners(self) -> Tuple[Corner, ...]:
        """All corners of in-window cells, sorted by (j, i)."""
        return tuple(
            (i, j)
            for j in range(self.rows + 1)
            for i in range(self.cols + 2)
            if (i + j) % 2 == 0 and self.valid_corner((i, j))
        )

    @cached_property
    def corner_ids(self) -> Dict[Corner, int]:
        return {c: k for k, c in enumerate(self.corners)}

    @cached_property
    def corner_array(self) -> np.ndarray:
        """(n, 2) array of the corners' (i, j), in corner order."""
        return np.array(self.corners, dtype=np.int64).reshape(-1, 2)

    @cached_property
    def corner_grid(self) -> np.ndarray:
        """Corner ids indexed [j, i]; -1 where no window corner sits."""
        grid = np.full((self.rows + 1, self.cols + 2), -1, dtype=np.int64)
        i, j = self.corner_array.T
        grid[j, i] = np.arange(len(i))
        return grid

    def corner_neighbors(self, corner: Corner) -> List[Corner]:
        """Valid grid-graph neighbours of a corner, sorted by (j, i)."""
        return [c for c in adjacent_corners(corner) if self.valid_corner(c)]

    def locate_point(self, p: Point):
        """Classify a point: ('corner', c), ('edge', e), ('cell', c) or ('outside', None).

        Corners win over edges, edges over cell interiors; anything not
        touching an in-window cell is outside.
        """
        corner = _nearest_corner(p)
        if corner is not None:
            if self.valid_corner(corner):
                return ("corner", corner)
            return ("outside", None)
        edge = _nearest_edge(p)
        if edge is not None:
            if any(self.in_domain(c) for c in edge_cells(edge)):
                return ("edge", edge)
            return ("outside", None)
        cell = _locate_cell(p)
        if self.in_domain(cell):
            return ("cell", cell)
        return ("outside", None)
