"""Triangle lattice geometry.

Corners are indexed by integer pairs (i, j) with i + j even and sit at
(i, j * sqrt(3)); every triangle side has length 2. Cells are indexed by
(row, col) and point upward when row + col is even, downward otherwise.

Points are located in the frame rho = y / sqrt(3), u = x - rho,
v = x + rho. Corner (i, j) is (rho, u, v) = (j, i - j, i + j). Lattice
lines sit at integer rho (horizontal) and at even u and even v (the two
diagonal families); a point lies |rho - k| * sqrt(3) from the line
rho = k and |u - k| * sqrt(3) / 2 from the line u = k, and likewise for v.
A point inside a cell lies in cell (floor(rho), floor(u / 2) + floor(v / 2)).
locate_point(p, tol) answers in this order of precedence: the corner
within tol of p, else every edge whose closed segment lies within tol,
else the cell. The tolerance is an argument: the analysis locates the
points of SP's walk at EPS_GEO.

segment_walk, the one walker, cuts a segment where it crosses lattice
lines. One on a line is cut by the other two families, which meet it only
at its corners, and snaps those events to the corners at 2 * EPS_GEO. The
snap asks only locate_point's first question, whether a corner lies
within the tolerance.

Geometric predicates, locate_point among them, work on the unbounded
lattice; the Tessellation class adds the rows x cols window of cells that
may carry weight.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

SQRT3 = math.sqrt(3.0)

# Geometry tolerance in plane units; the shortest lattice feature has size 1.
EPS_GEO = 1e-9

Corner = Tuple[int, int]
Cell = Tuple[int, int]
Edge = Tuple[Corner, Corner]
Point = Tuple[float, float]

INTERIOR_CROSSING = "interior-crossing"
EDGE_COLLINEAR = "edge-collinear"

# Longest walk traced, in pieces of about 500 bytes and 5 us each: 100,000
# take about 50 MB and half a second. The three line families lie sqrt(3)
# apart, so a segment n cell sides long crosses at most 4n / sqrt(3) + 3 lines
# and one up to about 40,000 sides long is admitted; a hop table's walks span
# a window and need a few hundred at most.
MAX_WALK_PIECES = 100_000

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


# The three families of lattice lines in the (rho, u, v) frame: lines sit at
# multiples of the step, and a unit of the coordinate spans this plane distance.
_FAMILIES = (("rho", 1, SQRT3), ("u", 2, SQRT3 / 2.0), ("v", 2, SQRT3 / 2.0))


def _affine(p: Point) -> Tuple[float, float, float]:
    """Map a point to (rho, u, v); lattice lines sit at integer rho and even u, v."""
    x, y = p
    rho = y / SQRT3
    return (rho, x - rho, x + rho)


def locate_point(p: Point, tol: float):
    """Where p sits: ("corner", corner), ("edges", edges) or ("cell", cell).

    A corner within Euclidean distance tol wins. Otherwise the answer is
    every lattice edge whose closed segment lies within tol, sorted by the
    (j, i) of their ends, and otherwise the cell whose interior holds p.
    The window plays no part.
    """
    corner = _corner_within(p, tol)
    if corner is not None:
        return ("corner", corner)
    rho, u, v = _affine(p)
    edges = []
    for (fam, step, scale), a in zip(_FAMILIES, (rho, u, v)):
        k = step * round(a / step)
        if abs(a - k) * scale <= tol:
            edges.append(_edge_on_line(fam, k, p))
    if edges:
        return ("edges", tuple(sorted(edges, key=lambda e: (e[0][1], e[0][0], e[1][1], e[1][0]))))
    return ("cell", _cell_at(rho, u, v))


def _corner_within(p: Point, tol: float) -> Optional[Corner]:
    """The corner at p's rounded x and rho, if it is one and lies within
    Euclidean distance tol of p. locate_point and the walker's snap both
    ask this first."""
    i, j = round(p[0]), round(p[1] / SQRT3)
    if (i + j) % 2 == 0 and math.dist(p, (i, j * SQRT3)) <= tol:
        return (i, j)
    return None


def _cell_at(rho: float, u: float, v: float) -> Cell:
    """The cell whose interior holds the point (rho, u, v)."""
    return (math.floor(rho), math.floor(u / 2.0) + math.floor(v / 2.0))


def _edge_on_line(fam: str, k: int, p: Point) -> Edge:
    """The lattice edge of line (fam, k) that holds p's projection onto the line.

    If p lies within some tol of the line but of no corner, this is the
    line's only edge within tol: any other edge is nearest p at a corner.
    """
    if fam == "rho":
        i0 = math.floor(p[0])
        if (i0 + k) % 2:
            i0 -= 1
        return ((i0, k), (i0 + 2, k))
    # with u = x - rho and v = x + rho, stepping straight onto the line moves
    # rho by (u - k) / 4 for a u line and by (k - v) / 4 for a v line
    rho = p[1] / SQRT3
    if fam == "u":
        j0 = math.floor(rho + (p[0] - rho - k) / 4.0)
        return ((k + j0, j0), (k + j0 + 1, j0 + 1))
    j0 = math.floor(rho - (p[0] + rho - k) / 4.0)
    return ((k - j0, j0), (k - j0 - 1, j0 + 1))


def _collinear_lattice_line(p: Point, q: Point) -> Optional[Tuple[str, int]]:
    for (fam, step, scale), a, b in zip(_FAMILIES, _affine(p), _affine(q)):
        tol = EPS_GEO / scale
        k = step * round(a / step)
        if abs(a - k) <= tol and abs(b - k) <= tol:
            return (fam, k)
    return None


def _lerp(p: Point, q: Point, t: float) -> Point:
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _multiples_between(a: float, b: float, step: int) -> int:
    """How many multiples of step lie between a and b, ends included."""
    lo, hi = (a, b) if a < b else (b, a)
    return max(0, math.floor(hi / step) - math.ceil(lo / step) + 1)


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

    Returns one record per maximal piece, in traversal order. The segment
    is cut where it crosses lattice lines, but not those of the family of a
    line it lies within EPS_GEO of: the other two meet that line only at its
    corners. Inner events snap to a corner within EPS_GEO, or 2 * EPS_GEO on
    a line, where a crossing may sit 2 / sqrt(3) * EPS_GEO from its corner.
    Pieces of at most EPS_GEO are dropped and p and q are kept exact. A
    non-finite endpoint coordinate raises ValueError, and so does a segment
    whose lattice-line crossings, counted in closed form before any is
    traced, would make more than MAX_WALK_PIECES pieces. Records hold
    Python floats, whatever numeric type p and q have.
    """
    p, q = (float(p[0]), float(p[1])), (float(q[0]), float(q[1]))
    length = math.dist(p, q)
    if not math.isfinite(length):
        raise ValueError(f"segment endpoints must be finite: {p!r}, {q!r}")
    if length <= EPS_GEO:
        return []
    line = _collinear_lattice_line(p, q)
    cut_by = [
        (a, b, step)
        for (fam, step, _), a, b in zip(_FAMILIES, _affine(p), _affine(q))
        if line is None or fam != line[0]
    ]
    # each crossing starts at most one piece, so this bounds the walk
    if 1 + sum(_multiples_between(*family) for family in cut_by) > MAX_WALK_PIECES:
        raise ValueError(
            f"segment from {p!r} to {q!r} crosses more lattice lines than the budget of "
            f"{MAX_WALK_PIECES} walk pieces"
        )
    eps_t = EPS_GEO / length
    ts = [0.0, 1.0]
    for a, b, step in cut_by:
        ts.extend(_line_crossings(a, b, step, eps_t))
    snap = EPS_GEO if line is None else 2.0 * EPS_GEO
    records = []
    for entry, exit_, mid in _pieces(p, q, _merged_events(ts, eps_t), snap):
        if line is None:
            records.append(WalkRecord(_cell_at(*_affine(mid)), entry, exit_, INTERIOR_CROSSING))
        else:
            edge = _edge_on_line(*line, mid)
            records.append(WalkRecord(edge_cells(edge)[0], entry, exit_, EDGE_COLLINEAR, edge))
    return records


def _pieces(p: Point, q: Point, events: List[float], snap: float):
    """(entry, exit, midpoint) of each piece between events longer than EPS_GEO.

    Inner event points within snap of a corner snap to it; p and q stay exact.
    """
    points = [p]
    for t in events[1:-1]:
        point = _lerp(p, q, t)
        corner = _corner_within(point, snap)
        points.append(point if corner is None else corner_position(corner))
    points.append(q)
    return [
        (a, b, ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
        for a, b in zip(points, points[1:])
        if math.dist(a, b) > EPS_GEO
    ]


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
        """True when the corner touches at least one in-window cell.

        Corner (i, j) touches the cells of rows j - 1 and j and columns
        i - 2 to i, so the window's corners are the (i, j) with i + j even
        in the (rows + 1) x (cols + 2) grid 0 <= j <= rows, 0 <= i <= cols + 1.
        """
        i, j = corner
        return (i + j) % 2 == 0 and 0 <= j <= self.rows and 0 <= i <= self.cols + 1

    @cached_property
    def cells(self) -> Tuple[Cell, ...]:
        return tuple(
            (row, col) for row in range(self.rows) for col in range(self.cols)
        )

    @cached_property
    def corners(self) -> Tuple[Corner, ...]:
        """All corners of in-window cells, sorted by (j, i); see valid_corner."""
        return tuple(
            (i, j) for j in range(self.rows + 1) for i in range(j % 2, self.cols + 2, 2)
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
