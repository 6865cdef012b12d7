"""Checks made apart from trigrid, run on every timed result.

Nothing here imports trigrid. The lattice convention is re-derived from the
documented one: corner (i, j), with i + j even, sits at (i, j * sqrt(3));
cell (row, col) points upward when row + col is even. Grid costs come from
scipy's Dijkstra over the 6-neighbour corner graph with min-rule edge
weights. Every check returns a list of messages; an empty list means pass.
"""

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

SQRT3 = math.sqrt(3.0)
BOUND = 2.0 / SQRT3
RATIO_TOL = 1e-9
REL_TOL = 1e-9

Corner = Tuple[int, int]


def cell_vertices(row: int, col: int) -> Tuple[Corner, Corner, Corner]:
    if (row + col) % 2 == 0:
        return ((col, row), (col + 2, row), (col + 1, row + 1))
    return ((col + 1, row), (col, row + 1), (col + 2, row + 1))


def position(corner: Corner) -> Tuple[float, float]:
    return (float(corner[0]), corner[1] * SQRT3)


class Window:
    """One weight grid seen through the benchmark's own lattice code."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=float)
        self.rows, self.cols = self.values.shape
        finite = self.values[np.isfinite(self.values)]
        self.w_min = float(finite.min()) if finite.size else math.inf
        corners = set()
        edges: Dict[Tuple[Corner, Corner], float] = {}
        for row in range(self.rows):
            for col in range(self.cols):
                verts = cell_vertices(row, col)
                corners.update(verts)
                w = float(self.values[row, col])
                if math.isinf(w):
                    continue
                for a, b in ((verts[0], verts[1]), (verts[1], verts[2]), (verts[0], verts[2])):
                    key = (a, b) if a < b else (b, a)
                    edges[key] = min(edges.get(key, math.inf), w)
        self.corners = sorted(corners, key=lambda c: (c[1], c[0]))
        self.index = {c: k for k, c in enumerate(self.corners)}
        self.finite_edges = len(edges)
        n = len(self.corners)
        rows_idx = [self.index[a] for a, _ in edges]
        cols_idx = [self.index[b] for _, b in edges]
        data = [2.0 * w for w in edges.values()]
        self._graph = csr_matrix((data, (rows_idx, cols_idx)), shape=(n, n))

    def grid_cost(self, s: Corner, t: Corner) -> float:
        dist = dijkstra(self._graph, directed=False, indices=self.index[s])
        return float(dist[self.index[t]])

    def steiner_nodes(self, level: int) -> int:
        return len(self.corners) + self.finite_edges * (2 ** level - 1)

    def in_window(self, p: Tuple[float, float], eps: float = 1e-9) -> bool:
        """True when p lies in a closed in-window cell."""
        x, y = p
        u = y / SQRT3
        for row in {math.floor(u - eps), math.floor(u + eps)}:
            if not 0 <= row < self.rows:
                continue
            for col in range(math.floor(x) - 2, math.floor(x) + 2):
                if 0 <= col < self.cols and _in_triangle(p, cell_vertices(row, col), eps):
                    return True
        return False

    def segment_inside(self, s: Corner, t: Corner) -> bool:
        """True when the straight segment from s to t stays in the window.

        The segment is cut where it meets lattice lines; each piece then
        lies in one cell or along one edge, so testing its midpoint decides it.
        """
        (px, py), (qx, qy) = position(s), position(t)
        ts = {0.0, 1.0}
        for a, b, step in (
            (py / SQRT3, qy / SQRT3, 1),
            (px - py / SQRT3, qx - qy / SQRT3, 2),
            (px + py / SQRT3, qx + qy / SQRT3, 2),
        ):
            if abs(b - a) < 1e-12:
                continue
            lo, hi = min(a, b), max(a, b)
            k = math.ceil(lo / step) * step
            while k <= hi:
                ts.add((k - a) / (b - a))
                k += step
        cuts = sorted(t for t in ts if 0.0 <= t <= 1.0)
        for t0, t1 in zip(cuts, cuts[1:]):
            if t1 - t0 < 1e-12:
                continue
            m = 0.5 * (t0 + t1)
            if not self.in_window((px + m * (qx - px), py + m * (qy - py))):
                return False
        return True


def _in_triangle(p, verts: Sequence[Corner], eps: float) -> bool:
    (ax, ay), (bx, by), (cx, cy) = (position(v) for v in verts)
    x, y = p
    det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
    l1 = ((by - cy) * (x - cx) + (cx - bx) * (y - cy)) / det
    l2 = ((cy - ay) * (x - cx) + (ax - cx) * (y - cy)) / det
    return l1 >= -eps and l2 >= -eps and 1.0 - l1 - l2 >= -eps


# -- checks -----------------------------------------------------------------


def close(name: str, got: float, want: float) -> List[str]:
    if abs(got - want) <= REL_TOL * abs(want):
        return []
    return [f"{name} {got!r} differs from {want!r}"]


def ordered(sp: float, svp: float, sgp: float) -> List[str]:
    out = []
    if sp > svp * (1.0 + REL_TOL):
        out.append(f"sp {sp!r} above svp {svp!r}")
    if svp > sgp * (1.0 + REL_TOL):
        out.append(f"svp {svp!r} above sgp {sgp!r}")
    return out


def ratios(sp: float, svp: float, sgp: float) -> List[str]:
    out = []
    for name, num, den in (("sgp/sp", sgp, sp), ("svp/sp", svp, sp), ("sgp/svp", sgp, svp)):
        if num / den > BOUND + RATIO_TOL:
            out.append(f"{name} {num / den!r} above 2/sqrt(3)")
    return out


def lower_bound(name: str, cost: float, w_min: float, dist: float) -> List[str]:
    if cost >= w_min * dist * (1.0 - REL_TOL):
        return []
    return [f"{name} {cost!r} below w_min*|s-t| = {w_min * dist!r}"]


def levels(costs: Dict[int, float], svp: float) -> List[str]:
    """Steiner costs by level: level 0 equals SVP, and no level rises."""
    out = []
    if 0 in costs:
        out += close("level-0 cost", costs[0], svp)
    seq = sorted(costs.items())
    for (la, ca), (lb, cb) in zip(seq, seq[1:]):
        if cb > ca * (1.0 + REL_TOL):
            out.append(f"level {lb} cost {cb!r} above level {la} cost {ca!r}")
    return out


def report_extras(
    sgp: float, sp: float, x_cost: float, max_ratio: float, histogram, n_polygons: int
) -> List[str]:
    out = []
    if sgp > x_cost * (1.0 + REL_TOL):
        out.append(f"sgp {sgp!r} above crossing-path cost {x_cost!r}")
    if x_cost / sp > max_ratio + RATIO_TOL:
        out.append(f"x/sp {x_cost / sp!r} above max polygon ratio {max_ratio!r}")
    if sum(histogram) != n_polygons:
        out.append(f"histogram sums to {sum(histogram)}, not {n_polygons} polygons")
    return out


def strip(k: int, sgp: float, svp: float, sp_by_level: Dict[int, float]) -> List[str]:
    out = close("strip sgp", sgp, 4.0 * k) + close("strip svp", svp, 2.0 * SQRT3 * k)
    for level, cost in sp_by_level.items():
        if level >= 1:
            out += close(f"strip sp L{level}", cost, 2.0 * SQRT3 * k)
    return out


def uniform(omega: float, dist: float, svp: float, sp_by_level: Dict[int, float]) -> List[str]:
    out = close("uniform svp", svp, omega * dist)
    for level, cost in sp_by_level.items():
        out += close(f"uniform sp L{level}", cost, omega * dist)
    return out


# -- self-test --------------------------------------------------------------


def self_test(grid_path_cost) -> List[str]:
    """Every check must pass a good value and reject a perturbed one.

    grid_path_cost(values, s, t) is the program's SGP cost, used once on a
    strip so that the reference Dijkstra is also compared with a real answer.
    """
    failures = []

    def expect(label, good, bad):
        if good:
            failures.append(f"{label}: rejected a good value: {good}")
        if not bad:
            failures.append(f"{label}: accepted a perturbed value")

    k = 3
    values = np.array([[math.inf, 1.0, math.inf] for _ in range(2 * k)])
    win = Window(values)
    s, t = (2, 0), (2, 2 * k)
    ref = win.grid_cost(s, t)
    sgp = grid_path_cost(values, s, t)
    expect("reference dijkstra", close("ref", ref, 4.0 * k), close("ref", ref * (1 + 1e-6), 4.0 * k))
    expect("sgp vs reference", close("sgp", sgp, ref), close("sgp", sgp * (1 + 1e-6), ref))
    h = 2.0 * SQRT3 * k
    expect("strip forms", strip(k, 4.0 * k, h, {1: h, 5: h}), strip(k, 4.0 * k, h, {3: h * (1 + 1e-6)}))
    expect("ordering", ordered(1.0, 1.05, 1.1), ordered(1.0, 1.2, 1.1))
    expect("ratios", ratios(1.0, BOUND, BOUND), ratios(1.0, 1.0, BOUND + 1e-8))
    expect("lower bound", lower_bound("c", 2.0, 0.5, 4.0), lower_bound("c", 2.0 * (1 - 1e-6), 0.5, 4.0))
    expect("levels", levels({0: 3.0, 3: 2.0, 4: 2.0, 5: 1.5}, 3.0), levels({0: 3.0, 3: 2.0, 4: 2.0001}, 3.0))
    expect("level 0 is svp", levels({0: 3.0}, 3.0), levels({0: 3.0}, 3.0 * (1 + 1e-6)))
    expect(
        "report extras",
        report_extras(1.1, 1.0, 1.2, 1.2, (1, 2, 0, 0, 0, 0), 3),
        report_extras(1.1, 1.0, 1.2, 1.2, (1, 2, 0, 0, 0, 0), 4),
    )
    expect("sgp above x", [], report_extras(1.2 * (1 + 1e-6), 1.0, 1.2, 1.3, (1,), 1))
    expect("x/sp above max", [], report_extras(1.1, 1.0, 1.2, 1.2 - 1e-6, (1,), 1))
    expect("uniform forms", uniform(2.0, 3.0, 6.0, {2: 6.0}), uniform(2.0, 3.0, 6.0, {2: 6.0 * (1 + 1e-6)}))
    open_window = Window(np.ones((4, 5)))
    inside = open_window.segment_inside((0, 0), (6, 4))
    # from (0, 0) up to (0, 4) the segment leaves through the notch at row 1
    outside = open_window.segment_inside((0, 0), (0, 4))
    expect("segment inside", [] if inside else ["inside segment judged outside"], [] if outside else ["x"])
    return failures
