"""Route-quality analysis for the three path families.

Given an instance and an approximate weighted shortest path, this module
builds the corner path that shadows it, decomposes the region between the
two into pockets around pivot corners, prices each pocket, and checks the
per-pocket and whole-path ratio bounds. It also houses the closed-form
ratio constants and a randomized search for configurations whose corner
path is poor but whose shortcut repair is near-optimal.
"""

import logging
import math
import random
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .grid_paths import shortest_grid_path, shortest_vertex_path
from .metric import WeightMap, grid_edge_cost, polyline_cost, segment_cost
from .oracle import DEFAULT_MAX_LEVEL, DEFAULT_REL_TOL, approx_shortest_path, refine_until
from .tessellation import (
    CORNER_STEPS_CCW,
    EDGE_COLLINEAR,
    EPS_GEO,
    INTERIOR_CROSSING,
    SQRT3,
    Cell,
    Corner,
    Edge,
    Point,
    Tessellation,
    WalkRecord,
    adjacent_corners,
    are_adjacent,
    cell_edges,
    cell_vertices,
    corner_cells,
    corner_position,
    edge_cells,
    edge_key,
    segment_walk,
    _affine,
    _cell_margin,
)

logger = logging.getLogger(__name__)

RATIO_BOUND = 2.0 / SQRT3
RATIO_TOL = 1e-9

SAME_EDGE = "same-edge"
ENDPOINT_PIVOT = "endpoint-pivot"
TO_CORNER = "to-corner"
BETWEEN_EDGES = "between-edges"

# tolerance for points derived from intersections, looser than EPS_GEO
_EPS_ON = 1e-6
# two coincidence events closer than this along a path are the same point
_ARC_TOL = 1e-7


class TopologyError(Exception):
    """The two paths do not relate the way the decomposition requires."""


class DegeneratePolygonError(Exception):
    """A pocket with a zero-cost inner path but a nonzero outer path."""


class EqualizeError(Exception):
    """Weight equalization does not apply to this traversal."""


class MalformedPathError(ValueError):
    """Input polyline violates the boundary-vertex precondition."""


class CrossingSegment(NamedTuple):
    """Corner-path contribution of one cell traversal."""

    cell: Cell
    case: str
    corners: Tuple[Corner, ...]


class CrossingPath(NamedTuple):
    """Corner walk shadowing a polyline, with its per-cell provenance."""

    corners: Tuple[Corner, ...]
    segments: Tuple[CrossingSegment, ...]


class GapPolygon(NamedTuple):
    """Pocket between two consecutive coincidence points.

    kind counts the pivot-incident edges the inner sub-polyline touches;
    shared pockets are the degenerate kind-1 case where both paths run
    together and cut_edges holds only the edge they share.
    """

    kind: int
    pivot: Corner
    sp_points: Tuple[Point, ...]
    x_points: Tuple[Point, ...]
    cut_edges: Tuple[Edge, ...]
    shared: bool


class CoincidenceDecomposition(NamedTuple):
    points: Tuple[Point, ...]
    polygons: Tuple[GapPolygon, ...]
    sp_points: Tuple[Point, ...]
    x: CrossingPath


class PolygonMetrics(NamedTuple):
    """Side lengths of a pocket.

    For kind 2: a and b are the pivot legs, c the straight chord, d and e
    the first and last outer segment lengths. Otherwise a and b are the
    first and last outer segments, c the endpoint separation, d and e the
    first and last inner segments.
    """

    kind: int
    a: float
    b: float
    c: float
    d: float
    e: float


class PolygonRatio(NamedTuple):
    """Priced pocket with its bound checks.

    bound_ok compares the pocket ratio against 2/sqrt(3); for kind 2 it
    uses the better of the outer path and the straight rescue chord and is
    recorded, not asserted. equalized_* are filled only when the kind-2
    weight-equalization hypotheses hold; note says why when they do not.
    """

    kind: int
    pivot: Corner
    ratio: float
    bound_ok: bool
    rescue_ratio: Optional[float] = None
    equalized_ratio: Optional[float] = None
    equalized_ok: Optional[bool] = None
    note: str = ""


class Shortcut(NamedTuple):
    """A cell whose full corner triple appears consecutively in a corner path."""

    cell: Cell
    index: int
    corners: Tuple[Corner, ...]


class RatioReport(NamedTuple):
    sgp_cost: float
    svp_cost: float
    sp_cost: float
    sgp_sp: float
    svp_sp: float
    sgp_svp: float
    x_cost: float
    max_polygon_ratio: float
    histogram: Tuple[int, int, int, int, int, int]
    level: int
    converged: bool
    polygons: Tuple[PolygonRatio, ...]


class AnomalyResult(NamedTuple):
    tess: Tessellation
    weights: WeightMap
    source: Corner
    target: Corner
    sp_cost: float
    x_cost: float
    x_ratio: float
    shortcut_cost: float
    shortcut_ratio: float
    level: int


def law_of_cosines_dist(pv: float, vq: float) -> float:
    """Distance between points at distances pv, vq from a corner, 60 degrees apart."""
    if not (0.0 <= pv <= 2.0 and 0.0 <= vq <= 2.0):
        raise ValueError(f"leg lengths must lie in [0, 2]: {pv!r}, {vq!r}")
    return math.sqrt(pv * pv + vq * vq - pv * vq)


# -- plane geometry helpers ------------------------------------------------


def _seg_point_dist(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    den = dx * dx + dy * dy
    if den <= 1e-24:
        return math.dist(p, a)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / den
    t = min(max(t, 0.0), 1.0)
    return math.dist(p, (ax + t * dx, ay + t * dy))


def _seg_events(a: Point, b: Point, c: Point, d: Point) -> List[Tuple[float, float]]:
    """Intersection parameters (t on ab, s on cd), two entries for overlaps."""
    d1x, d1y = b[0] - a[0], b[1] - a[1]
    d2x, d2y = d[0] - c[0], d[1] - c[1]
    len1 = math.hypot(d1x, d1y)
    len2 = math.hypot(d2x, d2y)
    if len1 <= 1e-12 or len2 <= 1e-12:
        return []
    qpx, qpy = c[0] - a[0], c[1] - a[1]
    cross = d1x * d2y - d1y * d2x
    if abs(cross) <= 1e-12 * len1 * len2:
        if abs(qpx * d1y - qpy * d1x) / len1 > EPS_GEO:
            return []
        inv = 1.0 / (len1 * len1)
        tc = (qpx * d1x + qpy * d1y) * inv
        td = ((d[0] - a[0]) * d1x + (d[1] - a[1]) * d1y) * inv
        lo, hi = min(tc, td), max(tc, td)
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if hi < lo - EPS_GEO / len1:
            return []
        hi = max(hi, lo)

        def back(t: float) -> float:
            return min(max((t - tc) / (td - tc), 0.0), 1.0)

        if hi - lo <= 1e-12:
            return [(lo, back(lo))]
        return [(lo, back(lo)), (hi, back(hi))]
    t = (qpx * d2y - qpy * d2x) / cross
    s = (qpx * d1y - qpy * d1x) / cross
    if -EPS_GEO / len1 <= t <= 1.0 + EPS_GEO / len1 and -EPS_GEO / len2 <= s <= 1.0 + EPS_GEO / len2:
        return [(min(max(t, 0.0), 1.0), min(max(s, 0.0), 1.0))]
    return []


def _seg_seg_dist(a: Point, b: Point, c: Point, d: Point) -> float:
    if _seg_events(a, b, c, d):
        return 0.0
    return min(
        _seg_point_dist(a, c, d),
        _seg_point_dist(b, c, d),
        _seg_point_dist(c, a, b),
        _seg_point_dist(d, a, b),
    )


def _seg_polyline_dist(a: Point, b: Point, pts: Sequence[Point]) -> float:
    if len(pts) == 1:
        return _seg_point_dist(pts[0], a, b)
    return min(_seg_seg_dist(a, b, pts[k], pts[k + 1]) for k in range(len(pts) - 1))


def _point_polyline_dist(p: Point, pts: Sequence[Point]) -> float:
    if len(pts) == 1:
        return math.dist(p, pts[0])
    return min(_seg_point_dist(p, pts[k], pts[k + 1]) for k in range(len(pts) - 1))


def _cum_lengths(pts: Sequence[Point]) -> List[float]:
    cum = [0.0]
    for k in range(len(pts) - 1):
        cum.append(cum[-1] + math.dist(pts[k], pts[k + 1]))
    return cum


def _point_at(pts: Sequence[Point], cum: Sequence[float], arc: float) -> Point:
    if arc <= 0.0:
        return pts[0]
    if arc >= cum[-1]:
        return pts[-1]
    k = 0
    while cum[k + 1] < arc:
        k += 1
    span = cum[k + 1] - cum[k]
    t = (arc - cum[k]) / span if span > 0.0 else 0.0
    a, b = pts[k], pts[k + 1]
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _slice_polyline(
    pts: Sequence[Point], cum: Sequence[float], lo: float, hi: float
) -> Tuple[Point, ...]:
    out = [_point_at(pts, cum, lo)]
    for k in range(1, len(pts) - 1):
        if lo + 1e-9 < cum[k] < hi - 1e-9:
            out.append(pts[k])
    out.append(_point_at(pts, cum, hi))
    return tuple(out)


def _snap_corner_loose(p: Point, tol: float = _EPS_ON) -> Optional[Corner]:
    i, j = round(p[0]), round(p[1] / SQRT3)
    if (i + j) % 2 == 0 and math.dist(p, (i, j * SQRT3)) <= tol:
        return (i, j)
    return None


def _edges_containing(p: Point, tol: float = _EPS_ON):
    """Classify p as a corner or as a point on one or more lattice edges."""
    corner = _snap_corner_loose(p, tol)
    if corner is not None:
        return ("corner", corner)
    i0, j0 = round(p[0]), round(p[1] / SQRT3)
    found: Set[Edge] = set()
    for j in range(j0 - 1, j0 + 2):
        for i in range(i0 - 2, i0 + 3):
            if (i + j) % 2:
                continue
            pos = corner_position((i, j))
            for step in CORNER_STEPS_CCW:
                nbr = (i + step[0], j + step[1])
                if _seg_point_dist(p, pos, corner_position(nbr)) <= tol:
                    found.add(edge_key((i, j), nbr))
    if not found:
        raise MalformedPathError(f"point {p!r} is not on the lattice boundary")
    return ("edges", tuple(sorted(found, key=lambda e: (e[0][1], e[0][0], e[1][1], e[1][0]))))


# -- crossing path ----------------------------------------------------------


def _visit_sequence(
    tess: Tessellation, weights: WeightMap, points: Sequence[Point]
) -> List[WalkRecord]:
    """Cell visits of a polyline: walk pieces with interior runs merged.

    Edge-collinear pieces are reassigned to the cheaper in-window side so
    each visit names the cell whose price the piece actually pays.
    """
    records: List[WalkRecord] = []
    for k in range(len(points) - 1):
        for rec in segment_walk(points[k], points[k + 1]):
            if rec.kind == INTERIOR_CROSSING:
                if (
                    records
                    and records[-1].kind == INTERIOR_CROSSING
                    and records[-1].cell == rec.cell
                ):
                    records[-1] = records[-1]._replace(exit=rec.exit)
                    continue
            else:
                if (
                    records
                    and records[-1].kind == EDGE_COLLINEAR
                    and records[-1].edge == rec.edge
                ):
                    records[-1] = records[-1]._replace(exit=rec.exit)
                    continue
                sides = edge_cells(rec.edge)
                costs = [(weights.effective(c), c) for c in sides]
                rec = rec._replace(cell=min(costs)[1])
            records.append(rec)
    return records


def _corner_at(p: Point, cell: Cell) -> Optional[Corner]:
    for corner in cell_vertices(cell):
        if math.dist(p, corner_position(corner)) <= EPS_GEO:
            return corner
    return None


def _edges_at(p: Point, cell: Cell) -> List[Edge]:
    out = []
    for edge in cell_edges(cell):
        if _seg_point_dist(p, corner_position(edge[0]), corner_position(edge[1])) <= EPS_GEO:
            out.append(edge)
    return out


def _visit_case(visit: WalkRecord) -> CrossingSegment:
    """Resolve one cell visit to its corner-path contribution."""
    cell, a, b = visit.cell, visit.entry, visit.exit
    a_edges, b_edges = _edges_at(a, cell), _edges_at(b, cell)
    common = [e for e in a_edges if e in b_edges]
    if common:
        e = common[0]
        p0, p1 = corner_position(e[0]), corner_position(e[1])
        dx, dy = p1[0] - p0[0], p1[1] - p0[1]
        ta = (a[0] - p0[0]) * dx + (a[1] - p0[1]) * dy
        tb = (b[0] - p0[0]) * dx + (b[1] - p0[1]) * dy
        corners = (e[0], e[1]) if ta <= tb else (e[1], e[0])
        return CrossingSegment(cell, SAME_EDGE, corners)
    va, vb = _corner_at(a, cell), _corner_at(b, cell)
    if va is not None:
        # exit is interior to the edge opposite the entry corner; pick the
        # endpoint right of the entry-to-midpoint ray, midpoint ties included
        e2 = b_edges[0]
        q0, q1 = corner_position(e2[0]), corner_position(e2[1])
        mid = ((q0[0] + q1[0]) / 2.0, (q0[1] + q1[1]) / 2.0)
        dpx, dpy = mid[0] - a[0], mid[1] - a[1]
        side_exit = dpx * (b[1] - a[1]) - dpy * (b[0] - a[0])
        side_q0 = dpx * (q0[1] - a[1]) - dpy * (q0[0] - a[0])
        right, left = (e2[0], e2[1]) if side_q0 < 0.0 else (e2[1], e2[0])
        chosen = right if side_exit >= 0.0 else left
        return CrossingSegment(cell, ENDPOINT_PIVOT, (va, chosen))
    if vb is not None:
        return CrossingSegment(cell, TO_CORNER, (vb,))
    e1, e2 = a_edges[0], b_edges[0]
    shared = set(e1) & set(e2)
    if len(shared) != 1:
        raise TopologyError(f"edges {e1!r} and {e2!r} of cell {cell!r} share no corner")
    return CrossingSegment(cell, BETWEEN_EDGES, (shared.pop(),))


def crossing_path(sp: Sequence[Point], weights: WeightMap, tess: Tessellation) -> CrossingPath:
    """Corner walk shadowing a boundary-to-boundary polyline.

    Every cell visit contributes corners of that cell by a four-way case
    split on where the visit enters and leaves; concatenating the pieces
    yields a walk on adjacent corners from the polyline's first corner to
    its last. Polyline vertices must lie on cell boundaries and the ends
    must be corners.
    """
    if not sp:
        raise MalformedPathError("empty polyline")
    for p in sp:
        _edges_containing(p, EPS_GEO)  # raises off-boundary
    start = _snap_corner_loose(sp[0], EPS_GEO)
    end = _snap_corner_loose(sp[-1], EPS_GEO)
    if start is None or end is None:
        raise MalformedPathError("polyline must start and end at corners")
    visits = _visit_sequence(tess, weights, sp)
    segments = tuple(_visit_case(v) for v in visits)
    corners: List[Corner] = [start]
    for corner in [c for seg in segments for c in seg.corners] + [end]:
        if corner == corners[-1]:
            continue
        if len(corners) >= 2 and corners[-2] == corner:
            # a piece re-listing the edge just walked would bounce the
            # walk off its own last step; cancel instead of backtracking
            corners.pop()
        else:
            corners.append(corner)
    for k in range(len(corners) - 1):
        if not are_adjacent(corners[k], corners[k + 1]):
            raise TopologyError(
                f"corner walk breaks between {corners[k]!r} and {corners[k + 1]!r}"
            )
    return CrossingPath(tuple(corners), segments)


def grid_path_cost(weights: WeightMap, corners: Sequence[Corner]) -> float:
    """Total cost of a walk along lattice edges."""
    return sum(
        grid_edge_cost(weights, corners[k], corners[k + 1])
        for k in range(len(corners) - 1)
        if corners[k] != corners[k + 1]
    )


# -- coincidence decomposition ----------------------------------------------


def _coincidence_arcs(
    sp_pts: Sequence[Point], x_pts: Sequence[Point]
) -> List[Tuple[float, float]]:
    """Arclength pairs where the two polylines meet, ordered along both."""
    sp_cum, x_cum = _cum_lengths(sp_pts), _cum_lengths(x_pts)
    events: List[Tuple[float, float]] = []
    for i in range(len(sp_pts) - 1):
        a, b = sp_pts[i], sp_pts[i + 1]
        la = sp_cum[i + 1] - sp_cum[i]
        if la <= 1e-12:
            continue
        for j in range(len(x_pts) - 1):
            c, d = x_pts[j], x_pts[j + 1]
            lx = x_cum[j + 1] - x_cum[j]
            if lx <= 1e-12:
                continue
            for t, s in _seg_events(a, b, c, d):
                events.append((sp_cum[i] + t * la, x_cum[j] + s * lx))
    if not events:
        raise TopologyError("paths never meet; endpoints should coincide")
    events.sort()
    clusters: List[Tuple[float, List[float]]] = []
    for arc, xarc in events:
        if clusters and arc - clusters[-1][0] <= _ARC_TOL:
            clusters[-1][1].append(xarc)
        else:
            clusters.append((arc, [xarc]))
    out: List[Tuple[float, float]] = []
    prev = -_ARC_TOL
    for idx, (arc, xarcs) in enumerate(clusters):
        xarcs.sort()
        if idx == len(clusters) - 1:
            chosen = xarcs[-1]
            if chosen < prev - _ARC_TOL:
                raise TopologyError("final coincidence point out of order")
        else:
            cands = [v for v in xarcs if v >= prev - _ARC_TOL]
            if not cands:
                raise TopologyError("coincidence points out of order along the corner path")
            chosen = cands[0]
        out.append((arc, max(chosen, prev)))
        prev = max(chosen, prev)
    if out[0][0] > _ARC_TOL or out[0][1] > _ARC_TOL:
        raise TopologyError("paths do not coincide at the source")
    if sp_cum[-1] - out[-1][0] > _ARC_TOL or x_cum[-1] - out[-1][1] > _ARC_TOL:
        raise TopologyError("paths do not coincide at the target")
    return out


def _shared_gap(sp_sub: Sequence[Point], x_sub: Sequence[Point]) -> bool:
    len_sp = _cum_lengths(sp_sub)[-1]
    len_x = _cum_lengths(x_sub)[-1]
    if abs(len_sp - len_x) > _EPS_ON:
        return False
    if any(_point_polyline_dist(p, x_sub) > _EPS_ON for p in sp_sub):
        return False
    return all(_point_polyline_dist(p, sp_sub) <= _EPS_ON for p in x_sub)


def _shared_pivot(sp_sub: Sequence[Point]) -> Tuple[Corner, Tuple[Edge, ...]]:
    a, b = sp_sub[0], sp_sub[1]
    mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    kind, payload = _edges_containing(mid)
    if kind == "corner":
        return payload, ()
    edge = payload[0]
    return edge[0], (edge,)


def _classify(
    sp_sub: Sequence[Point], x_sub: Sequence[Point]
) -> Tuple[int, Corner, Tuple[Edge, ...]]:
    cands: List[Set[Corner]] = []
    for u in (sp_sub[0], sp_sub[-1]):
        kind, payload = _edges_containing(u)
        if kind == "corner":
            cands.append({payload} | set(adjacent_corners(payload)))
        else:
            cands.append({c for e in payload for c in e})
    shared_corners = cands[0] & cands[1]
    if not shared_corners:
        raise TopologyError("pocket endpoints share no corner")
    on_x = {c for p in x_sub for c in [_snap_corner_loose(p)] if c is not None}
    order = sorted(shared_corners, key=lambda c: (c not in on_x, c[1], c[0]))
    for pivot in order:
        pp = corner_position(pivot)
        slots = [
            slot
            for slot, step in enumerate(CORNER_STEPS_CCW)
            if _seg_polyline_dist(
                pp, corner_position((pivot[0] + step[0], pivot[1] + step[1])), sp_sub
            )
            <= _EPS_ON
        ]
        if not slots:
            continue
        k = len(slots)
        if 1 < k < 6:
            gaps = [(slots[(r + 1) % k] - slots[r]) % 6 for r in range(k)]
            if sum(1 for g in gaps if g > 1) != 1:
                continue
            start = slots[(gaps.index(max(gaps)) + 1) % k]
        else:
            start = slots[0]
        ordered = [(start + m) % 6 for m in range(k)]
        edges = tuple(
            edge_key(pivot, (pivot[0] + CORNER_STEPS_CCW[s][0], pivot[1] + CORNER_STEPS_CCW[s][1]))
            for s in ordered
        )
        return k, pivot, edges
    raise TopologyError("pivot-incident edge contacts are not consecutive")


def coincidence_decomposition(
    sp: Sequence[Point], x: CrossingPath, tess: Tessellation
) -> CoincidenceDecomposition:
    """Full pocket decomposition of the region between the two paths."""
    sp_pts = tuple(sp)
    x_pts = tuple(corner_position(c) for c in x.corners)
    arcs = _coincidence_arcs(sp_pts, x_pts)
    sp_cum, x_cum = _cum_lengths(sp_pts), _cum_lengths(x_pts)
    points = tuple(_point_at(sp_pts, sp_cum, arc) for arc, _ in arcs)
    polygons: List[GapPolygon] = []
    for k in range(len(arcs) - 1):
        (lo_sp, lo_x), (hi_sp, hi_x) = arcs[k], arcs[k + 1]
        if hi_sp - lo_sp <= _ARC_TOL and hi_x - lo_x <= _ARC_TOL:
            continue
        sp_sub = _slice_polyline(sp_pts, sp_cum, lo_sp, hi_sp)
        x_sub = _slice_polyline(x_pts, x_cum, lo_x, hi_x)
        if _shared_gap(sp_sub, x_sub):
            pivot, cut = _shared_pivot(sp_sub)
            polygons.append(GapPolygon(1, pivot, sp_sub, x_sub, cut, True))
            continue
        kind, pivot, cut = _classify(sp_sub, x_sub)
        polygons.append(GapPolygon(kind, pivot, sp_sub, x_sub, cut, False))
    return CoincidenceDecomposition(points, tuple(polygons), sp_pts, x)


def polygon_metrics(gap: GapPolygon) -> PolygonMetrics:
    """Side lengths of a pocket; see PolygonMetrics for the field layout."""
    u0, u1 = gap.sp_points[0], gap.sp_points[-1]
    c = math.dist(u0, u1)
    x_first = math.dist(gap.x_points[0], gap.x_points[1]) if len(gap.x_points) > 1 else 0.0
    x_last = math.dist(gap.x_points[-2], gap.x_points[-1]) if len(gap.x_points) > 1 else 0.0
    sp_first = math.dist(gap.sp_points[0], gap.sp_points[1]) if len(gap.sp_points) > 1 else 0.0
    sp_last = math.dist(gap.sp_points[-2], gap.sp_points[-1]) if len(gap.sp_points) > 1 else 0.0
    if gap.kind == 2:
        pv = corner_position(gap.pivot)
        return PolygonMetrics(2, math.dist(u0, pv), math.dist(pv, u1), c, x_first, x_last)
    return PolygonMetrics(gap.kind, x_first, x_last, c, sp_first, sp_last)


# -- composed and shortcut paths --------------------------------------------


def compose_grid_path(
    s: Corner, vs: Sequence[Corner], t: Corner, x: CrossingPath
) -> Tuple[Corner, ...]:
    """Corner walk built from x's prefix to vs[0], vs itself, and x's suffix.

    vs must be a walk on adjacent corners whose ends appear on x; the
    prefix ends at the first occurrence of vs[0] and the suffix starts at
    the last occurrence of vs[-1].
    """
    vs = tuple(vs)
    if not vs:
        raise ValueError("replacement walk is empty")
    for k in range(len(vs) - 1):
        if not are_adjacent(vs[k], vs[k + 1]):
            raise ValueError(f"replacement corners {vs[k]!r}, {vs[k + 1]!r} not adjacent")
    corners = x.corners
    if corners[0] != s or corners[-1] != t:
        raise ValueError("crossing path does not run between the given endpoints")
    try:
        i1 = corners.index(vs[0])
        i2 = len(corners) - 1 - corners[::-1].index(vs[-1])
    except ValueError:
        raise ValueError("replacement endpoints do not appear on the crossing path")
    if i2 < i1:
        raise ValueError("replacement endpoints out of order on the crossing path")
    merged = list(corners[: i1 + 1]) + list(vs[1:]) + list(corners[i2 + 1 :])
    out: List[Corner] = [merged[0]]
    for corner in merged[1:]:
        if corner != out[-1]:
            out.append(corner)
    return tuple(out)


def shortcut_paths(x: CrossingPath, tess: Tessellation) -> Tuple[Shortcut, ...]:
    """One shortcut per in-window cell whose corner triple sits consecutively in x."""
    out: List[Shortcut] = []
    cs = x.corners
    for idx in range(len(cs) - 2):
        triple = {cs[idx], cs[idx + 1], cs[idx + 2]}
        if len(triple) < 3:
            continue
        for cell in corner_cells(cs[idx + 1]):
            if set(cell_vertices(cell)) == triple:
                if tess.in_domain(cell):
                    out.append(Shortcut(cell, idx, cs[: idx + 1] + cs[idx + 2 :]))
                break
    return tuple(out)


# -- weight equalization -----------------------------------------------------


def _traversed_cells(tess: Tessellation, points: Sequence[Point]) -> Set[Cell]:
    """In-window cells a polyline pays for: interiors plus both collinear sides."""
    out: Set[Cell] = set()
    for k in range(len(points) - 1):
        for rec in segment_walk(points[k], points[k + 1]):
            if rec.kind == INTERIOR_CROSSING:
                if tess.in_domain(rec.cell):
                    out.add(rec.cell)
            else:
                out.update(c for c in edge_cells(rec.edge) if tess.in_domain(c))
    return out


def _equalize_core(
    weights: WeightMap, sp: Sequence[Point], cell: Cell, tess: Tessellation
) -> Tuple[WeightMap, Cell, Cell]:
    if not tess.in_domain(cell):
        raise ValueError(f"cell outside the window: {cell!r}")
    visits = _visit_sequence(tess, weights, sp)
    hits = [k for k, v in enumerate(visits) if v.cell == cell]
    if not hits:
        raise EqualizeError(f"cell {cell!r} is not traversed")
    if len(hits) > 1:
        raise EqualizeError(f"cell {cell!r} is traversed more than once")
    k = hits[0]
    if k == 0:
        raise EqualizeError(f"cell {cell!r} has no predecessor on the path")
    if k == len(visits) - 1:
        raise EqualizeError(f"cell {cell!r} has no successor on the path")
    prev_cell, next_cell = visits[k - 1].cell, visits[k + 1].cell
    alpha, beta = weights.effective(prev_cell), weights.effective(next_cell)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise EqualizeError("neighbour weight is not finite")
    traversed = _traversed_cells(tess, sp)
    values = weights.values.copy()
    for row in range(tess.rows):
        for col in range(tess.cols):
            if (row, col) not in traversed:
                values[row, col] = math.inf
    values[cell] = alpha + beta
    return WeightMap(values), prev_cell, next_cell


def equalize_shortcut_weights(
    weights: WeightMap, sp: Sequence[Point], cell: Cell, tess: Tessellation
) -> WeightMap:
    """Freeze the path's corridor and reprice cell to its neighbour sum.

    Cells the polyline never pays for become unreachable and the given
    cell's weight is replaced by the sum of the weights of its predecessor
    and successor along the polyline.
    """
    return _equalize_core(weights, sp, cell, tess)[0]


# -- per-pocket ratios --------------------------------------------------------


def _p2_equalized(
    gap: GapPolygon,
    d: CoincidenceDecomposition,
    weights: WeightMap,
    tess: Tessellation,
) -> Tuple[float, bool]:
    """Equalized repricing of a kind-2 pocket; raises EqualizeError when
    the hypotheses (endpoints interior to the two cut edges, inner path
    confined to their common cell, traversal neighbours across those
    edges) do not hold."""
    if len(gap.cut_edges) != 2:
        raise EqualizeError("pocket does not cut exactly two edges")
    u0, u1 = gap.sp_points[0], gap.sp_points[-1]

    def on_edge(p: Point) -> Optional[Edge]:
        for e in gap.cut_edges:
            pa, pb = corner_position(e[0]), corner_position(e[1])
            if _seg_point_dist(p, pa, pb) <= _EPS_ON:
                if math.dist(p, pa) <= _EPS_ON or math.dist(p, pb) <= _EPS_ON:
                    raise EqualizeError("pocket endpoint sits at a corner")
                return e
        return None

    e1, e2 = on_edge(u0), on_edge(u1)
    if e1 is None or e2 is None or e1 == e2:
        raise EqualizeError("pocket endpoints are not interior to distinct cut edges")
    cells = set(edge_cells(e1)) & set(edge_cells(e2))
    if len(cells) != 1:
        raise EqualizeError("cut edges do not bound a common cell")
    shortcut_cell = cells.pop()
    if not tess.in_domain(shortcut_cell):
        raise EqualizeError("shortcut cell outside the window")
    for p in gap.sp_points:
        rho, u, v = _affine(p)
        if _cell_margin(shortcut_cell, rho, u, v) < -_EPS_ON:
            raise EqualizeError("inner path leaves the shortcut cell")
    equalized, prev_cell, next_cell = _equalize_core(weights, d.sp_points, shortcut_cell, tess)
    across1 = next(c for c in edge_cells(e1) if c != shortcut_cell)
    across2 = next(c for c in edge_cells(e2) if c != shortcut_cell)
    if prev_cell != across1 or next_cell != across2:
        raise EqualizeError("traversal neighbours do not face the cut edges")
    ratio = polyline_cost(equalized, gap.x_points) / polyline_cost(equalized, gap.sp_points)
    return ratio, ratio <= RATIO_BOUND + RATIO_TOL


def per_polygon_ratios(
    d: CoincidenceDecomposition, weights: WeightMap, tess: Tessellation
) -> Tuple[PolygonRatio, ...]:
    """Price every pocket and check its ratio bound.

    Pockets of kind 2 additionally record the straight rescue chord and,
    when its hypotheses hold, the equalized repricing; their raw ratio is
    reported but never held against the bound.
    """
    out: List[PolygonRatio] = []
    for gap in d.polygons:
        sp_cost = polyline_cost(weights, gap.sp_points)
        x_cost = polyline_cost(weights, gap.x_points)
        if sp_cost <= 1e-12:
            if x_cost > 1e-9:
                raise DegeneratePolygonError(
                    f"zero-cost inner path against outer cost {x_cost!r} at {gap.pivot!r}"
                )
            out.append(PolygonRatio(gap.kind, gap.pivot, 1.0, True))
            continue
        ratio = x_cost / sp_cost
        if gap.kind != 2:
            out.append(
                PolygonRatio(gap.kind, gap.pivot, ratio, ratio <= RATIO_BOUND + RATIO_TOL)
            )
            continue
        rescue = segment_cost(weights, gap.sp_points[0], gap.sp_points[-1]) / sp_cost
        bound_ok = min(ratio, rescue) <= RATIO_BOUND + RATIO_TOL
        try:
            eq_ratio, eq_ok = _p2_equalized(gap, d, weights, tess)
            note = ""
        except EqualizeError as exc:
            eq_ratio, eq_ok, note = None, None, str(exc)
            logger.debug("skipping equalization at %r: %s", gap.pivot, note)
        out.append(
            PolygonRatio(2, gap.pivot, ratio, bound_ok, rescue, eq_ratio, eq_ok, note)
        )
    return tuple(out)


def mediant_upper_bound(parts: Iterable[Tuple[float, float]]) -> float:
    """Largest part ratio; a sum-of-parts ratio can never exceed it."""
    best = None
    for num, den in parts:
        if den <= 0.0:
            raise ValueError("part with nonpositive denominator")
        r = num / den
        if best is None or r > best:
            best = r
    if best is None:
        raise ValueError("no parts")
    return best


# -- full report ---------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 1.0 if num == 0.0 else math.inf
    return num / den


def ratio_report(
    tess: Tessellation,
    weights: WeightMap,
    s: Corner,
    t: Corner,
    rel_tol: float = DEFAULT_REL_TOL,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> RatioReport:
    """Solve all three path families and price the pocket decomposition.

    The oracle runs first, so its checks of the inputs hold for s == t too.
    """
    oracle = refine_until(tess, weights, s, t, rel_tol=rel_tol, max_level=max_level)
    if s == t:
        return RatioReport(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, (0,) * 6, 0, True, ())
    sgp = shortest_grid_path(tess, weights, s, t)
    svp = shortest_vertex_path(tess, weights, s, t)
    x = crossing_path(oracle.path, weights, tess)
    x_cost = grid_path_cost(weights, x.corners)
    decomposition = coincidence_decomposition(oracle.path, x, tess)
    polygons = per_polygon_ratios(decomposition, weights, tess)
    histogram = [0] * 6
    for poly in polygons:
        histogram[poly.kind - 1] += 1
    max_ratio = max((poly.ratio for poly in polygons), default=1.0)
    return RatioReport(
        sgp_cost=sgp.cost,
        svp_cost=svp.cost,
        sp_cost=oracle.cost,
        sgp_sp=_ratio(sgp.cost, oracle.cost),
        svp_sp=_ratio(svp.cost, oracle.cost),
        sgp_svp=_ratio(sgp.cost, svp.cost),
        x_cost=x_cost,
        max_polygon_ratio=max_ratio,
        histogram=tuple(histogram),
        level=oracle.level,
        converged=oracle.converged,
        polygons=polygons,
    )


# -- closed-form constants ------------------------------------------------------


def svp_lower_bound_constant() -> float:
    """Worst known vertex-path-to-optimum ratio witness value."""
    r = math.sqrt(7.0 * SQRT3 - 12.0)
    return 2.0 * r / ((7.0 - 4.0 * SQRT3) * (6.0 * math.sqrt(2.0) + r))


def svp_lower_bound_witness_offset() -> float:
    """Edge offset of the witness configuration behind the lower bound."""
    return (7.0 * SQRT3 - 12.0) / math.sqrt(56.0 * SQRT3 - 96.0)


# -- anomaly search ---------------------------------------------------------------


def search_p2_anomaly(seed: int, trials: int) -> AnomalyResult:
    """Randomized search over a three-cell corridor for a poor corner path.

    Weights a cheap middle cell between two dearer neighbours inside an
    otherwise blocked window; the corner path detours around the middle
    cell while the shortcut repair cuts straight across, so the raw ratio
    grows with the neighbour-to-middle contrast while the repaired ratio
    stays near one. Returns the best of `trials` samples, re-solved at
    full refinement.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    tess = Tessellation(3, 4)
    s, t = (0, 2), (4, 2)
    rng = random.Random(seed)
    lo, hi = math.log(0.5), math.log(4.0)

    def build(sample: Tuple[float, float, float]) -> WeightMap:
        values = np.full((3, 4), math.inf)
        values[1, 0], values[1, 1], values[1, 2] = sample
        return WeightMap(values)

    best_raw, best_sample = -math.inf, None
    for _ in range(trials):
        wa = math.exp(rng.uniform(lo, hi))
        wb = math.exp(rng.uniform(lo, hi))
        wm = min(wa, wb) * rng.uniform(0.5, 1.0)
        sample = (wa, wm, wb)
        weights = build(sample)
        probe = approx_shortest_path(tess, weights, s, t, level=3)
        x = crossing_path(probe.path, weights, tess)
        raw = grid_path_cost(weights, x.corners) / probe.cost
        if raw > best_raw:
            best_raw, best_sample = raw, sample
    weights = build(best_sample)
    # refine_until plateaus at the straight path here: the payoff of the
    # dip only appears once the sample spacing is fine enough, so early
    # levels tie and its stopping rule fires; solve at full depth instead
    oracle = approx_shortest_path(tess, weights, s, t, level=DEFAULT_MAX_LEVEL)
    x = crossing_path(oracle.path, weights, tess)
    x_cost = grid_path_cost(weights, x.corners)
    shortcut_cost = min(
        (grid_path_cost(weights, sc.corners) for sc in shortcut_paths(x, tess)),
        default=x_cost,
    )
    return AnomalyResult(
        tess=tess,
        weights=weights,
        source=s,
        target=t,
        sp_cost=oracle.cost,
        x_cost=x_cost,
        x_ratio=x_cost / oracle.cost,
        shortcut_cost=shortcut_cost,
        shortcut_ratio=min(x_cost, shortcut_cost) / oracle.cost,
        level=oracle.level,
    )
