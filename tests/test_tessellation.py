import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from trigrid.analysis import walk_polyline
from trigrid.metric import WeightMap, segment_cost
from trigrid import tessellation
from trigrid.tessellation import (
    CORNER_STEPS_CCW,
    EDGE_COLLINEAR,
    EPS_GEO,
    INTERIOR_CROSSING,
    MAX_WALK_PIECES,
    SQRT3,
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
    is_upward,
    locate_point,
    segment_walk,
    _collinear_lattice_line,
    _edge_on_line,
    _merged_events,
    _pieces,
)

# locate_point takes any tolerance; the references check it at EPS_GEO and
# at this looser one as well.
_EPS_ON = 1e-6


def test_corner_position_rejects_odd_parity():
    with pytest.raises(ValueError):
        corner_position((1, 0))
    assert corner_position((3, 1)) == (3.0, SQRT3)


def test_cell_vertices_parity():
    assert cell_vertices((0, 0)) == ((0, 0), (1, 1), (2, 0))
    assert cell_vertices((0, 1)) == ((2, 0), (1, 1), (3, 1))
    assert cell_vertices((2, 1)) == ((2, 2), (1, 3), (3, 3))


def _signed_area(points):
    area = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        area += x1 * y2 - x2 * y1
    return area / 2.0


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_cell_vertices_clockwise_and_even_parity(row, col):
    verts = cell_vertices((row, col))
    for i, j in verts:
        assert (i + j) % 2 == 0
    pts = [corner_position(c) for c in verts]
    assert _signed_area(pts) < 0
    side = 2.0
    for a, b in zip(pts, pts[1:] + pts[:1]):
        assert math.dist(a, b) == pytest.approx(side, abs=1e-12)


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_edge_cells_roundtrip(row, col):
    cell = (row, col)
    for edge in cell_edges(cell):
        assert cell in edge_cells(edge)
        assert edge_cells(edge) == tuple(sorted(edge_cells(edge)))


def test_edge_cells_orientations():
    assert edge_cells(((0, 0), (2, 0))) == ((-1, 0), (0, 0))
    assert edge_cells(((0, 0), (1, 1))) == ((0, -1), (0, 0))
    assert edge_cells(((2, 0), (1, 1))) == ((0, 0), (0, 1))


def test_corner_cells_ring():
    assert corner_cells((2, 2)) == ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))
    for cell in corner_cells((2, 2)):
        assert (2, 2) in cell_vertices(cell)


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_adjacency_is_symmetric(i, j):
    if (i + j) % 2:
        i += 1
    corner = (i, j)
    for other in adjacent_corners(corner):
        assert are_adjacent(corner, other)
        assert are_adjacent(other, corner)
        assert corner in adjacent_corners(other)
        assert math.dist(corner_position(corner), corner_position(other)) == pytest.approx(2.0)


def test_walk_vertical_through_two_cells():
    records = segment_walk((0.0, 0.0), (0.0, 2 * SQRT3))
    assert [r.cell for r in records] == [(0, -1), (1, -1)]
    assert all(r.kind == INTERIOR_CROSSING for r in records)
    assert records[0].entry == (0.0, 0.0)
    assert records[0].exit == pytest.approx((0.0, SQRT3))
    assert records[1].exit == (0.0, 2 * SQRT3)


def test_walk_collinear_run_splits_at_corners():
    records = segment_walk((0.0, 0.0), (5.0, 0.0))
    assert [r.edge for r in records] == [
        ((0, 0), (2, 0)),
        ((2, 0), (4, 0)),
        ((4, 0), (6, 0)),
    ]
    assert all(r.kind == EDGE_COLLINEAR for r in records)
    lengths = [math.dist(r.entry, r.exit) for r in records]
    assert lengths == pytest.approx([2.0, 2.0, 1.0])


def test_walk_zero_length_segment():
    assert segment_walk((0.3, 0.4), (0.3, 0.4)) == []


@pytest.mark.parametrize("p, q", [((0, 0), (4, 0)), ((0.5, 0.25), (3, 3.5))])
def test_walk_records_hold_python_floats(p, q):
    # numpy scalar endpoints came back in the first entry and the last exit
    for p, q in ((p, q), (tuple(map(np.float64, p)), tuple(map(np.float64, q)))):
        records = segment_walk(p, q)
        assert len(records) > 1
        for rec in records:
            assert all(type(c) is float for c in rec.entry + rec.exit), rec


def test_walk_snaps_near_corner_crossings():
    # passes within EPS_GEO/2 of corner (1, 1)
    eps = EPS_GEO / 2
    records = segment_walk((1.0 + eps, 0.2), (1.0 + eps, 2 * SQRT3 - 0.2))
    hits = [r for r in records if r.exit == corner_position((1, 1))]
    assert len(hits) == 1


points = st.tuples(
    st.floats(-4.0, 9.0, allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 9.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(points, points)
def test_walk_pieces_tile_the_segment(p, q):
    records = segment_walk(p, q)
    total = math.dist(p, q)
    if total <= EPS_GEO:
        assert records == []
        return
    piece_sum = sum(math.dist(r.entry, r.exit) for r in records)
    assert piece_sum == pytest.approx(total, abs=1e-6)
    assert math.dist(records[0].entry, p) <= 1e-6
    assert math.dist(records[-1].exit, q) <= 1e-6
    for a, b in zip(records, records[1:]):
        assert math.dist(a.exit, b.entry) <= 5e-9


@settings(max_examples=200, deadline=None)
@given(points, points)
def test_walk_reversal(p, q):
    # pieces shorter than the comparison tolerance may differ: the two walk
    # directions can snap a grazed corner into either adjacent cell
    forward = segment_walk(p, q)
    backward = list(reversed(segment_walk(q, p)))

    def short(r):
        return math.dist(r.entry, r.exit) <= 1e-6

    def matches(f, b):
        return (f.cell == b.cell and f.kind == b.kind and f.edge == b.edge
                and math.dist(f.entry, b.exit) <= 1e-6
                and math.dist(f.exit, b.entry) <= 1e-6)

    i = j = 0
    while i < len(forward) and j < len(backward):
        if matches(forward[i], backward[j]):
            i += 1
            j += 1
        elif short(forward[i]):
            i += 1
        elif short(backward[j]):
            j += 1
        else:
            raise AssertionError(
                f"unmatched pieces {forward[i]!r} vs {backward[j]!r}")
    assert all(short(r) for r in forward[i:])
    assert all(short(r) for r in backward[j:])


@settings(max_examples=200, deadline=None)
@given(points, points)
def test_walk_pieces_lie_in_their_cell(p, q):
    for r in segment_walk(p, q):
        mid = ((r.entry[0] + r.exit[0]) / 2, (r.entry[1] + r.exit[1]) / 2)
        if r.kind == INTERIOR_CROSSING:
            verts = [corner_position(c) for c in cell_vertices(r.cell)]
            assert _point_in_triangle(mid, verts)
        else:
            a, b = (corner_position(c) for c in r.edge)
            assert _dist_point_segment(mid, a, b) <= 1e-6
            assert r.cell == edge_cells(r.edge)[0]


_BAD = (math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("bad", _BAD)
@pytest.mark.parametrize("coord", range(4))
@pytest.mark.parametrize(
    "p, q", [((0.0, 0.0), (4.0, 0.0)), ((0.5, 0.3), (3.7, 1.1))], ids=["on-line", "off-line"]
)
def test_walk_refuses_non_finite_endpoints(p, q, coord, bad):
    # unchecked, an infinite coordinate makes the crossing count run forever
    xs = [*p, *q]
    xs[coord] = bad
    p, q = tuple(xs[:2]), tuple(xs[2:])
    weights = WeightMap([[1.0, 1.0], [1.0, 1.0]])
    for call in (
        lambda: segment_walk(p, q),
        lambda: segment_cost(weights, p, q),
        lambda: walk_polyline([p, q]),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_walk_refuses_a_segment_over_the_piece_budget_at_once():
    # a 1e12-long segment crosses about 5e11 lines: walked, it would take a day
    weights = WeightMap([[1.0]])
    start = time.perf_counter()
    for call in (
        lambda: segment_walk((0.0, 0.0), (1e12, 1.0)),
        lambda: segment_cost(weights, (0, 0), (1e12, 1)),
        lambda: walk_polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1e12)]),
        lambda: segment_walk((-1e12, 0.0), (1e12, 0.0)),  # along a line
    ):
        with pytest.raises(ValueError, match=f"budget of {MAX_WALK_PIECES} walk pieces"):
            call()
    assert time.perf_counter() - start < 1.0


def test_walk_budget_counts_the_pieces_of_a_generic_segment_exactly(monkeypatch):
    # the segment meets no corner, so every line crossing starts a piece
    p, q = (0.3, 0.1), (37.7, 21.9)
    want = segment_walk(p, q)
    monkeypatch.setattr(tessellation, "MAX_WALK_PIECES", len(want))
    assert segment_walk(p, q) == want
    monkeypatch.setattr(tessellation, "MAX_WALK_PIECES", len(want) - 1)
    with pytest.raises(ValueError, match="walk pieces"):
        segment_walk(p, q)


@settings(max_examples=200, deadline=None)
@given(points, points)
def test_walk_budget_admits_the_walk_tests_segments_and_never_undercounts(p, q):
    # the walk tests draw their segments from these points: all are admitted,
    # and a budget one short of a walk's pieces refuses it
    pieces = len(segment_walk(p, q))
    assert pieces <= MAX_WALK_PIECES
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tessellation, "MAX_WALK_PIECES", pieces - 1)
        if pieces:
            with pytest.raises(ValueError, match="walk pieces"):
                segment_walk(p, q)


# -- reference: a walk along a line from its corners' projections ---------------


def _ref_corners_on_line(fam, k, p, q):
    if fam == "rho":
        lo = math.floor(min(p[0], q[0])) - 1
        hi = math.ceil(max(p[0], q[0])) + 1
        return [(i, k) for i in range(lo, hi + 1) if (i + k) % 2 == 0]
    lo = math.floor(min(p[1], q[1]) / SQRT3) - 1
    hi = math.ceil(max(p[1], q[1]) / SQRT3) + 1
    if fam == "u":
        return [(k + j, j) for j in range(lo, hi + 1)]
    return [(k - j, j) for j in range(lo, hi + 1)]


def _ref_walk_along_line(p, q):
    """Walk a segment on a lattice line by projecting the line's corners onto it.

    None when a corner sits too near EPS_GEO from its projection to call
    whether the projection snaps to it.
    """
    length = math.dist(p, q)
    fam, k = _collinear_lattice_line(p, q)
    eps_t = EPS_GEO / length
    dx, dy = q[0] - p[0], q[1] - p[1]
    ts = [0.0, 1.0]
    for corner in _ref_corners_on_line(fam, k, p, q):
        cx, cy = corner_position(corner)
        t = ((cx - p[0]) * dx + (cy - p[1]) * dy) / (length * length)
        if -eps_t < t < 1.0 + eps_t:
            ts.append(min(1.0, max(0.0, t)))
            if abs(math.dist((p[0] + t * dx, p[1] + t * dy), (cx, cy)) - EPS_GEO) <= 1e-13:
                return None
    records = []
    for entry, exit_, mid in _pieces(p, q, _merged_events(ts, eps_t), EPS_GEO):
        edge = _edge_on_line(fam, k, mid)
        records.append(WalkRecord(edge_cells(edge)[0], entry, exit_, EDGE_COLLINEAR, edge))
    return records


_LINE_STEPS = CORNER_STEPS_CCW[:3]


def _on_line(corner, step, f, off=0.0):
    """The point f edges along the line from corner in direction step, off it by off."""
    (i, j), (di, dj) = corner, step
    # unit normal of the line, whose direction is (di, dj * sqrt(3)) / 2
    nx, ny = -dj * SQRT3 / 2.0, di / 2.0
    return (i + f * di + off * nx, (j + f * dj) * SQRT3 + off * ny)


_line_corners = st.builds(
    lambda i, j: (i + (i + j) % 2, j), st.integers(-6, 6), st.integers(-4, 4)
)


@settings(max_examples=300, deadline=None)
@given(
    _line_corners,
    st.sampled_from(_LINE_STEPS),
    st.integers(1, 7).flatmap(
        lambda level: st.tuples(
            st.just(2 ** level),
            st.integers(-3 * 2 ** level, 3 * 2 ** level),
            st.integers(-3 * 2 ** level, 3 * 2 ** level),
        )
    ),
)
def test_walk_along_dyadic_line_segments_matches_corner_projection(corner, step, dyadic):
    n, a, b = dyadic
    assume(a != b)
    p, q = _on_line(corner, step, a / n), _on_line(corner, step, b / n)
    assert segment_walk(p, q) == _ref_walk_along_line(p, q)


_line_offsets = st.one_of(
    st.floats(-EPS_GEO, EPS_GEO),
    st.floats(0.87 * EPS_GEO, EPS_GEO),
    st.floats(-EPS_GEO, -0.87 * EPS_GEO),
)


@settings(max_examples=300, deadline=None)
@given(
    _line_corners,
    st.sampled_from(_LINE_STEPS),
    st.one_of(st.floats(-3.0, 3.0), st.integers(-24, 24).map(lambda m: m / 8.0)),
    st.one_of(st.floats(-3.0, 3.0), st.integers(-24, 24).map(lambda m: m / 8.0)),
    _line_offsets,
    _line_offsets,
)
# both ends 0.95 EPS_GEO above a horizontal line: the diagonal lines cross
# it 1.1 EPS_GEO from each corner
@example((0, 0), (2, 0), -1.5, 2.5, 0.95 * EPS_GEO, 0.95 * EPS_GEO)
def test_walk_near_a_line_matches_corner_projection(corner, step, fp, fq, off_p, off_q):
    p, q = _on_line(corner, step, fp, off_p), _on_line(corner, step, fq, off_q)
    assume(math.dist(p, q) > EPS_GEO and _collinear_lattice_line(p, q) is not None)
    want = _ref_walk_along_line(p, q)
    if want is not None:
        assert segment_walk(p, q) == want


def _point_in_triangle(p, verts, tol=1e-7):
    # clockwise vertex order, so inside means every cross product <= tol
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
        if cross > tol:
            return False
    return True


def _dist_point_segment(p, a, b):
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = ab[0] ** 2 + ab[1] ** 2
    t = max(0.0, min(1.0, (ap[0] * ab[0] + ap[1] * ab[1]) / denom))
    proj = (a[0] + t * ab[0], a[1] + t * ab[1])
    return math.dist(p, proj)


def test_tessellation_validation():
    with pytest.raises(ValueError):
        Tessellation(0, 3)


def test_tessellation_corners_cover_window():
    tess = Tessellation(3, 4)
    assert len(tess.corners) == 12
    assert tess.corners[:3] == ((0, 0), (2, 0), (4, 0))
    assert all(tess.valid_corner(c) for c in tess.corners)
    assert not tess.valid_corner((8, 0))
    assert not tess.valid_corner((1, 0))
    assert tess.corner_ids[(0, 0)] == 0


def test_window_corners_are_the_corners_of_window_cells():
    for rows in range(1, 25):
        for cols in range(1, 25):
            tess = Tessellation(rows, cols)
            touching = [
                (i, j)
                for j in range(-4, rows + 5)
                for i in range(-4, cols + 6)
                if (i + j) % 2 == 0 and any(tess.in_domain(c) for c in corner_cells((i, j)))
            ]
            assert tess.corners == tuple(touching)
            got = [
                (i, j)
                for j in range(-4, rows + 5)
                for i in range(-4, cols + 6)
                if tess.valid_corner((i, j))
            ]
            assert got == touching


def test_locate_point_priorities():
    tess = Tessellation(3, 4)
    assert locate_point((2.0, 0.0), EPS_GEO) == ("corner", (2, 0))
    assert tess.valid_corner((2, 0))
    kind, edges = locate_point((1.0, 0.0), EPS_GEO)
    assert kind == "edges" and edges == (((0, 0), (2, 0)),)
    assert any(tess.in_domain(c) for c in edge_cells(edges[0]))
    assert locate_point((1.0, 0.5), EPS_GEO) == ("cell", (0, 0))
    assert tess.in_domain((0, 0))
    for p in ((-3.0, 0.5), (40.0, 40.0)):
        kind, cell = locate_point(p, EPS_GEO)
        assert kind == "cell" and not tess.in_domain(cell)


# -- brute-force references for locate_point ------------------------------------


def _ref_cell_margin(cell, p):
    """Smallest signed distance from p to the cell's supporting lines."""
    row, col = cell
    rho = p[1] / SQRT3
    u, v = p[0] - rho, p[0] + rho
    if is_upward(cell):
        return min(
            (rho - row) * SQRT3,
            (u - (col - row)) * SQRT3 / 2.0,
            ((col + 2 + row) - v) * SQRT3 / 2.0,
        )
    return min(
        ((row + 1) - rho) * SQRT3,
        ((col + 1 - row) - u) * SQRT3 / 2.0,
        (v - (col + 1 + row)) * SQRT3 / 2.0,
    )


def _ref_cell(p):
    """The cell of largest boundary clearance among 12 candidates around p."""
    row0, col0 = math.floor(p[1] / SQRT3), math.floor(p[0])
    cands = [(row, col) for row in (row0 - 1, row0, row0 + 1) for col in range(col0 - 2, col0 + 2)]
    return max(cands, key=lambda c: _ref_cell_margin(c, p))


def _ref_corner(p, tol):
    """The corner within Euclidean distance tol, and that distance."""
    i, j = round(p[0]), round(p[1] / SQRT3)
    if (i + j) % 2:
        return None, math.inf
    d = math.dist(p, (i, j * SQRT3))
    return ((i, j) if d <= tol else None), d


def _ref_edge_distances(p):
    """Distance from p to the closed segment of every lattice edge near it."""
    i0, j0 = round(p[0]), round(p[1] / SQRT3)
    out = {}
    for j in range(j0 - 1, j0 + 2):
        for i in range(i0 - 2, i0 + 3):
            if (i + j) % 2:
                continue
            for di, dj in CORNER_STEPS_CCW:
                nbr = (i + di, j + dj)
                edge = edge_key((i, j), nbr)
                out[edge] = _dist_point_segment(p, corner_position((i, j)), corner_position(nbr))
    return out


def _ref_locate(p, tol):
    """locate_point by brute force, or None when a distance sits too near tol to call."""
    corner, d_corner = _ref_corner(p, tol)
    dists = _ref_edge_distances(p)
    if any(abs(d - tol) <= 1e-13 for d in [d_corner, *dists.values()]):
        return None
    if corner is not None:
        return ("corner", corner)
    edges = sorted(
        (e for e, d in dists.items() if d <= tol),
        key=lambda e: (e[0][1], e[0][0], e[1][1], e[1][0]),
    )
    if edges:
        return ("edges", tuple(edges))
    return ("cell", _ref_cell(p))


@st.composite
def _points_near_lattice_features(draw):
    """Points on or beside an edge, at or beside a corner, or inside a cell.

    Offsets are drawn on the scale of one of the two tolerances in use, and
    the annulus tol < |p - corner| <= 2 tol holds points within tol of two
    lattice lines but of no corner.
    """
    i, j = draw(st.integers(-6, 6)), draw(st.integers(-4, 4))
    corner = (i + (i + j) % 2, j)
    cx, cy = corner_position(corner)
    scale = draw(st.sampled_from((EPS_GEO, _EPS_ON)))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    where = draw(st.sampled_from(("edge", "corner", "annulus", "interior")))
    if where == "edge":
        di, dj = draw(st.sampled_from(CORNER_STEPS_CCW))
        f = draw(st.floats(0.0, 1.0))
        off = draw(st.floats(-2.0 * scale, 2.0 * scale))
        # unit normal of the edge, whose direction is (di, dj * sqrt(3)) / 2
        nx, ny = -dj * SQRT3 / 2.0, di / 2.0
        return (cx + f * di + off * nx, cy + f * dj * SQRT3 + off * ny)
    if where in ("corner", "annulus"):
        lo, hi = (0.0, 1.0) if where == "corner" else (1.0, 2.0)
        r = scale * draw(st.floats(lo, hi, exclude_min=where == "annulus"))
        return (cx + r * math.cos(theta), cy + r * math.sin(theta))
    a, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    if a + b > 1.0:
        a, b = 1.0 - a, 1.0 - b
    verts = [corner_position(c) for c in cell_vertices((j, i))]
    return tuple(
        verts[0][k] + a * (verts[1][k] - verts[0][k]) + b * (verts[2][k] - verts[0][k])
        for k in range(2)
    )


# Just outside the tol disc of corner (0, 0) and within tol of all three
# lines through it: the projection onto the line through (1, 1) lies above
# the corner while rho lies below it, so that line's edge follows from the
# projection, not from floor(rho).
_ANNULUS_EXAMPLES = [
    (tol * (0.5 * 0.5 + 0.99 * SQRT3 / 2.0), tol * (0.5 * SQRT3 - 0.99) / 2.0)
    for tol in (EPS_GEO, _EPS_ON)
]


@settings(max_examples=500, deadline=None)
@given(_points_near_lattice_features())
@example(_ANNULUS_EXAMPLES[0])
@example(_ANNULUS_EXAMPLES[1])
def test_locate_point_matches_brute_force_references(p):
    for tol in (EPS_GEO, _EPS_ON):
        want = _ref_locate(p, tol)
        if want is not None:
            assert locate_point(p, tol) == want, (p, tol)


def test_annulus_examples_sit_on_two_lines_off_the_corner():
    for p, tol in zip(_ANNULUS_EXAMPLES, (EPS_GEO, _EPS_ON)):
        assert tol < math.hypot(*p) <= 2.0 * tol
        assert p[1] < 0.0
        assert locate_point(p, tol) == (
            "edges", (((1, -1), (0, 0)), ((0, 0), (2, 0)), ((0, 0), (1, 1)))
        )
