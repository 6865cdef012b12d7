import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trigrid import analysis, metric, oracle
from trigrid.grid_paths import UnreachableError, shortest_grid_path
from trigrid.instances import GenerationError, gen_random, gen_svp_witness, gen_two_weight_maze
from trigrid.metric import WeightMap, segment_cost, walk_cost
from trigrid.oracle import approx_shortest_path, refine_until
from trigrid.analysis import (
    _ARC_TOL,
    RATIO_BOUND,
    RATIO_TOL,
    CoincidenceDecomposition,
    CrossingPath,
    DegeneratePolygonError,
    EqualizeError,
    GapPolygon,
    MalformedPathError,
    Shortcut,
    TopologyError,
    _classify,
    _cum_lengths,
    _equalize_core,
    coincidence_decomposition,
    crossing_path,
    grid_path_cost,
    per_polygon_ratios,
    ratio_report,
    search_p2_anomaly,
    shortcut_paths,
    svp_lower_bound_constant,
    svp_lower_bound_witness_offset,
    walk_polyline,
)
from trigrid.tessellation import (
    CORNER_STEPS_CCW,
    EPS_GEO,
    SQRT3,
    Tessellation,
    adjacent_corners,
    corner_position,
    edge_cells,
    edge_key,
    locate_point,
    segment_walk,
)

INF = math.inf


def strip(k):
    """2k-row window whose middle column is the only passable strip."""
    values = np.full((2 * k, 3), INF)
    values[:, 1] = 1.0
    return Tessellation(2 * k, 3), WeightMap(values), (2, 0), (2, 2 * k)


def corridor_weights(wa, wm, wb):
    values = np.full((3, 4), INF)
    values[1, 0], values[1, 1], values[1, 2] = wa, wm, wb
    return Tessellation(3, 4), WeightMap(values), (0, 2), (4, 2)


def random_instance(seed, rows=3, cols=4, inf_prob=0.1):
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(rows, cols)))
    values[rng.random((rows, cols)) < inf_prob] = INF
    return Tessellation(rows, cols), WeightMap(values)


def visits(sp):
    """The cell visits of polyline sp."""
    return walk_polyline(sp).visits


def contact_points(d):
    """Where SP meets X: the ends of the pockets' inner paths."""
    return [g.pieces[0].entry for g in d.polygons] + [d.polygons[-1].pieces[-1].exit]


def far_endpoints(tess):
    ti = tess.cols + 1 if (tess.cols + 1 + tess.rows) % 2 == 0 else tess.cols
    return (0, 0), (ti, tess.rows)


def law_of_cosines_dist(pv: float, vq: float) -> float:
    """Distance between points at distances pv, vq from a corner, 60 degrees apart."""
    if not (0.0 <= pv <= 2.0 and 0.0 <= vq <= 2.0):
        raise ValueError(f"leg lengths must lie in [0, 2]: {pv!r}, {vq!r}")
    return math.sqrt(pv * pv + vq * vq - pv * vq)


class TestLawOfCosines:
    def test_known_values(self):
        assert law_of_cosines_dist(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert law_of_cosines_dist(0.0, 1.5) == pytest.approx(1.5, abs=1e-12)
        assert law_of_cosines_dist(2.0, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            law_of_cosines_dist(-0.1, 1.0)
        with pytest.raises(ValueError):
            law_of_cosines_dist(1.0, 2.1)

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_matches_euclid_on_sixty_degree_rays(self, a, b):
        p = (a, 0.0)
        q = (b * 0.5, b * SQRT3 / 2.0)
        assert law_of_cosines_dist(a, b) == pytest.approx(math.dist(p, q), abs=1e-12)


class TestCrossingPath:
    def test_strip_zigzag(self):
        tess, w, s, t = strip(2)
        oracle = refine_until(tess, w, s, t)
        x = crossing_path(walk_polyline(oracle.path))
        assert x.corners == ((2, 0), (3, 1), (2, 2), (3, 3), (2, 4))
        assert grid_path_cost(w, x.corners) == pytest.approx(8.0, abs=1e-12)
        assert [seg.case for seg in x.segments] == [
            "endpoint-pivot",
            "to-corner",
            "endpoint-pivot",
            "to-corner",
        ]

    def test_grid_path_maps_to_itself(self):
        walk = ((0, 0), (2, 0), (3, 1))
        sp = [corner_position(c) for c in walk]
        x = crossing_path(walk_polyline(sp))
        assert x.corners == walk
        assert all(seg.case == "same-edge" for seg in x.segments)

    def test_collinear_pieces_of_one_edge_merge(self):
        y = 2.0 * SQRT3
        sp = [(0.0, y), (0.5, y), (1.3, y), (2.0, y), (3.1, y), (4.0, y)]
        x = crossing_path(walk_polyline(sp))
        assert x.corners == ((0, 2), (2, 2), (4, 2))

    def test_rejects_vertex_inside_a_cell(self):
        with pytest.raises(MalformedPathError):
            crossing_path(walk_polyline([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)]))

    def test_rejects_endpoint_off_corner(self):
        with pytest.raises(MalformedPathError):
            crossing_path(walk_polyline([(1.0, 0.0), (2.0, 0.0)]))


class TestCoincidence:
    def test_strip_meets_only_at_endpoints(self):
        tess, w, s, t = strip(1)
        oracle = refine_until(tess, w, s, t)
        sp_walk = walk_polyline(oracle.path)
        x = crossing_path(sp_walk)
        d = coincidence_decomposition(sp_walk, x)
        (gap,) = d.polygons
        assert gap.pieces[0].entry == pytest.approx((2.0, 0.0), abs=1e-9)
        assert gap.pieces[-1].exit == pytest.approx((2.0, 2.0 * SQRT3), abs=1e-9)

    def test_identical_paths_meet_at_every_vertex(self):
        tess = Tessellation(1, 4)
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        walk = ((0, 0), (2, 0), (3, 1))
        sp = [corner_position(c) for c in walk]
        sp_walk = walk_polyline(sp)
        x = crossing_path(sp_walk)
        d = coincidence_decomposition(sp_walk, x)
        assert len(d.polygons) == 2
        for point, corner in zip(contact_points(d), walk):
            assert point == pytest.approx(corner_position(corner), abs=1e-9)
        assert all(g.kind == 1 and g.shared for g in d.polygons)
        for r in per_polygon_ratios(d, w, tess):
            assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_strip_k2_meets_at_middle_corner(self):
        tess, w, s, t = strip(2)
        oracle = refine_until(tess, w, s, t)
        sp_walk = walk_polyline(oracle.path)
        x = crossing_path(sp_walk)
        d = coincidence_decomposition(sp_walk, x)
        assert len(d.polygons) == 2
        assert d.polygons[0].pieces[-1].exit == pytest.approx((2.0, 2.0 * SQRT3), abs=1e-9)
        assert [g.kind for g in d.polygons] == [3, 3]
        assert [g.pivot for g in d.polygons] == [(3, 1), (3, 3)]


class TestClassifyPolygon:
    def test_same_edge_bulge_is_kind_one(self):
        # the bulge bends inside a cell, which crossing_path refuses as a path
        # vertex, so no decomposition yields it: classify the sub-paths directly
        sp_sub = ((0.5, 0.0), (1.0, 0.5), (1.5, 0.0))
        contacts = [locate_point(p, EPS_GEO) for p in sp_sub]
        # X runs from (0.5, 0) to (1.5, 0) along one edge and holds no corner there
        assert _classify(contacts, set()) == (1, (0, 0), (((0, 0), (2, 0)),))

    def test_strip_gap_is_kind_three(self):
        tess, w, s, t = strip(1)
        oracle = refine_until(tess, w, s, t)
        sp_walk = walk_polyline(oracle.path)
        x = crossing_path(sp_walk)
        d = coincidence_decomposition(sp_walk, x)
        (gap,) = d.polygons
        assert (gap.kind, gap.pivot, gap.shared) == (3, (3, 1), False)


@pytest.fixture(scope="module")
def decomposition():
    tess = Tessellation(1, 4)
    w = WeightMap([[4.0, 1.0, 4.0, 4.0]])
    res = approx_shortest_path(tess, w, (0, 0), (4, 0), level=3)
    sp_walk = walk_polyline(res.path)
    x = crossing_path(sp_walk)
    return tess, w, res, x, coincidence_decomposition(sp_walk, x)


class TestRefractionPockets:
    """A cheap middle cell bends the optimum off the straight edge run."""

    def test_dyadic_optimum_cost(self, decomposition):
        _, _, res, _, _ = decomposition
        assert res.cost == pytest.approx(14.75, abs=1e-9)

    def test_crossing_path_detours_through_apex(self, decomposition):
        _, _, _, x, _ = decomposition
        assert x.corners == ((0, 0), (1, 1), (2, 0), (4, 0))

    def test_pocket_kinds_and_pivots(self, decomposition):
        _, _, _, _, d = decomposition
        assert [g.kind for g in d.polygons] == [2, 3]
        assert [g.pivot for g in d.polygons] == [(1, 1), (2, 0)]

    def test_kind_two_rescue_chord_is_the_inner_path(self, decomposition):
        tess, w, _, _, d = decomposition
        two, three = per_polygon_ratios(d, w, tess)
        assert two.kind == 2
        assert two.rescue_ratio == pytest.approx(1.0, abs=1e-12)
        assert two.bound_ok
        assert two.equalized_ratio is None
        assert "corner" in two.note
        assert three.kind == 3
        assert three.bound_ok

    def test_kind_two_legs_obey_law_of_cosines(self, decomposition):
        _, _, _, _, d = decomposition
        gap = d.polygons[0]
        assert gap.kind == 2
        # the pivot legs a and b of the pocket and its chord c
        u0, u1, pv = gap.pieces[0].entry, gap.pieces[-1].exit, corner_position(gap.pivot)
        a, b, c = math.dist(u0, pv), math.dist(pv, u1), math.dist(u0, u1)
        assert law_of_cosines_dist(a, b) == pytest.approx(c, abs=1e-9)


@pytest.fixture(scope="module")
def pockets():
    tess = Tessellation(1, 3)
    w = WeightMap([[2.0, 5.0, 3.0]])
    s1, s2 = 0.25, 0.375
    sp = (
        (0.0, 0.0),
        (2.0 - s1, SQRT3 * s1),
        (2.0 + s2, SQRT3 * s2),
        corner_position((3, 1)),
        (4.0, 0.0),
    )
    sp_walk = walk_polyline(sp)
    x = crossing_path(sp_walk)
    d = coincidence_decomposition(sp_walk, x)
    return tess, w, s1, s2, x, d


class TestCornerCutPocket:
    """Chord cutting one corner between two collinear runs: the equalized
    repricing applies and certifies the pocket."""

    def test_crossing_path_follows_both_edges(self, pockets):
        _, _, _, _, x, _ = pockets
        assert x.corners == ((0, 0), (1, 1), (2, 0), (3, 1), (4, 0))

    def test_pocket_sequence(self, pockets):
        _, _, _, _, _, d = pockets
        assert [(g.kind, g.shared) for g in d.polygons] == [
            (2, False),
            (2, False),
            (1, True),
            (1, True),
        ]

    def test_equalized_ratio_matches_hand_computation(self, pockets):
        tess, w, s1, s2, _, d = pockets
        ratios = per_polygon_ratios(d, w, tess)
        cut = ratios[1]
        assert cut.pivot == (2, 0)
        a, b = 2.0 * s1, 2.0 * s2
        c = law_of_cosines_dist(a, b)
        expected = (a * 2.0 + b * 3.0) / (c * 5.0)
        assert cut.equalized_ratio == pytest.approx(expected, abs=1e-9)
        assert cut.equalized_ok
        assert cut.ratio == pytest.approx(expected, abs=1e-9)

    def test_equalized_ratio_reprices_both_sides(self, pockets):
        # the middle cell, cheaper than its left neighbour, sets the price of
        # the left cut edge; equalized to 4 + 1, it no longer does
        tess, _, s1, s2, _, d = pockets
        cut = per_polygon_ratios(d, WeightMap([[4.0, 2.0, 1.0]]), tess)[1]
        a, b = 2.0 * s1, 2.0 * s2
        c = law_of_cosines_dist(a, b)
        assert cut.ratio == pytest.approx((a * 2.0 + b) / (c * 2.0), abs=1e-9)
        assert cut.equalized_ratio == pytest.approx((a * 4.0 + b) / (c * 5.0), abs=1e-9)

    def test_corner_start_pocket_reports_reason(self, pockets):
        tess, w, _, _, _, d = pockets
        first = per_polygon_ratios(d, w, tess)[0]
        assert first.equalized_ratio is None
        assert first.note != ""

    def test_inner_path_leaving_the_cell_is_not_equalized(self, pockets):
        # the corner-cutting pocket, with its inner path bent out over the
        # edge opposite the pivot and back
        tess, w, _, _, _, d = pockets
        cut = d.polygons[1]
        u0, u1 = cut.pieces[0].entry, cut.pieces[-1].exit
        sp = walk_polyline((u0, (1.5, SQRT3), (2.0, 2.0 * SQRT3), (2.5, SQRT3), u1))
        gap = cut._replace(pieces=tuple(rec for _, _, rec in sp.pieces))
        (r,) = per_polygon_ratios(d._replace(polygons=(gap,), sp=sp), w, tess)
        assert r.note == "inner path leaves the shortcut cell"

    def test_shared_pockets_price_to_one(self, pockets):
        tess, w, _, _, _, d = pockets
        for r in per_polygon_ratios(d, w, tess)[2:]:
            assert r.kind == 1
            assert r.ratio == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def corridor():
    tess, w, s, t = corridor_weights(4.0, 2.0, 4.0)
    res = approx_shortest_path(tess, w, s, t, level=2)
    x = crossing_path(walk_polyline(res.path))
    return tess, w, s, t, x


class TestComposeAndShortcuts:

    def test_corridor_detour(self, corridor):
        _, _, _, _, x = corridor
        assert x.corners == ((0, 2), (1, 1), (2, 2), (4, 2))

    def test_corridor_has_one_shortcut(self, corridor):
        tess, w, s, t, x = corridor
        (sc,) = shortcut_paths(x, tess)
        assert sc.cell == (1, 0)
        assert sc.corners == ((0, 2), (2, 2), (4, 2))
        assert grid_path_cost(w, sc.corners) == pytest.approx(16.0, abs=1e-12)

    def test_strip_path_has_no_shortcut(self):
        tess, w, s, t = strip(2)
        oracle = refine_until(tess, w, s, t)
        x = crossing_path(walk_polyline(oracle.path))
        assert shortcut_paths(x, tess) == ()


class TestEqualize:
    def setup_method(self):
        self.tess = Tessellation(1, 4)
        self.seg = [(0.0, 0.0), (5.0, SQRT3)]

    def test_reprices_to_neighbour_sum(self):
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        out = _equalize_core(w, visits(self.seg), (0, 2), self.tess)[0]
        assert out.values[0].tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_reprices_even_when_already_cheap(self):
        w = WeightMap([[1.0, 1.0, 1.0, 1.0]])
        out = _equalize_core(w, visits(self.seg), (0, 2), self.tess)[0]
        assert out.values[0].tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_keeps_an_equalized_weight(self):
        w = WeightMap([[1.0, 1.0, 2.0, 1.0]])
        out = _equalize_core(w, visits(self.seg), (0, 2), self.tess)[0]
        assert out.values[0].tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_blocks_cells_off_the_corridor(self):
        tess = Tessellation(2, 3)
        w = WeightMap([[1.0, 1.0, 3.0], [2.0, 2.0, 2.0]])
        out = _equalize_core(w, visits(self.seg), (0, 1), tess)[0]
        assert out.values[0].tolist() == [1.0, 4.0, 3.0]
        assert np.isinf(out.values[1]).all()

    def test_rejects_infinite_neighbour(self):
        w = WeightMap([[1.0, INF, 3.0, 1.0]])
        with pytest.raises(EqualizeError, match="finite"):
            _equalize_core(w, visits(self.seg), (0, 2), self.tess)

    def test_rejects_endpoint_cells(self):
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        with pytest.raises(EqualizeError, match="predecessor"):
            _equalize_core(w, visits(self.seg), (0, 0), self.tess)
        with pytest.raises(EqualizeError, match="successor"):
            _equalize_core(w, visits(self.seg), (0, 3), self.tess)

    def test_rejects_untraversed_cell(self):
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        short = [(0.0, 0.0), (2.5, SQRT3 / 2.0)]
        with pytest.raises(EqualizeError, match="not traversed"):
            _equalize_core(w, visits(short), (0, 3), self.tess)

    def test_keeps_both_sides_of_a_run_along_an_edge(self):
        # a run along the edge between (0, 1) and (1, 1), then across (0, 3) and (0, 4)
        tess = Tessellation(2, 5)
        w = WeightMap([[1.0, 1.0, 1.0, 3.0, 1.0], [1.0, 5.0, 1.0, 1.0, 1.0]])
        sp = [(1.0, SQRT3), (3.0, SQRT3), (4.5, SQRT3 / 2.0), (6.0, 0.0)]
        out, prev_cell, next_cell = _equalize_core(w, visits(sp), (0, 3), tess)
        assert (prev_cell, next_cell) == ((0, 1), (0, 4))
        assert out.values.tolist() == [[INF, 1.0, INF, 2.0, 1.0], [INF, 5.0, INF, INF, INF]]

    def test_an_edge_run_pays_for_its_cheaper_side(self):
        # the run of the test above, its upper cell now the cheaper side; the
        # visit keeps segment_walk's representative, the lower cell
        tess = Tessellation(2, 5)
        w = WeightMap([[1.0, 5.0, 1.0, 3.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
        sp = [(1.0, SQRT3), (3.0, SQRT3), (4.5, SQRT3 / 2.0), (6.0, 0.0)]
        assert visits(sp)[0].cell == (0, 1)
        out, prev_cell, next_cell = _equalize_core(w, visits(sp), (0, 3), tess)
        assert (prev_cell, next_cell) == ((1, 1), (0, 4))
        assert out.values[0, 3] == 2.0

    def test_rejects_repeated_traversal(self):
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        back_and_forth = [(0.0, 0.0), (2.5, SQRT3 / 2.0), (0.5, SQRT3 / 2.0)]
        with pytest.raises(EqualizeError, match="more than once"):
            _equalize_core(w, visits(back_and_forth), (0, 0), self.tess)


class TestDegenerateAndMediant:
    def test_zero_cost_pocket_with_real_detour_raises(self):
        tess = Tessellation(1, 4)
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        gap = GapPolygon(
            kind=3,
            pivot=(2, 0),
            cut_edges=(),
            shared=False,
            pieces=(),
            x_pieces=tuple(
                segment_walk((2.0, 0.0), (3.0, SQRT3)) + segment_walk((3.0, SQRT3), (4.0, 0.0))
            ),
        )
        d = CoincidenceDecomposition(polygons=(gap,), sp=walk_polyline(((2.0, 0.0), (2.0, 0.0))))
        with pytest.raises(DegeneratePolygonError):
            per_polygon_ratios(d, w, tess)


class TestRatioReport:
    def test_strip_k5_frozen_values(self):
        tess, w, s, t = strip(5)
        rep = ratio_report(tess, w, s, t)
        assert rep.sgp_cost == pytest.approx(20.0, abs=1e-9)
        assert rep.svp_cost == pytest.approx(10.0 * SQRT3, abs=1e-9)
        assert rep.sp_cost == pytest.approx(10.0 * SQRT3, abs=1e-9)
        assert rep.sgp_sp == pytest.approx(2.0 / SQRT3, abs=1e-7)
        assert rep.svp_sp == pytest.approx(1.0, abs=1e-9)
        assert rep.sgp_svp == pytest.approx(2.0 / SQRT3, abs=1e-7)
        assert rep.x_cost == pytest.approx(20.0, abs=1e-9)
        assert rep.histogram == (0, 0, 5, 0, 0, 0)
        assert rep.max_polygon_ratio == pytest.approx(2.0 / SQRT3, abs=1e-9)
        assert rep.converged

    def test_deterministic(self):
        tess, w = random_instance(11)
        s, t = far_endpoints(tess)
        assert ratio_report(tess, w, s, t) == ratio_report(tess, w, s, t)

    def test_coincident_endpoints(self):
        tess, w = random_instance(3)
        rep = ratio_report(tess, w, (0, 0), (0, 0))
        assert (rep.sgp_cost, rep.svp_cost, rep.sp_cost) == (0.0, 0.0, 0.0)
        assert (rep.sgp_sp, rep.svp_sp, rep.sgp_svp) == (1.0, 1.0, 1.0)
        assert rep.polygons == ()

    def test_a_run_along_one_edge_is_one_shared_piece(self):
        # SP runs along the edge from (3, 3) to (4, 4); reported through the
        # level-1 node at its middle, the run made two shared pockets
        tess, w = random_instance(4, rows=4, cols=5)
        rep = ratio_report(tess, w, (0, 0), (4, 4))
        shared = [p for p in rep.polygons if p.kind == 1 and p.pivot == (3, 3)]
        assert len(shared) == 1
        assert rep.histogram == (1, 0, 2, 0, 0, 0)

    def test_walks_sp_once(self, monkeypatch):
        # every layer reads one walk of SP; the only other walks are the
        # kind-2 rescue chords, and one of the two pockets here is equalized
        tess, w = random_instance(4)
        s, t = far_endpoints(tess)
        ratio_report(tess, w, s, t)  # the hop table's walks are made on first use
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return segment_walk(p, q)

        monkeypatch.setattr(analysis, "segment_walk", counting)
        monkeypatch.setattr(metric, "segment_walk", counting)
        rep = ratio_report(tess, w, s, t)
        assert rep.histogram[1] == 2
        assert any(p.equalized_ratio is not None for p in rep.polygons)
        assert len(calls) == len(rep.sp_path) - 1 + rep.histogram[1]

    def test_merges_sp_visits_once(self, monkeypatch):
        # the walk merges SP's cell visits; the crossing path and the
        # equalization of the kind-2 pocket here both read that one merge
        tess, w = random_instance(4)
        s, t = far_endpoints(tess)
        merge, calls = analysis._visit_sequence, []

        def counting(pieces):
            calls.append(pieces)
            return merge(pieces)

        monkeypatch.setattr(analysis, "_visit_sequence", counting)
        rep = ratio_report(tess, w, s, t)
        assert any(p.equalized_ratio is not None for p in rep.polygons)
        assert len(calls) == 1

    def test_locates_each_sp_point_once(self, monkeypatch):
        # the walk locates every vertex and piece end of SP, and no other
        # layer asks again: pockets price X's side from the edges they carry
        tess, w = random_instance(4)
        s, t = far_endpoints(tess)
        calls = []

        def counting(p, tol):
            calls.append((p, tol))
            return locate_point(p, tol)

        monkeypatch.setattr(analysis, "locate_point", counting)
        rep = ratio_report(tess, w, s, t)
        assert rep.histogram[1] == 2
        sp = rep.sp_path
        walks = [segment_walk(a, b) for a, b in zip(sp, sp[1:])]
        ends = [q for walk in walks for rec in walk for q in (rec.entry, rec.exit)]
        assert Counter(p for p, tol in calls if tol == EPS_GEO) == Counter(set(sp) | set(ends))
        assert all(tol == EPS_GEO for _, tol in calls)

    def test_prices_the_hop_matrix_and_builds_the_support_once(self, monkeypatch):
        # every level, and SVP as level 0, reads one solve context
        inst = gen_random(6, 6, seed=8)
        tess, w = inst.tessellation, inst.weights
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            metric.CornerHopTable,
            "cost_matrix",
            counting("cost_matrix", metric.CornerHopTable.cost_matrix),
        )
        monkeypatch.setattr(oracle, "_window_support", counting("support", oracle._window_support))
        rep = ratio_report(tess, w, (2, 0), (6, 6), max_level=3)
        assert rep.level == 3
        assert calls == {"cost_matrix": 1, "support": 1}

    def test_uniform_weights_stay_within_the_bound(self):
        tess = Tessellation(4, 5)
        w = WeightMap(np.full((4, 5), 3.0))
        rep = ratio_report(tess, w, (0, 0), (5, 3))
        assert rep.sgp_sp <= RATIO_BOUND + 1e-9
        assert rep.svp_sp <= RATIO_BOUND + 1e-9
        assert rep.sgp_svp <= RATIO_BOUND + 1e-9

    def test_scaling_weights_by_a_power_of_two_changes_nothing(self):
        tess, w = random_instance(29)
        s, t = far_endpoints(tess)
        base = ratio_report(tess, w, s, t)
        scaled = ratio_report(tess, WeightMap(w.values * 4.0), s, t)
        assert scaled.sgp_cost == pytest.approx(4.0 * base.sgp_cost, rel=1e-12)
        assert scaled.sp_cost == pytest.approx(4.0 * base.sp_cost, rel=1e-12)
        assert scaled.sgp_sp == base.sgp_sp
        assert scaled.svp_sp == base.svp_sp
        assert scaled.histogram == base.histogram
        assert [p.kind for p in scaled.polygons] == [p.kind for p in base.polygons]

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_instances_obey_all_bounds(self, seed):
        tess, w = random_instance(seed, rows=4, cols=5)
        s, t = far_endpoints(tess)
        try:
            rep = ratio_report(tess, w, s, t)
        except UnreachableError:
            return
        assert rep.sp_cost <= rep.svp_cost + 1e-9
        assert rep.svp_cost <= rep.sgp_cost + 1e-9
        assert rep.sgp_cost <= rep.x_cost + 1e-9
        assert rep.x_cost / rep.sp_cost <= rep.max_polygon_ratio + 1e-9
        for pr in rep.polygons:
            if pr.kind != 2:
                assert pr.bound_ok
            if pr.equalized_ok is not None:
                assert pr.equalized_ok


# -- reference decomposition ----------------------------------------------------
# Pockets found by intersecting every pair of SP and X segments and by
# measuring segment distances in the plane, and priced by walking each of
# their sides again. The decomposition reads its contacts off SP's walk
# alone and prices each pocket from its own pieces; it must find the same
# pockets at the same prices.

# The reference locates the points it derives at this looser tolerance.
_EPS_ON = 1e-6


def _boundary_location(p, tol):
    """locate_point's answer for a point that must lie on a corner or an edge."""
    kind, where = locate_point(p, tol)
    if kind == "cell":
        raise MalformedPathError(f"point {p!r} is not on the lattice boundary")
    return kind, where


def ref_seg_point_dist(p, a, b):
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    den = dx * dx + dy * dy
    if den <= 1e-24:
        return math.dist(p, a)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / den
    t = min(max(t, 0.0), 1.0)
    return math.dist(p, (ax + t * dx, ay + t * dy))


def ref_seg_events(a, b, c, d):
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
        lo, hi = max(min(tc, td), 0.0), min(max(tc, td), 1.0)
        if hi < lo - EPS_GEO / len1:
            return []
        hi = max(hi, lo)

        def back(t):
            return min(max((t - tc) / (td - tc), 0.0), 1.0)

        if hi - lo <= 1e-12:
            return [(lo, back(lo))]
        return [(lo, back(lo)), (hi, back(hi))]
    t = (qpx * d2y - qpy * d2x) / cross
    s = (qpx * d1y - qpy * d1x) / cross
    tol1, tol2 = EPS_GEO / len1, EPS_GEO / len2
    if -tol1 <= t <= 1.0 + tol1 and -tol2 <= s <= 1.0 + tol2:
        return [(min(max(t, 0.0), 1.0), min(max(s, 0.0), 1.0))]
    return []


def ref_seg_seg_dist(a, b, c, d):
    if ref_seg_events(a, b, c, d):
        return 0.0
    return min(
        ref_seg_point_dist(a, c, d),
        ref_seg_point_dist(b, c, d),
        ref_seg_point_dist(c, a, b),
        ref_seg_point_dist(d, a, b),
    )


def ref_seg_polyline_dist(a, b, pts):
    if len(pts) == 1:
        return ref_seg_point_dist(pts[0], a, b)
    return min(ref_seg_seg_dist(a, b, pts[k], pts[k + 1]) for k in range(len(pts) - 1))


def ref_point_polyline_dist(p, pts):
    if len(pts) == 1:
        return math.dist(p, pts[0])
    return min(ref_seg_point_dist(p, pts[k], pts[k + 1]) for k in range(len(pts) - 1))


def ref_polyline_cost(w, pts):
    return sum(segment_cost(w, p, q) for p, q in zip(pts, pts[1:]))


def ref_pocket_ratio(w, kind, sp_sub, sp_cost, x_cost):
    """(ratio, rescue ratio or None, bound_ok) of a pocket with these side costs."""
    if sp_cost <= 1e-12:
        return 1.0, None, True
    ratio = x_cost / sp_cost
    if kind != 2:
        return ratio, None, ratio <= RATIO_BOUND + RATIO_TOL
    rescue = segment_cost(w, sp_sub[0], sp_sub[-1]) / sp_cost
    return ratio, rescue, min(ratio, rescue) <= RATIO_BOUND + RATIO_TOL


def ref_shared_pivot(sp_sub):
    a, b = sp_sub[0], sp_sub[1]
    mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    kind, where = _boundary_location(mid, _EPS_ON)
    if kind == "corner":
        return where, ()
    edge = where[0]
    return edge[0], (edge,)


def ref_shared_gap(sp_sub, x_sub):
    if abs(_cum_lengths(sp_sub)[-1] - _cum_lengths(x_sub)[-1]) > _EPS_ON:
        return False
    if any(ref_point_polyline_dist(p, x_sub) > _EPS_ON for p in sp_sub):
        return False
    return all(ref_point_polyline_dist(p, sp_sub) <= _EPS_ON for p in x_sub)


def ref_classify(sp_sub, x_sub):
    cands = []
    for u in (sp_sub[0], sp_sub[-1]):
        kind, where = _boundary_location(u, _EPS_ON)
        if kind == "corner":
            cands.append({where} | set(adjacent_corners(where)))
        else:
            cands.append({c for e in where for c in e})
    if not cands[0] & cands[1]:
        raise TopologyError("pocket endpoints share no corner")
    on_x = {where for kind, where in (locate_point(p, _EPS_ON) for p in x_sub) if kind == "corner"}
    for pivot in sorted(cands[0] & cands[1], key=lambda c: (c not in on_x, c[1], c[0])):
        ends = [(pivot[0] + di, pivot[1] + dj) for di, dj in CORNER_STEPS_CCW]
        pp = corner_position(pivot)
        slots = [
            slot
            for slot, end in enumerate(ends)
            if ref_seg_polyline_dist(pp, corner_position(end), sp_sub) <= _EPS_ON
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
        return k, pivot, tuple(edge_key(pivot, ends[(start + m) % 6]) for m in range(k))
    raise TopologyError("pivot-incident edge contacts are not consecutive")


def ref_point_at(pts, cum, arc):
    """The point at arclength arc along polyline pts, whose arclengths are cum."""
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


def ref_slice_polyline(pts, cum, lo, hi):
    """The part of polyline pts from arclength lo to hi."""
    out = [ref_point_at(pts, cum, lo)]
    for k in range(1, len(pts) - 1):
        if lo + 1e-9 < cum[k] < hi - 1e-9:
            out.append(pts[k])
    out.append(ref_point_at(pts, cum, hi))
    return tuple(out)


def ref_coincidence_arcs(sp_pts, x_pts):
    sp_cum, x_cum = _cum_lengths(sp_pts), _cum_lengths(x_pts)
    events = []
    for i in range(len(sp_pts) - 1):
        la = sp_cum[i + 1] - sp_cum[i]
        if la <= 1e-12:
            continue
        for j in range(len(x_pts) - 1):
            lx = x_cum[j + 1] - x_cum[j]
            if lx <= 1e-12:
                continue
            for t, s in ref_seg_events(sp_pts[i], sp_pts[i + 1], x_pts[j], x_pts[j + 1]):
                events.append((sp_cum[i] + t * la, x_cum[j] + s * lx))
    if not events:
        raise TopologyError("paths never meet")
    events.sort()
    clusters = []
    for arc, xarc in events:
        if clusters and arc - clusters[-1][0] <= _ARC_TOL:
            clusters[-1][1].append(xarc)
        else:
            clusters.append((arc, [xarc]))
    out = []
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
                raise TopologyError("coincidence points out of order")
            chosen = cands[0]
        out.append((arc, max(chosen, prev)))
        prev = max(chosen, prev)
    if out[0][0] > _ARC_TOL or out[0][1] > _ARC_TOL:
        raise TopologyError("paths do not coincide at the source")
    if sp_cum[-1] - out[-1][0] > _ARC_TOL or x_cum[-1] - out[-1][1] > _ARC_TOL:
        raise TopologyError("paths do not coincide at the target")
    return out


def reference_decomposition(sp, x):
    """(points, [(kind, pivot, cut_edges, shared, sp_sub, x_sub)]) by pairwise geometry."""
    sp_pts = tuple(sp)
    x_pts = tuple(corner_position(c) for c in x.corners)
    sp_cum, x_cum = _cum_lengths(sp_pts), _cum_lengths(x_pts)
    arcs = ref_coincidence_arcs(sp_pts, x_pts)
    pockets = []
    for (lo_sp, lo_x), (hi_sp, hi_x) in zip(arcs, arcs[1:]):
        if hi_sp - lo_sp <= _ARC_TOL and hi_x - lo_x <= _ARC_TOL:
            continue
        sp_sub = ref_slice_polyline(sp_pts, sp_cum, lo_sp, hi_sp)
        x_sub = ref_slice_polyline(x_pts, x_cum, lo_x, hi_x)
        if ref_shared_gap(sp_sub, x_sub):
            pockets.append((1, *ref_shared_pivot(sp_sub), True, sp_sub, x_sub))
        else:
            pockets.append((*ref_classify(sp_sub, x_sub), False, sp_sub, x_sub))
    return tuple(ref_point_at(sp_pts, sp_cum, arc) for arc, _ in arcs), pockets


def assert_matches_reference(sp, x, w, tess):
    walk = walk_polyline(sp)
    try:
        d = coincidence_decomposition(walk, x)
    except TopologyError:
        with pytest.raises(TopologyError):
            reference_decomposition(sp, x)
        return
    points, pockets = reference_decomposition(sp, x)
    got = [(g.kind, g.pivot, g.cut_edges, g.shared) for g in d.polygons]
    assert got == [p[:4] for p in pockets]
    assert len(contact_points(d)) == len(points)
    for got, want in zip(contact_points(d), points):
        assert math.dist(got, want) <= 1e-12
    # X's side of each pocket ends where the reference's does, through the same corners
    for g, (*_, x_sub) in zip(d.polygons, pockets):
        x_points = (g.x_pieces[0].entry, *(rec.exit for rec in g.x_pieces))
        assert len(x_points) == len(x_sub)
        for got, want in zip(x_points, x_sub):
            assert math.dist(got, want) <= 1e-12
    # every walk piece lies in exactly one pocket, in walk order
    assert [rec for g in d.polygons for rec in g.pieces] == [rec for _, _, rec in walk.pieces]
    for g, (*_, sp_sub, x_sub), r in zip(d.polygons, pockets, per_polygon_ratios(d, w, tess)):
        sp_cost, x_cost = ref_polyline_cost(w, sp_sub), ref_polyline_cost(w, x_sub)
        assert math.isclose(walk_cost(w, g.pieces), sp_cost, rel_tol=1e-12)
        assert math.isclose(walk_cost(w, g.x_pieces), x_cost, rel_tol=1e-12)
        ratio, rescue, bound_ok = ref_pocket_ratio(w, g.kind, sp_sub, sp_cost, x_cost)
        assert math.isclose(r.ratio, ratio, rel_tol=1e-12)
        assert (r.rescue_ratio is None) == (rescue is None)
        if rescue is not None:
            assert math.isclose(r.rescue_ratio, rescue, rel_tol=1e-12)
        assert r.bound_ok == bound_ok
        if r.equalized_ratio is not None:
            (cell,) = set(edge_cells(g.cut_edges[0])) & set(edge_cells(g.cut_edges[1]))
            eq = _equalize_core(w, walk.visits, cell, tess)[0]
            want = ref_polyline_cost(eq, x_sub) / ref_polyline_cost(eq, sp_sub)
            assert math.isclose(r.equalized_ratio, want, rel_tol=1e-12)


class TestReferenceDecomposition:
    """The walk-read decomposition finds the pockets pairwise geometry finds,
    against SP's crossing path and against any other corner walk, such as
    the grid path."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([(3, 4), (4, 5), (6, 6), (5, 7)]),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
    )
    def test_random_and_maze_windows(self, shape, seed, maze):
        try:
            make = gen_two_weight_maze if maze else gen_random
            inst = make(*shape, seed=seed)
        except GenerationError:
            assume(False)
        tess, w = inst.tessellation, inst.weights
        sp = refine_until(tess, w, inst.source, inst.target).path
        assert_matches_reference(sp, crossing_path(walk_polyline(sp)), w, tess)
        sgp = shortest_grid_path(tess, w, inst.source, inst.target)
        assert_matches_reference(sp, CrossingPath(sgp.path, ()), w, tess)

    def test_hand_built_pockets(self, pockets, decomposition):
        tess, w, _, _, x, d = pockets
        assert_matches_reference(d.sp.points, x, w, tess)
        tess, w, _, x, d = decomposition
        assert_matches_reference(d.sp.points, x, w, tess)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_strips(self, k):
        tess, w, s, t = strip(k)
        sp = refine_until(tess, w, s, t).path
        assert_matches_reference(sp, crossing_path(walk_polyline(sp)), w, tess)

    def test_identical_paths(self):
        tess = Tessellation(1, 4)
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        sp = [corner_position(c) for c in ((0, 0), (2, 0), (3, 1))]
        assert_matches_reference(sp, crossing_path(walk_polyline(sp)), w, tess)

    @pytest.mark.parametrize(
        "walk",
        [
            # as long as SP, along other edges: not shared
            ((0, 0), (1, 1), (3, 1)),
            # along SP's first edge, but only after a loop back to the start
            ((0, 0), (1, 1), (0, 0), (2, 0), (3, 1)),
        ],
    )
    def test_corner_walks_off_sp(self, walk):
        sp = [corner_position(c) for c in ((0, 0), (2, 0), (3, 1))]
        x = CrossingPath(walk, ())
        d = coincidence_decomposition(walk_polyline(sp), x)
        assert not d.polygons[0].shared
        assert_matches_reference(sp, x, WeightMap([[1.0, 1.0, 3.0, 1.0]]), Tessellation(1, 4))


class TestConstants:
    def test_vertex_path_gap_constant(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        r = mp.sqrt(7 * mp.sqrt(3) - 12)
        expected = 2 * r / ((7 - 4 * mp.sqrt(3)) * (6 * mp.sqrt(2) + r))
        assert svp_lower_bound_constant() == pytest.approx(float(expected), abs=1e-9)

    def test_witness_offset(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        expected = (7 * mp.sqrt(3) - 12) / mp.sqrt(56 * mp.sqrt(3) - 96)
        assert svp_lower_bound_witness_offset() == pytest.approx(float(expected), abs=1e-9)

    def test_witness_one_bend_refraction_attains_the_constant(self):
        # SP on the witness runs up the shared edge from s at the light
        # cell's weight, then straight across the unit cell to t; its bend
        # sits where Snell's law holds along the edge
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        inst = gen_svp_witness()
        light = 7 - 4 * mp.sqrt(3)
        assert float(light) == pytest.approx(inst.weights.values[0, 1], rel=1e-15)
        s, apex, t = (
            mp.matrix([i, j * mp.sqrt(3)]) for i, j in (inst.source, (1, 1), inst.target)
        )
        for corner, point in ((inst.source, s), ((1, 1), apex), (inst.target, t)):
            assert corner_position(corner) == pytest.approx((float(point[0]), float(point[1])))
        along = (apex - s) / mp.norm(apex - s)

        def cost(a):
            return light * a + mp.norm(s + a * along - t)

        def slope(a):
            leg = s + a * along - t
            return light + (leg.T * along)[0] / mp.norm(leg)

        bend = mp.findroot(slope, 0.9)
        assert 0 < bend < mp.norm(apex - s)
        assert cost(bend) < min(cost(bend - mp.mpf("1e-6")), cost(bend + mp.mpf("1e-6")))
        root = mp.sqrt(7 * mp.sqrt(3) - 12)
        constant = 2 * root / ((7 - 4 * mp.sqrt(3)) * (6 * mp.sqrt(2) + root))
        offset = (7 * mp.sqrt(3) - 12) / mp.sqrt(56 * mp.sqrt(3) - 96)
        assert abs(2 / cost(bend) - constant) < mp.mpf("1e-30")
        assert abs((1 - bend) - offset) < mp.mpf("1e-30")
        assert svp_lower_bound_constant() == pytest.approx(float(constant), rel=1e-15)
        assert svp_lower_bound_witness_offset() == pytest.approx(float(offset), rel=1e-15)

    def test_constant_sits_below_the_grid_bound(self):
        assert 1.0 < svp_lower_bound_constant() < RATIO_BOUND


class TestAnomalySearch:
    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            search_p2_anomaly(0, 0)

    def test_single_trial_is_well_formed(self):
        res = search_p2_anomaly(5, 1)
        assert res.sp_cost > 0.0
        assert res.x_ratio >= 1.0 - 1e-12
        assert res.shortcut_ratio <= res.x_ratio + 1e-12

    def test_deterministic_in_the_seed(self):
        a = search_p2_anomaly(123, 40)
        b = search_p2_anomaly(123, 40)
        assert a.x_ratio == b.x_ratio
        assert a.weights.values.tolist() == b.weights.values.tolist()

    def test_finds_a_poor_crossing_path_that_shortcuts_repair(self):
        res = search_p2_anomaly(42, 300)
        assert res.x_ratio > 1.25
        assert res.shortcut_ratio <= RATIO_BOUND + 1e-6
