import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigrid.grid_paths import UnreachableError, shortest_grid_path
from trigrid.metric import WeightMap, polyline_cost
from trigrid.oracle import approx_shortest_path, refine_until
from trigrid.analysis import (
    RATIO_BOUND,
    CoincidenceDecomposition,
    CrossingPath,
    DegeneratePolygonError,
    EqualizeError,
    GapPolygon,
    MalformedPathError,
    Shortcut,
    _classify,
    _equalize_core,
    coincidence_decomposition,
    crossing_path,
    grid_path_cost,
    law_of_cosines_dist,
    per_polygon_ratios,
    ratio_report,
    search_p2_anomaly,
    shortcut_paths,
    svp_lower_bound_constant,
    svp_lower_bound_witness_offset,
)
from trigrid.tessellation import SQRT3, Tessellation, corner_position

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


def far_endpoints(tess):
    ti = tess.cols + 1 if (tess.cols + 1 + tess.rows) % 2 == 0 else tess.cols
    return (0, 0), (ti, tess.rows)


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
        x = crossing_path(oracle.path, w, tess)
        assert x.corners == ((2, 0), (3, 1), (2, 2), (3, 3), (2, 4))
        assert grid_path_cost(w, x.corners) == pytest.approx(8.0, abs=1e-12)
        assert [seg.case for seg in x.segments] == [
            "endpoint-pivot",
            "to-corner",
            "endpoint-pivot",
            "to-corner",
        ]

    def test_grid_path_maps_to_itself(self):
        tess = Tessellation(1, 4)
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        walk = ((0, 0), (2, 0), (3, 1))
        sp = [corner_position(c) for c in walk]
        x = crossing_path(sp, w, tess)
        assert x.corners == walk
        assert all(seg.case == "same-edge" for seg in x.segments)

    def test_collinear_pieces_of_one_edge_merge(self):
        tess, w, s, t = corridor_weights(2.0, 1.5, 3.0)
        y = 2.0 * SQRT3
        sp = [(0.0, y), (0.5, y), (1.3, y), (2.0, y), (3.1, y), (4.0, y)]
        x = crossing_path(sp, w, tess)
        assert x.corners == ((0, 2), (2, 2), (4, 2))

    def test_rejects_vertex_inside_a_cell(self):
        tess = Tessellation(1, 4)
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        with pytest.raises(MalformedPathError):
            crossing_path([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)], w, tess)

    def test_rejects_endpoint_off_corner(self):
        tess = Tessellation(1, 4)
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        with pytest.raises(MalformedPathError):
            crossing_path([(1.0, 0.0), (2.0, 0.0)], w, tess)


class TestCoincidence:
    def test_strip_meets_only_at_endpoints(self):
        tess, w, s, t = strip(1)
        oracle = refine_until(tess, w, s, t)
        x = crossing_path(oracle.path, w, tess)
        d = coincidence_decomposition(oracle.path, x, tess)
        assert len(d.points) == 2
        assert d.points[0] == pytest.approx((2.0, 0.0), abs=1e-9)
        assert d.points[-1] == pytest.approx((2.0, 2.0 * SQRT3), abs=1e-9)

    def test_identical_paths_meet_at_every_vertex(self):
        tess = Tessellation(1, 4)
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        walk = ((0, 0), (2, 0), (3, 1))
        sp = [corner_position(c) for c in walk]
        x = crossing_path(sp, w, tess)
        d = coincidence_decomposition(sp, x, tess)
        assert len(d.points) == 3
        for point, corner in zip(d.points, walk):
            assert point == pytest.approx(corner_position(corner), abs=1e-9)
        assert all(g.kind == 1 and g.shared for g in d.polygons)
        for r in per_polygon_ratios(d, w, tess):
            assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_strip_k2_meets_at_middle_corner(self):
        tess, w, s, t = strip(2)
        oracle = refine_until(tess, w, s, t)
        x = crossing_path(oracle.path, w, tess)
        d = coincidence_decomposition(oracle.path, x, tess)
        assert len(d.points) == 3
        assert d.points[1] == pytest.approx((2.0, 2.0 * SQRT3), abs=1e-9)
        assert [g.kind for g in d.polygons] == [3, 3]
        assert [g.pivot for g in d.polygons] == [(3, 1), (3, 3)]


class TestClassifyPolygon:
    def test_same_edge_bulge_is_kind_one(self):
        # the bulge bends inside a cell, which crossing_path refuses as a path
        # vertex, so no decomposition yields it: classify the sub-paths directly
        sp_sub = ((0.5, 0.0), (1.0, 0.5), (1.5, 0.0))
        x_sub = ((0.5, 0.0), (1.5, 0.0))
        assert _classify(sp_sub, x_sub) == (1, (0, 0), (((0, 0), (2, 0)),))

    def test_strip_gap_is_kind_three(self):
        tess, w, s, t = strip(1)
        oracle = refine_until(tess, w, s, t)
        x = crossing_path(oracle.path, w, tess)
        d = coincidence_decomposition(oracle.path, x, tess)
        (gap,) = d.polygons
        assert (gap.kind, gap.pivot, gap.shared) == (3, (3, 1), False)


@pytest.fixture(scope="module")
def decomposition():
    tess = Tessellation(1, 4)
    w = WeightMap([[4.0, 1.0, 4.0, 4.0]])
    res = approx_shortest_path(tess, w, (0, 0), (4, 0), level=3)
    x = crossing_path(res.path, w, tess)
    return tess, w, res, x, coincidence_decomposition(res.path, x, tess)


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
        u0, u1, pv = gap.sp_points[0], gap.sp_points[-1], corner_position(gap.pivot)
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
    x = crossing_path(sp, w, tess)
    d = coincidence_decomposition(sp, x, tess)
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

    def test_corner_start_pocket_reports_reason(self, pockets):
        tess, w, _, _, _, d = pockets
        first = per_polygon_ratios(d, w, tess)[0]
        assert first.equalized_ratio is None
        assert first.note != ""

    def test_shared_pockets_price_to_one(self, pockets):
        tess, w, _, _, _, d = pockets
        for r in per_polygon_ratios(d, w, tess)[2:]:
            assert r.kind == 1
            assert r.ratio == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def corridor():
    tess, w, s, t = corridor_weights(4.0, 2.0, 4.0)
    res = approx_shortest_path(tess, w, s, t, level=2)
    x = crossing_path(res.path, w, tess)
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
        x = crossing_path(oracle.path, w, tess)
        assert shortcut_paths(x, tess) == ()


class TestEqualize:
    def setup_method(self):
        self.tess = Tessellation(1, 4)
        self.seg = [(0.0, 0.0), (5.0, SQRT3)]

    def test_reprices_to_neighbour_sum(self):
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        out = _equalize_core(w, self.seg, (0, 2), self.tess)[0]
        assert out.values[0].tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_reprices_even_when_already_cheap(self):
        w = WeightMap([[1.0, 1.0, 1.0, 1.0]])
        out = _equalize_core(w, self.seg, (0, 2), self.tess)[0]
        assert out.values[0].tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_keeps_an_equalized_weight(self):
        w = WeightMap([[1.0, 1.0, 2.0, 1.0]])
        out = _equalize_core(w, self.seg, (0, 2), self.tess)[0]
        assert out.values[0].tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_blocks_cells_off_the_corridor(self):
        tess = Tessellation(2, 3)
        w = WeightMap([[1.0, 1.0, 3.0], [2.0, 2.0, 2.0]])
        out = _equalize_core(w, self.seg, (0, 1), tess)[0]
        assert out.values[0].tolist() == [1.0, 4.0, 3.0]
        assert np.isinf(out.values[1]).all()

    def test_rejects_infinite_neighbour(self):
        w = WeightMap([[1.0, INF, 3.0, 1.0]])
        with pytest.raises(EqualizeError, match="finite"):
            _equalize_core(w, self.seg, (0, 2), self.tess)

    def test_rejects_endpoint_cells(self):
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        with pytest.raises(EqualizeError, match="predecessor"):
            _equalize_core(w, self.seg, (0, 0), self.tess)
        with pytest.raises(EqualizeError, match="successor"):
            _equalize_core(w, self.seg, (0, 3), self.tess)

    def test_rejects_untraversed_cell(self):
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        short = [(0.0, 0.0), (2.5, SQRT3 / 2.0)]
        with pytest.raises(EqualizeError, match="not traversed"):
            _equalize_core(w, short, (0, 3), self.tess)

    def test_rejects_repeated_traversal(self):
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        back_and_forth = [(0.0, 0.0), (2.5, SQRT3 / 2.0), (0.5, SQRT3 / 2.0)]
        with pytest.raises(EqualizeError, match="more than once"):
            _equalize_core(w, back_and_forth, (0, 0), self.tess)


class TestDegenerateAndMediant:
    def test_zero_cost_pocket_with_real_detour_raises(self):
        tess = Tessellation(1, 4)
        w = WeightMap([[1.0, 1.0, 3.0, 1.0]])
        gap = GapPolygon(
            kind=3,
            pivot=(2, 0),
            sp_points=((2.0, 0.0), (2.0, 0.0)),
            x_points=((2.0, 0.0), (3.0, SQRT3), (4.0, 0.0)),
            cut_edges=(),
            shared=False,
        )
        d = CoincidenceDecomposition(
            points=((2.0, 0.0), (2.0, 0.0)),
            polygons=(gap,),
            sp_points=((2.0, 0.0), (2.0, 0.0)),
            x=CrossingPath(((2, 0), (3, 1), (4, 0)), ()),
        )
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
