import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from trigrid.grid_paths import shortest_grid_path, shortest_vertex_path
from trigrid.instances import (
    GenerationError,
    Instance,
    ParseError,
    export_svg,
    gen_random,
    gen_strip,
    gen_svp_witness,
    gen_two_weight_maze,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from trigrid.metric import WeightMap
from trigrid.oracle import approx_shortest_path
from trigrid.tessellation import SQRT3, Tessellation, cell_vertices

TWO_OVER_SQRT3 = 2.0 / SQRT3


class TestGenStrip:
    def test_two_finite_cells_per_level(self):
        for k in (1, 3):
            inst = gen_strip(k)
            finite = [
                (r, c)
                for r in range(inst.tessellation.rows)
                for c in range(inst.tessellation.cols)
                if math.isfinite(inst.weights.values[r, c])
            ]
            assert finite == [(r, 1) for r in range(2 * k)]

    def test_costs_match_closed_forms(self):
        for k in range(1, 6):
            inst = gen_strip(k)
            sgp = shortest_grid_path(
                inst.tessellation, inst.weights, inst.source, inst.target
            )
            sp = approx_shortest_path(
                inst.tessellation, inst.weights, inst.source, inst.target, level=1
            )
            assert sgp.cost == 4.0 * k
            assert sp.cost == pytest.approx(2.0 * SQRT3 * k, abs=1e-6)
            assert sgp.cost / sp.cost == pytest.approx(TWO_OVER_SQRT3, abs=1e-6)

    def test_endpoints_and_label(self):
        inst = gen_strip(4)
        assert inst.source == (2, 0)
        assert inst.target == (2, 8)
        assert "shift2" in inst.label

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            gen_strip(0)
        with pytest.raises(ValueError):
            gen_strip(-2)


class TestGenRandom:
    def test_deterministic_in_seed(self):
        a = gen_random(3, 4, seed=1)
        b = gen_random(3, 4, seed=1)
        assert np.array_equal(a.weights.values, b.weights.values)
        assert (a.source, a.target, a.label) == (b.source, b.target, b.label)

    def test_inf_prob_zero_keeps_all_cells_finite(self):
        inst = gen_random(4, 5, seed=9, inf_prob=0.0)
        assert np.isfinite(inst.weights.values).all()

    def test_unit_bounds_give_euclidean_weights(self):
        inst = gen_random(2, 3, seed=5, weight_low=1.0, weight_high=1.0, inf_prob=0.0)
        assert (inst.weights.values == 1.0).all()

    def test_weights_stay_inside_bounds(self):
        for seed in range(8):
            inst = gen_random(3, 4, seed=seed, weight_low=0.5, weight_high=2.0)
            vals = inst.weights.values
            finite = vals[np.isfinite(vals)]
            assert ((finite >= 0.5) & (finite <= 2.0)).all()

    def test_endpoints_are_reachable(self):
        inst = gen_random(4, 5, seed=7)
        shortest_grid_path(inst.tessellation, inst.weights, inst.source, inst.target)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_random(3, 4, seed=0, inf_prob=1.0)
        with pytest.raises(ValueError):
            gen_random(3, 4, seed=0, weight_low=0.0)
        with pytest.raises(ValueError):
            gen_random(3, 4, seed=0, weight_low=3.0, weight_high=2.0)
        with pytest.raises(ValueError):
            gen_random(0, 4, seed=0)


class TestGenMaze:
    def test_weights_are_two_valued(self):
        inst = gen_two_weight_maze(5, 6, seed=3)
        vals = {float(w) for row in inst.weights.values for w in row}
        assert vals <= {1.0, math.inf}

    def test_zero_wall_prob_means_all_unit(self):
        inst = gen_two_weight_maze(3, 3, seed=0, wall_prob=0.0)
        assert (inst.weights.values == 1.0).all()

    def test_deterministic_in_seed(self):
        a = gen_two_weight_maze(5, 6, seed=11)
        b = gen_two_weight_maze(5, 6, seed=11)
        assert np.array_equal(a.weights.values, b.weights.values)

    def test_exhausted_retries_raise(self):
        with pytest.raises(GenerationError):
            gen_two_weight_maze(5, 5, seed=0, wall_prob=0.99)

    def test_rejects_bad_wall_prob(self):
        with pytest.raises(ValueError):
            gen_two_weight_maze(3, 3, seed=0, wall_prob=1.0)


class TestGenSvpWitness:
    def test_two_cells_share_the_edge_from_the_source(self):
        inst = gen_svp_witness()
        assert (inst.tessellation.rows, inst.tessellation.cols) == (1, 2)
        assert inst.weights.values.tolist() == [[1.0, 7.0 - 4.0 * SQRT3]]
        assert (inst.source, inst.target, inst.label) == ((2, 0), (0, 0), "svp-witness")
        light, heavy = cell_vertices((0, 1)), cell_vertices((0, 0))
        assert inst.target in heavy and inst.target not in light
        assert set(light) & set(heavy) == {inst.source, (1, 1)}

    def test_vertex_path_is_the_bottom_edge_hop(self):
        inst = gen_svp_witness()
        svp = shortest_vertex_path(inst.tessellation, inst.weights, inst.source, inst.target)
        assert svp.path == ((2, 0), (0, 0)) and svp.cost == 2.0

    def test_round_trip_is_exact(self):
        inst = gen_svp_witness()
        back = parse_instance(serialize_instance(inst), inst.label)
        assert np.array_equal(back.weights.values, inst.weights.values)
        assert (back.source, back.target, back.label) == (inst.source, inst.target, inst.label)


class TestInstanceValidation:
    def test_rejects_mismatched_grid(self):
        with pytest.raises(ValueError, match="does not match"):
            Instance(Tessellation(2, 2), WeightMap([[1.0, 1.0]]), (0, 0), (2, 0), "bad")

    def test_rejects_parity_invalid_endpoint(self):
        with pytest.raises(ValueError, match="source"):
            Instance(
                Tessellation(2, 2), WeightMap(np.ones((2, 2))), (1, 0), (2, 0), "bad"
            )

    def test_rejects_out_of_window_endpoint(self):
        with pytest.raises(ValueError, match="target"):
            Instance(
                Tessellation(2, 2), WeightMap(np.ones((2, 2))), (0, 0), (8, 0), "bad"
            )


class TestParseSerialize:
    def test_round_trip_is_exact(self):
        inst = gen_random(3, 4, seed=1)
        back = parse_instance(serialize_instance(inst), label=inst.label)
        assert np.array_equal(back.weights.values, inst.weights.values)
        assert (back.source, back.target) == (inst.source, inst.target)

    def test_serialization_is_a_fixpoint(self):
        text = serialize_instance(gen_random(2, 3, seed=4, inf_prob=0.3))
        assert serialize_instance(parse_instance(text)) == text

    def test_comments_and_blank_lines_are_ignored(self):
        text = """
        # tiny window
        TRIGRID 1
        ROWS 1 COLS 2   # one strip of two cells

        WEIGHTS
        1.5 inf
        SOURCE 0 0
        TARGET 2 0
        """
        inst = parse_instance(text)
        assert inst.weights.values[0, 0] == 1.5
        assert math.isinf(inst.weights.values[0, 1])
        assert inst.target == (2, 0)

    def test_inf_token(self):
        inst = parse_instance(
            "TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\ninf\nSOURCE 0 0\nTARGET 2 0\n"
        )
        assert math.isinf(inst.weights.values[0, 0])

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "unexpected end"),
            ("TRIGRID 2\nROWS 1 COLS 1\n", "header"),
            ("TRIGRID 1\nROWS 1\n", "ROWS"),
            ("TRIGRID 1\nROWS 0 COLS 1\nWEIGHTS\n", "at least 1"),
            ("TRIGRID 1\nROWS 1 COLS 2\nWEIGHTS\n1.0\nSOURCE 0 0\nTARGET 2 0\n", "line 4"),
            ("TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\n0\nSOURCE 0 0\nTARGET 2 0\n", "positive"),
            ("TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\n-2\nSOURCE 0 0\nTARGET 2 0\n", "positive"),
            ("TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\nnan\nSOURCE 0 0\nTARGET 2 0\n", "positive"),
            ("TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\nabc\nSOURCE 0 0\nTARGET 2 0\n", "not a weight"),
            ("TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\n1.0\nSOURCE 0 0\n", "unexpected end"),
            (
                "TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\n1.0\nSOURCE 0 0\nTARGET 2 0\nEXTRA\n",
                "trailing",
            ),
        ],
    )
    def test_syntax_errors_carry_context(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_instance(text)

    def test_parity_invalid_endpoint_rejected(self):
        text = "TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\n1.0\nSOURCE 1 0\nTARGET 2 0\n"
        with pytest.raises(ValueError, match="source"):
            parse_instance(text)

    def test_file_round_trip_uses_stem_as_label(self, tmp_path):
        inst = gen_strip(2)
        path = tmp_path / "strip-two.trigrid"
        save_instance(path, inst)
        back = load_instance(path)
        assert back.label == "strip-two"
        assert np.array_equal(back.weights.values, inst.weights.values)


class TestExportSvg:
    def test_strip_fills_exactly_the_finite_cells(self):
        svg = export_svg(gen_strip(1))
        root = ET.fromstring(svg)
        polygons = [e for e in root if e.tag.endswith("polygon")]
        filled = [e for e in polygons if e.get("fill") != "none"]
        assert len(polygons) == 6
        assert len(filled) == 2

    def test_no_paths_means_cells_only(self):
        root = ET.fromstring(export_svg(gen_strip(1)))
        assert not [e for e in root if e.tag.endswith("polyline")]

    def test_path_labels_pick_stroke_colors(self):
        inst = gen_strip(1)
        line = [inst.source, inst.target]
        svg = export_svg(
            inst,
            {"sp": line, "svp": line, "sgp": line, "x": line, "pi": line, "??": line},
        )
        strokes = [
            e.get("stroke")
            for e in ET.fromstring(svg)
            if e.tag.endswith("polyline")
        ]
        assert strokes == ["blue", "green", "red", "orange", "purple", "black"]

    def test_corner_vertices_are_embedded(self):
        inst = gen_strip(1)
        svg = export_svg(inst, {"sgp": [inst.source, inst.target]})
        line = next(e for e in ET.fromstring(svg) if e.tag.endswith("polyline"))
        first = line.get("points").split()[0]
        height = inst.tessellation.rows * SQRT3
        assert first == f"{2.0 + 0.5:.4f},{height - 0.0 + 0.5:.4f}"

    def test_single_vertex_paths_are_skipped(self):
        root = ET.fromstring(export_svg(gen_strip(1), {"sp": [(2, 0)]}))
        assert not [e for e in root if e.tag.endswith("polyline")]

    def test_float_vertices_pass_through(self):
        inst = gen_strip(1)
        oracle = approx_shortest_path(
            inst.tessellation, inst.weights, inst.source, inst.target, level=1
        )
        svg = export_svg(inst, {"sp": oracle.path})
        assert ET.fromstring(svg) is not None
