import concurrent.futures
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from trigrid.cli import CSV_HEADER, main
from trigrid.instances import Instance, gen_strip, save_instance, serialize_instance
from trigrid.metric import WeightMap
from trigrid.tessellation import SQRT3, Tessellation


@pytest.fixture()
def strip5(tmp_path):
    path = tmp_path / "strip5.trigrid"
    save_instance(path, gen_strip(5))
    return str(path)


@pytest.fixture()
def blocked(tmp_path):
    path = tmp_path / "blocked.trigrid"
    path.write_text(
        "TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\ninf\nSOURCE 0 0\nTARGET 2 0\n",
        encoding="utf-8",
    )
    return str(path)


class TestSolve:
    def test_sgp_prints_cost_and_corners(self, strip5, capsys):
        assert main(["solve", strip5, "--method", "sgp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "20.000000000"
        assert lines[1] == "2 0"
        assert lines[-1] == "2 10"
        assert len(lines) == 12

    def test_sp_cost_level_and_points(self, strip5, capsys):
        assert main(["solve", strip5, "--method", "sp", "--rel-tol", "1e-6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0]) == pytest.approx(10.0 * SQRT3, abs=1e-6)
        assert lines[-1].startswith("level ")
        for line in lines[1:-1]:
            x, y = (float(tok) for tok in line.split())
            assert math.isfinite(x) and math.isfinite(y)

    def test_steiner_level_zero_matches_svp(self, strip5, capsys):
        assert main(["solve", strip5, "--method", "svp"]) == 0
        svp_cost = capsys.readouterr().out.splitlines()[0]
        assert main(["solve", strip5, "--method", "sp", "--steiner-level", "0"]) == 0
        sp_cost = capsys.readouterr().out.splitlines()[0]
        assert sp_cost == svp_cost

    def test_unreachable_exits_2(self, blocked, capsys):
        assert main(["solve", blocked, "--method", "sgp"]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["solve", "/no/such/file", "--method", "sgp"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_method_exits_1(self, strip5, capsys):
        assert main(["solve", strip5, "--method", "dijkstra"]) == 1

    @pytest.mark.parametrize("flag", ["--steiner-level", "--max-level"])
    def test_level_over_node_budget_exits_1(self, strip5, flag, capsys):
        for level in ("64", "11"):
            assert main(["solve", strip5, "--method", "sp", flag, level]) == 1
            assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["svp", "sp"])
    def test_window_over_hop_table_budget_exits_1(self, tmp_path, method, capsys):
        # level 1 fits the Steiner node budget on 200x200, so the hop table refuses
        path = tmp_path / "big.trigrid"
        ones = WeightMap(np.ones((200, 200)))
        save_instance(path, Instance(Tessellation(200, 200), ones, (0, 0), (2, 0), "big"))
        assert main(["solve", str(path), "--method", method, "--steiner-level", "1"]) == 1
        assert "hop table needs more than the budget" in capsys.readouterr().err

    def test_svg_side_output(self, strip5, tmp_path, capsys):
        out = tmp_path / "strip.svg"
        assert main(["solve", strip5, "--method", "sgp", "--svg", str(out)]) == 0
        capsys.readouterr()
        root = ET.fromstring(out.read_text(encoding="utf-8"))
        strokes = [e.get("stroke") for e in root if e.tag.endswith("polyline")]
        assert strokes == ["red"]


class TestRatio:
    def test_header_and_strip_row(self, strip5, capsys):
        assert main(["ratio", strip5, "--header"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == CSV_HEADER
        fields = row.split(",")
        assert fields[0] == "strip5"
        assert fields[1] == "20.000000000"
        assert float(fields[4]) == pytest.approx(2.0 / SQRT3, abs=1e-6)
        histogram = [int(n) for n in fields[9:15]]
        assert histogram == [0, 0, 5, 0, 0, 0]

    def test_deterministic_apart_from_timing(self, strip5, capsys):
        assert main(["ratio", strip5]) == 0
        first = capsys.readouterr().out.strip().split(",")
        assert main(["ratio", strip5]) == 0
        second = capsys.readouterr().out.strip().split(",")
        assert first[:-1] == second[:-1]

    def test_coincident_endpoints_report_unit_ratios(self, tmp_path, capsys):
        path = tmp_path / "point.trigrid"
        path.write_text(
            "TRIGRID 1\nROWS 1 COLS 1\nWEIGHTS\n1.0\nSOURCE 0 0\nTARGET 0 0\n",
            encoding="utf-8",
        )
        assert main(["ratio", str(path)]) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[1:4] == ["0.000000000"] * 3
        assert fields[4:7] == ["1.000000000"] * 3

    def test_unreachable_exits_2(self, blocked, capsys):
        assert main(["ratio", blocked]) == 2

    @pytest.mark.parametrize("rel_tol", ["0", "nan"])
    def test_non_positive_rel_tol_exits_1(self, strip5, rel_tol, capsys):
        assert main(["ratio", strip5, "--rel-tol", rel_tol]) == 1
        assert "rel_tol must be positive" in capsys.readouterr().err


class TestVerify:
    def test_bounds_suite_passes(self, capsys):
        assert main(["verify", "bounds", "--trials", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "bounds: 4 trials, 0 violations" in out

    def test_polygons_suite_passes(self, capsys):
        assert main(["verify", "polygons", "--trials", "4", "--seed", "3"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_oracle_suite_passes(self, capsys):
        assert main(["verify", "oracle", "--trials", "3", "--seed", "1"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_oracle_suite_checks_level_zero_against_vertex_path(self, capsys, monkeypatch):
        from trigrid import cli
        from trigrid.grid_paths import shortest_vertex_path

        args = ["verify", "oracle", "--trials", "3", "--seed", "1"]
        assert main(args) == 0
        assert "oracle: 3 trials, 0 violations" in capsys.readouterr().out

        def off_by_a_part_in_1e9(*a):
            res = shortest_vertex_path(*a)
            return res._replace(cost=res.cost * (1.0 + 1e-9))

        monkeypatch.setattr(cli, "shortest_vertex_path", off_by_a_part_in_1e9)
        assert main(args) == 3
        out = capsys.readouterr().out
        assert "differs from vertex path" in out
        assert "oracle: 3 trials, 3 violations" in out

    def test_oracle_trial_prices_the_hop_matrix_and_builds_the_support_once(self, monkeypatch):
        # levels 0-3 share one solve context; SVP stays an independent check
        from collections import Counter

        from trigrid import cli, metric, oracle

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
        monkeypatch.setattr(oracle, "_steiner_support", counting("support", oracle._steiner_support))
        assert cli._check_oracle(cli._trial_instance(1, 1), 1) == []
        assert calls == {"cost_matrix": 2, "support": 1}

    def test_jobs_do_not_change_output(self, capsys):
        assert main(["verify", "bounds", "--trials", "3", "--seed", "5"]) == 0
        serial = capsys.readouterr().out
        assert main(["verify", "bounds", "--trials", "3", "--seed", "5", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    @pytest.mark.parametrize("cores, expected", [(2, 2), (None, 1)])
    def test_jobs_capped_at_core_count(self, cores, expected, capsys, monkeypatch):
        seen = []

        class RecordingPool:
            """Stands in for the process pool: records its size, runs in-process."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert main(["verify", "bounds", "--trials", "2", "--seed", "5", "--jobs", "64"]) == 0
        assert seen == [expected]
        assert "bounds: 2 trials, 0 violations" in capsys.readouterr().out

    def test_violation_line_names_trial_and_instance(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "trigrid.cli._verify_trial", lambda suite, seed, trial, rel_tol: (trial, ["boom"])
        )
        assert main(["verify", "bounds", "--trials", "4", "--seed", "2"]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "violation trial=0 instance=random-3x4-s200006: boom",
            "violation trial=1 instance=random-4x5-s200007: boom",
            "violation trial=2 instance=random-5x6-s200008: boom",
            "violation trial=3 instance=maze-6x6-s200009: boom",
            "bounds: 4 trials, 4 violations",
        ]

    def test_zero_trials_exits_1(self, capsys):
        assert main(["verify", "bounds", "--trials", "0"]) == 1

    @pytest.mark.parametrize("suite", ["bounds", "polygons"])
    def test_nan_rel_tol_exits_1(self, suite, capsys):
        assert main(["verify", suite, "--trials", "1", "--rel-tol", "nan"]) == 1
        assert "rel_tol must be positive" in capsys.readouterr().err

    def test_violations_exit_3(self, capsys, monkeypatch):
        # shrink the bound below 1 so honest reports must trip it
        monkeypatch.setattr("trigrid.cli.RATIO_BOUND", 0.5)
        assert main(["verify", "bounds", "--trials", "2", "--seed", "7"]) == 3
        out = capsys.readouterr().out
        assert "violation trial=" in out
        assert "exceeds" in out


class TestGenerate:
    def test_strip_file_contents(self, tmp_path, capsys):
        out = tmp_path / "s.trigrid"
        assert main(["generate", "strip", "--k", "5", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == serialize_instance(gen_strip(5))
        assert sum(1 for tok in text.split() if tok == "1.0") == 10

    def test_random_is_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.trigrid", tmp_path / "b.trigrid"
        assert main(["generate", "random", "--seed", "1", "--out", str(a)]) == 0
        assert main(["generate", "random", "--seed", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_maze_is_two_valued(self, tmp_path, capsys):
        out = tmp_path / "m.trigrid"
        assert main(["generate", "maze", "--seed", "2", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = lines[lines.index("WEIGHTS") + 1 : lines.index("WEIGHTS") + 5]
        values = {tok for line in rows for tok in line.split()}
        assert values <= {"1.0", "inf"}

    def test_strip_k_zero_exits_1(self, tmp_path, capsys):
        assert main(["generate", "strip", "--k", "0", "--out", str(tmp_path / "x")]) == 1

    def test_strip_without_k_exits_1(self, tmp_path, capsys):
        assert main(["generate", "strip", "--out", str(tmp_path / "x")]) == 1

    def test_missing_out_exits_1(self, capsys):
        assert main(["generate", "strip", "--k", "1"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out
