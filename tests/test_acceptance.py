"""End-to-end acceptance: the package's headline guarantees on real sweeps.

Each test prints one summary line so a verbose run reads as a checklist.
The sweep fixtures are module scoped; several tests share one instance
corpus and its reports.
"""

import itertools
import math
import random
import time

import mpmath
import pytest

from trigrid.analysis import (
    RATIO_BOUND,
    coincidence_decomposition,
    crossing_path,
    ratio_report,
    search_p2_anomaly,
    svp_lower_bound_constant,
    svp_lower_bound_witness_offset,
    walk_polyline,
)
from trigrid.grid_paths import shortest_grid_path, shortest_vertex_path
from trigrid.instances import GenerationError, gen_random, gen_strip, gen_two_weight_maze
from trigrid.metric import segment_cost
from trigrid.oracle import approx_shortest_path, refine_until
from trigrid.tessellation import (
    EPS_GEO,
    SQRT3,
    Tessellation,
    are_adjacent,
    cell_edges,
    corner_position,
    edge_key,
    locate_point,
)
from trigrid.metric import WeightMap
from test_analysis import law_of_cosines_dist

RANDOM_PLAN = (((4, 5), 350), ((6, 6), 100), ((8, 7), 40), ((10, 9), 8), ((12, 12), 2))
MAZE_COUNT = 200


def _generate(builder, count, seed_base):
    out = []
    seed = 0
    while len(out) < count:
        try:
            out.append(builder(seed_base + seed))
        except GenerationError:
            pass
        seed += 1
    return out


@pytest.fixture(scope="module")
def sweep():
    instances = []
    for class_id, ((rows, cols), count) in enumerate(RANDOM_PLAN):
        instances.extend(
            _generate(
                lambda s, r=rows, c=cols: gen_random(r, c, seed=s),
                count,
                10_000 * class_id,
            )
        )
    instances.extend(
        _generate(lambda s: gen_two_weight_maze(5, 6, seed=s), MAZE_COUNT, 90_000)
    )
    start = time.perf_counter()
    reports = [
        ratio_report(inst.tessellation, inst.weights, inst.source, inst.target)
        for inst in instances
    ]
    elapsed = time.perf_counter() - start
    return instances, reports, elapsed


def test_criterion_1_strip_ratio_is_tight():
    start = time.perf_counter()
    for k in range(1, 11):
        inst = gen_strip(k)
        sgp = shortest_grid_path(inst.tessellation, inst.weights, inst.source, inst.target)
        sp = approx_shortest_path(
            inst.tessellation, inst.weights, inst.source, inst.target, level=1
        )
        assert sgp.cost == 4.0 * k
        assert abs(sp.cost - 2.0 * SQRT3 * k) <= 1e-6
        assert abs(sgp.cost / sp.cost - RATIO_BOUND) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[acceptance] 1 strip k=1..10 ratio 2/sqrt(3): PASS ({elapsed:.2f}s)")


def test_criterion_2_global_bounds_on_sweep(sweep):
    instances, reports, elapsed = sweep
    assert len(instances) >= 700
    worst = {"sgp_sp": 0.0, "svp_sp": 0.0, "sgp_svp": 0.0}
    for rep in reports:
        worst["sgp_sp"] = max(worst["sgp_sp"], rep.sgp_sp)
        worst["svp_sp"] = max(worst["svp_sp"], rep.svp_sp)
        worst["sgp_svp"] = max(worst["sgp_svp"], rep.sgp_svp)
        assert rep.sgp_sp <= RATIO_BOUND + 1e-9
        assert rep.svp_sp <= RATIO_BOUND + 1e-9
        assert rep.sgp_svp <= RATIO_BOUND + 1e-9
    assert elapsed < 600.0
    print(
        f"[acceptance] 2 global bounds on {len(reports)} instances: PASS "
        f"(worst sgp/sp {worst['sgp_sp']:.12f}, svp/sp {worst['svp_sp']:.12f}, "
        f"sgp/svp {worst['sgp_svp']:.12f}, {elapsed:.1f}s)"
    )


def test_criterion_3_solver_ordering(sweep):
    _, reports, _ = sweep
    for rep in reports:
        assert rep.sp_cost <= rep.svp_cost + 1e-9
        assert rep.svp_cost <= rep.sgp_cost + 1e-9
    print(f"[acceptance] 3 sp <= svp <= sgp on {len(reports)} instances: PASS")


def test_criterion_4_crossing_path_machinery(sweep):
    instances, reports, _ = sweep
    for inst, rep in zip(instances, reports):
        x = crossing_path(walk_polyline(rep.sp_path))
        assert x.corners[0] == inst.source
        assert x.corners[-1] == inst.target
        for a, b in zip(x.corners, x.corners[1:]):
            assert are_adjacent(a, b)
        assert rep.sgp_cost <= rep.x_cost + 1e-9
        assert rep.x_cost / rep.sp_cost <= rep.max_polygon_ratio + 1e-9
    print(
        f"[acceptance] 4 crossing paths valid, sgp <= x, mediant bound "
        f"on {len(reports)} instances: PASS"
    )


def test_criterion_5_per_polygon_bounds(sweep):
    _, reports, _ = sweep
    counted = equalized = logged_only = 0
    for rep in reports:
        for poly in rep.polygons:
            counted += 1
            if poly.kind == 2:
                if poly.equalized_ok is None:
                    logged_only += 1
                else:
                    equalized += 1
                    assert poly.equalized_ok
            else:
                assert poly.bound_ok
    print(
        f"[acceptance] 5 per-polygon bounds: PASS ({counted} polygons, "
        f"{equalized} P2 equalized, {logged_only} P2 logged only)"
    )


@pytest.fixture(scope="module")
def decompositions(sweep):
    """Each sweep report's crossing path and pocket decomposition."""
    _, reports, _ = sweep
    out = []
    for rep in reports:
        sp = walk_polyline(rep.sp_path)
        x = crossing_path(sp)
        out.append((x, coincidence_decomposition(sp, x)))
    return out


def test_pocket_x_edges_are_the_edges_a_midpoint_lookup_finds(decompositions):
    # each piece of a pocket's X side carries the edge under it; the pricing
    # once found it by locating the piece's midpoint at a quarter of its length
    pieces = 0
    for _, d in decompositions:
        for rec in (rec for gap in d.polygons for rec in gap.x_pieces):
            length = math.dist(rec.entry, rec.exit)
            if length > EPS_GEO:
                mid = ((rec.entry[0] + rec.exit[0]) / 2.0, (rec.entry[1] + rec.exit[1]) / 2.0)
                assert locate_point(mid, length / 4.0) == ("edges", (rec.edge,))
                pieces += 1
    assert pieces > len(decompositions)
    print(f"[acceptance] pocket X edges on {len(decompositions)} instances: PASS ({pieces} pieces)")


def test_pocket_x_sides_tile_the_crossing_path(decompositions):
    # the pockets' X sides, one after another, run along X's edges in order
    # and add up to X's length, as their SP sides add up to SP's walk
    for x, d in decompositions:
        x_pieces = [rec for gap in d.polygons for rec in gap.x_pieces]
        assert x_pieces[0].entry == corner_position(x.corners[0])
        assert x_pieces[-1].exit == corner_position(x.corners[-1])
        for a, b in zip(x_pieces, x_pieces[1:]):
            assert a.exit == b.entry
        edges = [edge for edge, _ in itertools.groupby(rec.edge for rec in x_pieces)]
        assert edges == [edge_key(a, b) for a, b in zip(x.corners, x.corners[1:])]
        length = math.fsum(math.dist(rec.entry, rec.exit) for rec in x_pieces)
        assert abs(length - 2.0 * (len(x.corners) - 1)) <= 1e-12
    print(f"[acceptance] pocket X sides tile X on {len(decompositions)} instances: PASS")


def test_criterion_6_law_of_cosines_embedding():
    rng = random.Random(60319)
    checked = 0
    while checked < 1000:
        cell = (rng.randrange(0, 4), rng.randrange(0, 4))
        e1, e2 = rng.sample(cell_edges(cell), 2)
        shared = set(e1) & set(e2)
        if not shared:
            continue
        v = corner_position(next(iter(shared)))
        far1 = corner_position(next(c for c in e1 if c not in shared))
        far2 = corner_position(next(c for c in e2 if c not in shared))
        ta, tb = rng.random(), rng.random()
        p = (v[0] + ta * (far1[0] - v[0]), v[1] + ta * (far1[1] - v[1]))
        q = (v[0] + tb * (far2[0] - v[0]), v[1] + tb * (far2[1] - v[1]))
        got = law_of_cosines_dist(2.0 * ta, 2.0 * tb)
        assert abs(got - math.dist(p, q)) <= 1e-12
        checked += 1
    print("[acceptance] 6 law of cosines vs embedding, 1000 pairs at 1e-12: PASS")


def test_criterion_7_closed_form_constants():
    mpmath.mp.dps = 50
    root = mpmath.sqrt(7 * mpmath.sqrt(3) - 12)
    constant = (
        2
        * root
        / ((7 - 4 * mpmath.sqrt(3)) * (6 * mpmath.sqrt(2) + root))
    )
    offset = (7 * mpmath.sqrt(3) - 12) / mpmath.sqrt(56 * mpmath.sqrt(3) - 96)
    assert 1.10 <= svp_lower_bound_constant() <= 1.12
    assert abs(svp_lower_bound_constant() - float(constant)) <= 1e-9
    assert abs(svp_lower_bound_witness_offset() - float(offset)) <= 1e-9
    print(
        f"[acceptance] 7 constants {svp_lower_bound_constant():.9f} / "
        f"{svp_lower_bound_witness_offset():.9f} match 50-digit forms: PASS"
    )


def test_criterion_8_anomalous_pocket_search():
    start = time.perf_counter()
    found = search_p2_anomaly(seed=42, trials=10_000)
    elapsed = time.perf_counter() - start
    assert found.x_ratio >= 1.3
    assert found.shortcut_ratio <= RATIO_BOUND + 1e-6
    assert elapsed < 120.0
    print(
        f"[acceptance] 8 pocket anomaly x/sp {found.x_ratio:.4f} >= 1.3 with "
        f"shortcut {found.shortcut_ratio:.6f} <= 2/sqrt(3): PASS ({elapsed:.1f}s)"
    )


def test_criterion_9_oracle_monotone_and_euclidean():
    for inst in _generate(lambda s: gen_random(3, 4, seed=s), 100, 700_000):
        costs = [
            approx_shortest_path(
                inst.tessellation, inst.weights, inst.source, inst.target, level=l
            ).cost
            for l in range(4)
        ]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-9
    for omega in (0.5, 1.0, 3.0):
        tess = Tessellation(3, 4)
        weights = WeightMap([[omega] * 4 for _ in range(3)])
        s, t = (0, 0), (4, 2)
        result = refine_until(tess, weights, s, t, max_level=7)
        straight = omega * math.dist(corner_position(s), corner_position(t))
        assert abs(result.cost - straight) <= 1e-3
        assert result.cost == pytest.approx(
            segment_cost(weights, corner_position(s), corner_position(t)), abs=1e-3
        )
    print("[acceptance] 9 oracle level-monotone x100, Euclidean at uniform weights: PASS")
