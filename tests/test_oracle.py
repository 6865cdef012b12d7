import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigrid.grid_paths import (
    UnreachableError,
    shortest_grid_path,
    shortest_vertex_path,
)
from trigrid.metric import WeightMap, polyline_cost
from trigrid.oracle import (
    OracleResult,
    _steiner_support,
    approx_shortest_path,
    refine_until,
)
from trigrid.tessellation import SQRT3, Tessellation, corner_position

INF = math.inf


def random_instance(seed, rows=3, cols=4, inf_prob=0.1):
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(rows, cols)))
    vals[rng.random((rows, cols)) < inf_prob] = INF
    return Tessellation(rows, cols), WeightMap(vals)


def endpoints(tess):
    ti = tess.cols + 1 if (tess.cols + 1 + tess.rows) % 2 == 0 else tess.cols
    return (0, 0), (ti, tess.rows)


def test_level_zero_equals_vertex_path():
    for seed in range(12):
        tess, w = random_instance(seed)
        s, t = endpoints(tess)
        try:
            svp = shortest_vertex_path(tess, w, s, t)
        except UnreachableError:
            with pytest.raises(UnreachableError):
                approx_shortest_path(tess, w, s, t, level=0)
            continue
        res = approx_shortest_path(tess, w, s, t, level=0)
        assert res.cost == pytest.approx(svp.cost, abs=1e-12)
        assert res.level == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_costs_monotone_in_level(seed):
    tess, w = random_instance(seed)
    s, t = endpoints(tess)
    try:
        prev = approx_shortest_path(tess, w, s, t, level=0).cost
    except UnreachableError:
        return
    for level in (1, 2, 3):
        cur = approx_shortest_path(tess, w, s, t, level=level).cost
        assert cur <= prev + 1e-12
        prev = cur


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_reported_cost_matches_reported_path(seed):
    tess, w = random_instance(seed)
    s, t = endpoints(tess)
    try:
        res = approx_shortest_path(tess, w, s, t, level=2)
    except UnreachableError:
        return
    assert res.path[0] == corner_position(s)
    assert res.path[-1] == corner_position(t)
    assert polyline_cost(w, res.path) == pytest.approx(res.cost, rel=1e-9, abs=1e-9)


def test_uniform_weights_are_exact_at_every_level():
    tess = Tessellation(4, 5)
    w = WeightMap(np.full((4, 5), 2.5))
    s, t = (0, 0), (5, 3)
    direct = 2.5 * math.dist(corner_position(s), corner_position(t))
    for level in (0, 2):
        assert approx_shortest_path(tess, w, s, t, level=level).cost == pytest.approx(
            direct, abs=1e-9
        )
    res = refine_until(tess, w, s, t)
    assert res.converged
    assert res.cost == pytest.approx(direct, abs=1e-9)


def test_refinement_beats_vertex_paths_on_refraction():
    # cheap horizontal band in otherwise expensive terrain: the best route
    # bends inside edges, which corners alone cannot express
    vals = np.full((4, 5), 4.0)
    vals[1, :] = 1.0
    tess, w = Tessellation(4, 5), WeightMap(vals)
    s, t = (0, 0), (6, 4)
    svp = shortest_vertex_path(tess, w, s, t)
    sgp = shortest_grid_path(tess, w, s, t)
    res = refine_until(tess, w, s, t)
    assert res.cost < svp.cost - 1e-3
    assert res.cost <= svp.cost <= sgp.cost


def test_strip_converges_to_vertex_path():
    vals = np.full((4, 3), INF)
    vals[0, 1] = vals[1, 1] = vals[2, 1] = vals[3, 1] = 1.0
    tess, w = Tessellation(4, 3), WeightMap(vals)
    res = refine_until(tess, w, (2, 0), (2, 4))
    assert res.cost == pytest.approx(4 * SQRT3, abs=1e-9)
    assert res.converged and res.level == 1


def test_trivial_unreachable_and_validation():
    tess = Tessellation(2, 2)
    w = WeightMap(np.full((2, 2), INF))
    assert refine_until(tess, w, (0, 0), (0, 0)) == OracleResult(
        ((0.0, 0.0),), 0.0, 0, True
    )
    with pytest.raises(UnreachableError):
        refine_until(tess, w, (0, 0), (2, 2))
    with pytest.raises(ValueError):
        approx_shortest_path(tess, w, (0, 0), (2, 2), level=-1)
    with pytest.raises(ValueError):
        refine_until(tess, w, (0, 0), (2, 2), rel_tol=0.0)


def test_max_level_zero_returns_vertex_path_cost():
    tess, w = random_instance(99, inf_prob=0.0)
    s, t = endpoints(tess)
    svp = shortest_vertex_path(tess, w, s, t)
    res = refine_until(tess, w, s, t, max_level=0)
    assert res.cost == pytest.approx(svp.cost, abs=1e-12)
    assert res.level == 0
    assert not res.converged


def test_levels_over_node_budget_are_refused_before_building():
    # 1x1 window: 3 corners and 3 edges, so level 20 needs 3 * 2**20 nodes
    tess, w = Tessellation(1, 1), WeightMap([[1.0]])
    for level in (20, 64):
        with pytest.raises(ValueError, match="budget"):
            approx_shortest_path(tess, w, (0, 0), (2, 0), level=level)
    with pytest.raises(ValueError, match="budget"):
        refine_until(tess, w, (0, 0), (2, 0), max_level=64)
    # a fully blocked window has no edge nodes, but the level is still refused
    blocked = WeightMap(np.full((2, 2), INF))
    with pytest.raises(ValueError, match="budget"):
        approx_shortest_path(Tessellation(2, 2), blocked, (0, 0), (2, 2), level=64)


def test_node_budget_admits_level_7_on_24x24():
    tess = Tessellation(24, 24)
    ones = WeightMap(np.ones((24, 24)))
    cells, edges = _steiner_support(tess, ones, 7)
    assert len(cells) == 24 * 24
    assert len(tess.corners) + len(edges) * (2**7 - 1) < 120_000
    with pytest.raises(ValueError, match="budget"):
        _steiner_support(tess, ones, 12)
