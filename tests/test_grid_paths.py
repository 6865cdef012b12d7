import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigrid.grid_paths import (
    InvalidCornerError,
    PathResult,
    UnreachableError,
    _frontier_search,
    shortest_grid_path,
    shortest_vertex_path,
)
from trigrid.metric import WeightMap, grid_edge_cost, polyline_cost
from trigrid.tessellation import SQRT3, Tessellation, are_adjacent, corner_position

INF = math.inf


def strip_instance(k=1):
    """A 2k x 3 window whose only finite cells form a vertical strip."""
    rows = 2 * k
    vals = np.full((rows, 3), INF)
    for m in range(k):
        vals[2 * m, 1] = 1.0
        vals[2 * m + 1, 1] = 1.0
    return Tessellation(rows, 3), WeightMap(vals), (2, 0), (2, rows)


def random_instance(seed, rows=4, cols=5, inf_prob=0.15):
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(rows, cols)))
    vals[rng.random((rows, cols)) < inf_prob] = INF
    tess = Tessellation(rows, cols)
    return tess, WeightMap(vals)


def test_grid_path_on_strip():
    tess, w, s, t = strip_instance(2)
    res = shortest_grid_path(tess, w, s, t)
    assert res.cost == pytest.approx(8.0)
    assert res.path[0] == s and res.path[-1] == t
    for a, b in zip(res.path, res.path[1:]):
        assert are_adjacent(a, b)
    # cost decomposes into edge costs
    total = sum(grid_edge_cost(w, a, b) for a, b in zip(res.path, res.path[1:]))
    assert total == pytest.approx(res.cost)


def test_vertex_path_on_strip():
    tess, w, s, t = strip_instance(2)
    res = shortest_vertex_path(tess, w, s, t)
    assert res.cost == pytest.approx(4 * SQRT3, abs=1e-9)
    pts = [corner_position(c) for c in res.path]
    assert polyline_cost(w, pts) == pytest.approx(res.cost, abs=1e-9)


def test_trivial_and_invalid_endpoints():
    tess, w, s, _ = strip_instance(1)
    assert shortest_grid_path(tess, w, s, s) == PathResult((s,), 0.0)
    assert shortest_vertex_path(tess, w, s, s) == PathResult((s,), 0.0)
    with pytest.raises(InvalidCornerError):
        shortest_grid_path(tess, w, (99, 1), s)
    with pytest.raises(InvalidCornerError):
        shortest_vertex_path(tess, w, s, (1, 0))


def test_unreachable_when_everything_blocked():
    tess = Tessellation(2, 2)
    w = WeightMap(np.full((2, 2), INF))
    with pytest.raises(UnreachableError):
        shortest_grid_path(tess, w, (0, 0), (2, 2))
    with pytest.raises(UnreachableError):
        shortest_vertex_path(tess, w, (0, 0), (2, 2))


def test_deterministic_results():
    tess, w = random_instance(11)
    s, t = (0, 0), (6, 4)
    r1 = shortest_grid_path(tess, w, s, t)
    r2 = shortest_grid_path(tess, w, s, t)
    assert r1 == r2
    v1 = shortest_vertex_path(tess, w, s, t)
    v2 = shortest_vertex_path(tess, w, s, t)
    assert v1 == v2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_vertex_path_never_beats_grid_path(seed):
    tess, w = random_instance(seed)
    s, t = (0, 0), (5, 3)
    try:
        grid = shortest_grid_path(tess, w, s, t)
    except UnreachableError:
        return
    vertex = shortest_vertex_path(tess, w, s, t)
    assert vertex.cost <= grid.cost + 1e-9
    # both report costs consistent with their own path
    pts = [corner_position(c) for c in vertex.path]
    assert polyline_cost(w, pts) == pytest.approx(vertex.cost, rel=1e-9, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_scale_invariance_power_of_two(seed):
    tess, w = random_instance(seed, inf_prob=0.0)
    s, t = (0, 0), (6, 4)
    base = shortest_grid_path(tess, w, s, t)
    scaled = shortest_grid_path(tess, WeightMap(np.array(w.values) * 4.0), s, t)
    assert scaled.path == base.path
    assert scaled.cost == base.cost * 4.0


def test_frontier_search_settles_bit_equal_ties_by_node_id():
    # routes 0-1-3 and 0-2-3 cost the same; node 1 settles first and keeps 3,
    # whatever order the arcs are listed in
    arcs = {0: ((2, 1.0), (1, 1.0)), 1: ((3, 1.0),), 2: ((3, 1.0),), 3: ()}

    def out(u):
        heads = np.array([v for v, _ in arcs[u]], dtype=np.int64)
        return ((heads, np.array([c for _, c in arcs[u]])),)

    assert _frontier_search(4, 0, 3, out) == (2.0, [0, 1, 3], 4)
    assert _frontier_search(4, 3, 0, out) == (math.inf, [], 1)
