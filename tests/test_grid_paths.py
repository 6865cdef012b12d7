import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigrid.analysis import ratio_report
from trigrid.grid_paths import (
    InvalidCornerError,
    PathResult,
    UnreachableError,
    _frontier_search,
    _grid_arcs,
    shortest_grid_path,
    shortest_vertex_path,
)
from trigrid.instances import gen_strip, gen_two_weight_maze
from trigrid.metric import WeightMap, grid_edge_cost, polyline_cost
from trigrid.oracle import approx_shortest_path, refine_until
from trigrid.tessellation import (
    SQRT3,
    Tessellation,
    adjacent_corners,
    are_adjacent,
    corner_position,
)

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


def _bad_input_cases():
    entries = {
        "sgp": shortest_grid_path,
        "svp": shortest_vertex_path,
        "approx": approx_shortest_path,
        "refine": refine_until,
        "ratio": ratio_report,
    }
    for name, entry in entries.items():
        bads = ["corner", "shape"]
        if name in ("approx", "refine", "ratio"):
            bads += ["level=-3", "level=64"]
        if name in ("refine", "ratio"):
            bads.append("rel_tol=-1")
        for bad in bads:
            for same in (True, False):
                yield pytest.param(
                    entry, bad, same, id=f"{name}-{bad}-{'same' if same else 'distinct'}"
                )


@pytest.mark.parametrize("entry, bad, same", list(_bad_input_cases()))
def test_inputs_are_checked_before_the_same_endpoint_shortcut(entry, bad, same):
    tess, w = Tessellation(3, 4), WeightMap(np.ones((3, 4)))
    s, t, kwargs, error = (0, 0), (4, 2), {}, ValueError
    if bad == "corner":
        s, error = (99, 1), InvalidCornerError
    elif bad == "shape":
        w = WeightMap(np.ones((2, 2)))
    elif bad == "rel_tol=-1":
        kwargs["rel_tol"] = -1.0
    else:
        level = int(bad.split("=")[1])
        kwargs["level" if entry is approx_shortest_path else "max_level"] = level
    with pytest.raises(error):
        entry(tess, w, s, s if same else t, **kwargs)


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


def reference_grid_search(tess, weights, s, t):
    """Dijkstra over explicit lattice-edge arcs with a heap of (cost, (j, i))."""
    dist = {s: 0.0}
    parent = {}
    done = set()
    heap = [(0.0, (s[1], s[0]), s)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == t:
            path = [t]
            while path[-1] != s:
                path.append(parent[path[-1]])
            return d, tuple(reversed(path))
        done.add(node)
        for nb in adjacent_corners(node):
            if nb in done or not tess.valid_corner(nb):
                continue
            nd = d + grid_edge_cost(weights, node, nb)
            if nd < dist.get(nb, INF):
                dist[nb] = nd
                parent[nb] = node
                heapq.heappush(heap, (nd, (nb[1], nb[0]), nb))
    return INF, ()


def _instance(inst):
    return inst.tessellation, inst.weights, inst.source, inst.target


def _cut():
    vals = np.ones((3, 4))
    vals[:, 1:3] = INF  # two blocked columns share no corner across them
    return Tessellation(3, 4), WeightMap(vals), (0, 0), (4, 0)


GRID_REFERENCE_CASES = {
    **{
        f"random-{rows}x{cols}-s{seed}": (lambda r=rows, c=cols, sd=seed: (
            *random_instance(sd, r, c, inf_prob=0.25), (0, 0), (c + 1 - (c + 1 + r) % 2, r)
        ))
        for rows, cols, seed in (
            (1, 1, 0), (2, 3, 4), (3, 4, 10), (5, 5, 1), (6, 7, 3), (8, 6, 14)
        )
    },
    "maze-6x6": lambda: _instance(gen_two_weight_maze(6, 6, seed=3)),
    "strip-4": lambda: _instance(gen_strip(4)),
    "uniform-6x7": lambda: (Tessellation(6, 7), WeightMap(np.full((6, 7), 2.5)), (0, 0), (7, 5)),
    "unreachable": _cut,
}


@pytest.mark.parametrize("case", sorted(GRID_REFERENCE_CASES))
def test_grid_path_matches_reference_dijkstra_exactly(case):
    tess, w, s, t = GRID_REFERENCE_CASES[case]()
    want_cost, want_path = reference_grid_search(tess, w, s, t)
    if math.isinf(want_cost):
        with pytest.raises(UnreachableError):
            shortest_grid_path(tess, w, s, t)
        return
    got = shortest_grid_path(tess, w, s, t)
    assert type(got.cost) is float
    assert got.cost == want_cost
    assert got.path == want_path


def test_grid_reference_cases_cover_blocked_cells_and_ties():
    blocked = 0
    for case in GRID_REFERENCE_CASES.values():
        tess, w, s, t = case()
        blocked += not np.isfinite(w.values).all()
    assert blocked >= 6
    # on the uniform window the horizontal step of a cheapest path can come
    # anywhere, at a bit-equal cost, so the key order picks the path
    tess, w, s, t = GRID_REFERENCE_CASES["uniform-6x7"]()
    cost, path = reference_grid_search(tess, w, s, t)
    other = ((0, 0), (1, 1), (3, 1), (4, 2), (5, 3), (6, 4), (7, 5))
    assert sum(grid_edge_cost(w, a, b) for a, b in zip(other, other[1:])) == cost
    assert path != other
    assert math.isinf(reference_grid_search(*_cut())[0])


def test_grid_arcs_reach_window_neighbors_only():
    tess = Tessellation(3, 4)
    heads, costs = _grid_arcs(tess, WeightMap(np.ones((3, 4))))
    ids = tess.corner_ids

    def reached(corner):
        u = ids[corner]
        return [tess.corners[v] for v in heads[u] if v != u]

    assert reached((0, 0)) == [(2, 0), (1, 1)]
    assert reached((2, 2)) == [(1, 1), (3, 1), (0, 2), (4, 2), (1, 3), (3, 3)]
    # unit weights price every edge at 2; steps off the window never relax
    assert np.array_equal(costs == 2.0, heads != np.arange(len(heads))[:, None])
