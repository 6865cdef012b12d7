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
    _list_search,
    shortest_grid_path,
    shortest_vertex_path,
)
from trigrid.instances import gen_strip, gen_two_weight_maze
from trigrid.metric import WeightMap, grid_edge_cost, segment_cost
from trigrid.oracle import approx_shortest_path, refine_until
from trigrid.tessellation import (
    SQRT3,
    Tessellation,
    adjacent_corners,
    are_adjacent,
    corner_position,
    edge_cells,
)

INF = math.inf


def path_cost(w, pts):
    """Weighted length of a polyline, one segment_cost per segment."""
    return sum(segment_cost(w, p, q) for p, q in zip(pts, pts[1:]))


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
    assert path_cost(w, pts) == pytest.approx(res.cost, abs=1e-9)


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
    assert path_cost(w, pts) == pytest.approx(vertex.cost, rel=1e-9, abs=1e-9)


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

    def out(u, d):
        heads = np.array([v for v, _ in arcs[u]], dtype=np.int64)
        return ((heads, d + np.array([c for _, c in arcs[u]])),)

    assert _frontier_search(4, 0, 3, out) == (2.0, [0, 1, 3], 4)
    assert _frontier_search(4, 3, 0, out) == (math.inf, [], 1)


def random_block_graph(rng):
    """A small graph whose arcs come in blocks of (heads, integer costs).

    A node has one to three blocks; heads may repeat across blocks at any
    costs and within a block at one cost, and may be the node itself. Integer
    costs from 0 to 4 make bit-equal ties common.
    """
    n = int(rng.integers(2, 25))
    blocks = []
    for _ in range(n):
        mine = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(0, min(n, 5) + 1))
            heads = rng.choice(n, size, replace=False)
            costs = rng.integers(0, 5, size).astype(float)
            if size > 1:  # repeat a head, at its cost
                heads, costs = np.append(heads, heads[0]), np.append(costs, costs[0])
            mine.append((heads, costs))
        blocks.append(mine)
    return n, blocks


def heap_search(n, si, ti, blocks):
    """Dijkstra over the blocks' arcs one by one, with a heap of (cost, node id).

    Returns the cost, the node path, the number of nodes popped unsettled
    and the number of ties: arcs from another node that matched an unsettled
    node's tentative cost exactly, which the strict test leaves unwritten.
    """
    dist = [INF] * n
    parent = [-1] * n
    done = [False] * n
    dist[si] = 0.0
    heap = [(0.0, si)]
    settled = ties = 0
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        settled += 1
        if u == ti:
            path = [ti]
            while path[-1] != si:
                path.append(parent[path[-1]])
            return d, path[::-1], settled, ties
        for heads, costs in blocks[u]:
            for v, c in zip(heads.tolist(), costs.tolist()):
                ties += d + c == dist[v] and not done[v] and parent[v] != u
                if d + c < dist[v]:
                    dist[v] = d + c
                    parent[v] = u
                    heapq.heappush(heap, (d + c, v))
    return INF, [], settled, ties


def test_frontier_search_matches_a_heap_dijkstra_on_random_block_graphs():
    rng = np.random.default_rng(2024)
    tied = unreachable = 0
    for _ in range(200):
        n, blocks = random_block_graph(rng)
        si, ti = (int(v) for v in rng.integers(0, n, 2))

        def arcs(u, d):
            return [(heads, d + costs) for heads, costs in blocks[u]]

        rows = [[(heads.tolist(), costs.tolist()) for heads, costs in mine] for mine in blocks]
        *want, ties = heap_search(n, si, ti, blocks)
        assert _frontier_search(n, si, ti, arcs) == tuple(want)
        assert _list_search(n, si, ti, rows.__getitem__) == tuple(want)
        unreachable += math.isinf(want[0])
        tied += ties > 0
    assert unreachable >= 10 and tied >= 50


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


def finite_arcs(heads, costs):
    """Each corner's arcs of finite cost, as a set of (head, cost) pairs."""
    return [
        {(int(v), float(c)) for v, c in zip(row_heads, row_costs) if c < INF}
        for row_heads, row_costs in zip(heads, costs)
    ]


def assert_steps_off_the_window_cost_infinity(heads, costs):
    # an arc from a corner to itself pads a step off the window, which runs
    # along no window edge
    assert (costs[heads == np.arange(len(heads))[:, None]] == INF).all()


def test_grid_arcs_reach_window_neighbors_only():
    tess = Tessellation(3, 4)
    heads, costs = _grid_arcs(tess, WeightMap(np.ones((3, 4))))
    arcs = finite_arcs(heads, costs)
    ids = tess.corner_ids

    def reached(corner):
        return {(tess.corners[v], c) for v, c in arcs[ids[corner]]}

    # unit weights price every edge at 2
    assert reached((0, 0)) == {((2, 0), 2.0), ((1, 1), 2.0)}
    neighbors = [(1, 1), (3, 1), (0, 2), (4, 2), (1, 3), (3, 3)]
    assert reached((2, 2)) == {(c, 2.0) for c in neighbors}
    # an inner corner's row lists its steps in adjacent_corners order
    assert [tess.corners[v] for v in heads[ids[(2, 2)]]] == list(adjacent_corners((2, 2)))
    assert_steps_off_the_window_cost_infinity(heads, costs)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (5, 6), (24, 24)])
def test_grid_arcs_price_every_step_by_the_min_rule(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    vals = rng.uniform(0.1, 10.0, size=(rows, cols))
    vals[rng.random((rows, cols)) < 0.2] = INF
    w = WeightMap(vals)
    tess = Tessellation(rows, cols)
    heads, costs = _grid_arcs(tess, w)
    for corner, got in zip(tess.corners, finite_arcs(heads, costs)):
        steps = [c for c in adjacent_corners(corner) if tess.valid_corner(c)]
        want = {(tess.corner_ids[c], grid_edge_cost(w, corner, c)) for c in steps}
        assert got == {(v, c) for v, c in want if c < INF}
    assert_steps_off_the_window_cost_infinity(heads, costs)


def per_call_grid_arcs(tess, weights):
    """Every corner's six lattice steps, in adjacent_corners order, and their
    costs, built per call from a corner grid and a weight grid inside a
    border that holds every step: steps move i by up to 2, and their cells
    lie up to 2 columns off the window. A step off the window is an arc from
    the corner to itself."""
    steps = adjacent_corners((0, 0))
    step_cells = np.array([edge_cells(((0, 0), step)) for step in steps])
    steps = np.array(steps)
    ci, cj = tess.corner_array.T
    padded = np.full((tess.rows + 3, tess.cols + 6), -1)
    padded[1:-1, 2:-2] = tess.corner_grid
    heads = padded[cj[:, None] + steps[:, 1] + 1, ci[:, None] + steps[:, 0] + 2]
    grid = np.full((tess.rows + 2, tess.cols + 4), INF)
    grid[1:-1, 2:-2] = weights.values
    rows, cols = cj[:, None, None] + step_cells[..., 0], ci[:, None, None] + step_cells[..., 1]
    costs = 2.0 * grid[rows + 1, cols + 2].min(axis=2)
    off = heads < 0
    heads[off] = np.nonzero(off)[0]
    return heads, costs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.floats(0.05, 0.9), st.integers(0, 2**31 - 1))
def test_grid_arcs_match_a_per_call_build(rows, cols, blocked, seed):
    # heads and edges come from a lattice layout cached per window shape
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 10.0, size=(rows, cols))
    vals[rng.random((rows, cols)) < blocked] = INF
    tess, w = Tessellation(rows, cols), WeightMap(vals)
    got, want = _grid_arcs(tess, w), per_call_grid_arcs(tess, w)
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert finite_arcs(*got) == finite_arcs(*want)
    assert_steps_off_the_window_cost_infinity(*got)
