import heapq
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigrid.grid_paths import (
    UnreachableError,
    shortest_grid_path,
    shortest_vertex_path,
)
from trigrid import oracle
from trigrid.analysis import ratio_report
from trigrid.instances import gen_random, gen_strip, gen_two_weight_maze
from trigrid.metric import WeightMap, corner_hop_table, edge_weight, segment_cost
from trigrid.oracle import (
    OracleResult,
    _steiner_support,
    approx_shortest_path,
    refine_until,
)
from trigrid.tessellation import (
    SQRT3,
    Tessellation,
    adjacent_corners,
    cell_edges,
    corner_position,
    edge_key,
)

INF = math.inf


def path_cost(w, pts):
    """Weighted length of a polyline, one segment_cost per segment."""
    return sum(segment_cost(w, p, q) for p, q in zip(pts, pts[1:]))


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
    assert path_cost(w, res.path) == pytest.approx(res.cost, rel=1e-9, abs=1e-9)


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
    # NaN fails every comparison, so it must not slip past a test of rel_tol <= 0
    inst = gen_random(6, 6, seed=8)
    reachable = (inst.tessellation, inst.weights, inst.source, inst.target)
    for rel_tol in (0.0, -1.0, math.nan):
        for args in ((tess, w, (0, 0), (2, 2)), reachable):
            with pytest.raises(ValueError, match="rel_tol"):
                refine_until(*args, rel_tol=rel_tol)
            with pytest.raises(ValueError, match="rel_tol"):
                ratio_report(*args, rel_tol=rel_tol)


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
    # level 11 fits the node budget on 1x1, but its distance table would not
    for level in (11, 20, 64):
        with pytest.raises(ValueError, match="budget"):
            approx_shortest_path(tess, w, (0, 0), (2, 0), level=level)
    with pytest.raises(ValueError, match="budget"):
        refine_until(tess, w, (0, 0), (2, 0), max_level=64)
    # a fully blocked window has no edge nodes, but the level is still refused
    blocked = WeightMap(np.full((2, 2), INF))
    with pytest.raises(ValueError, match="budget"):
        approx_shortest_path(Tessellation(2, 2), blocked, (0, 0), (2, 2), level=64)


def test_steiner_node_budget_refuses_big_windows_before_building():
    # 40x40 passes MAX_LEVEL at level 10 but needs about 2.5 M Steiner nodes
    tess, ones = Tessellation(40, 40), WeightMap(np.ones((40, 40)))
    with pytest.raises(ValueError, match="Steiner nodes"):
        approx_shortest_path(tess, ones, (0, 0), (2, 0), level=10)
    with pytest.raises(ValueError, match="Steiner nodes"):
        refine_until(tess, ones, (0, 0), (2, 0), max_level=10)
    # 24x24 at level 10 needs about 0.9 M, within the budget
    small = _steiner_support(Tessellation(24, 24), WeightMap(np.ones((24, 24))), 10)
    assert len(small.edges) * (2**10 - 1) < oracle.MAX_STEINER_NODES


def test_node_budget_admits_level_7_on_24x24():
    tess = Tessellation(24, 24)
    ones = WeightMap(np.ones((24, 24)))
    support = _steiner_support(tess, ones, 7)
    assert len(support.cells) == 24 * 24
    assert len(tess.corners) + len(support.edges) * (2**7 - 1) < 120_000
    with pytest.raises(ValueError, match="budget"):
        _steiner_support(tess, ones, 12)


def fine_coordinates(tess, support, level):
    """Integer coordinates of every graph node on the fine lattice of step 2**-level.

    A corner (i, j) sits at (P*i, P*j) with P = 2**level; node n of edge (a, b)
    at (P*i_a + n*(i_b - i_a), P*j_a + n*(j_b - j_a)). A node's plane position
    is (X / P, Y * sqrt(3) / P).
    """
    p = 2**level
    a, b = support.edges.T
    n = np.arange(1, p)
    out = []
    for axis in tess.corner_array.T:
        along = p * axis[a, None] + n * (axis[b] - axis[a])[:, None]
        out.append(np.concatenate((p * axis, along.ravel())))
    return out


@pytest.mark.parametrize("level", range(9))
def test_clique_table_prices_every_cell_pair_exactly(level):
    tess, w = random_instance(5, inf_prob=0.2)
    blocked = ~np.isfinite(w.values)
    assert blocked.any() and not blocked.all()
    support = _steiner_support(tess, w, level)
    down = support.cells.sum(axis=1) % 2
    assert set(down) == {0, 1}
    table, columns = oracle._clique_table(level)
    p, per_edge, n_corners = 2**level, 2**level - 1, len(tess.corners)
    fx, fy = fine_coordinates(tess, support, level)
    x, y = fx / p, fy * SQRT3 / p
    # a cell's local members: its vertices, then the nodes of each edge slot
    slot_nodes = n_corners + support.slot_edges[:, :, None] * per_edge + np.arange(per_edge)
    members = np.concatenate((support.verts, slot_nodes.reshape(len(down), -1)), axis=1)
    # its sources: vertex m at row kind 3 + m and table row 0, then node m of
    # slot k at row kind k and row m + 1
    kinds = np.r_[3, 4, 5, np.repeat([0, 1, 2], per_edge)]
    rows = np.r_[0, 0, 0, np.tile(np.arange(1, p), 3)]
    for cell in range(len(down)):
        got = table[rows[:, None], columns[down[cell]][kinds]]
        u, v = members[cell][:, None], members[cell][None, :]
        want = np.sqrt((fx[v] - fx[u]) ** 2 + 3 * (fy[v] - fy[u]) ** 2) / p
        assert np.array_equal(got, want)
        # float positions carry about 1e-15 of rounding, which short distances
        # see as a larger relative error: compare to 1e-14 of a cell side too
        hypot = np.hypot(x[v] - x[u], y[v] - y[u])
        np.testing.assert_allclose(got, hypot, rtol=1e-14, atol=2e-14)


def lattice_edges_through(q):
    """Every lattice edge that passes within 1e-9 of the point q."""
    i0, j0 = math.floor(q[0]), math.floor(q[1] / SQRT3)
    ends = [
        (i, j) for j in range(j0 - 1, j0 + 3) for i in range(i0 - 2, i0 + 4) if (i + j) % 2 == 0
    ]
    edges = {edge_key(a, b) for a in ends for b in adjacent_corners(a)}
    return [e for e in edges if segment_distance(q, e) <= 1e-9]


def segment_distance(q, edge):
    a, b = (np.array(corner_position(c)) for c in edge)
    f = np.clip(np.dot(q - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
    return float(np.linalg.norm(q - (a + f * (b - a))))


def on_one_edge(*points):
    """Whether the points all lie on one lattice edge, ends included."""
    return any(
        all(segment_distance(q, e) <= 1e-9 for q in points)
        for e in lattice_edges_through(points[0])
    )


def reference_search(tess, weights, s, t, level):
    """The level graph built arc by arc and searched with a heap of (cost, id).

    Nodes are numbered as the oracle numbers them: corners in corner order,
    then 2**level - 1 nodes per distinct finite-cell edge, edges first seen
    over cells in row-major order and slot order, each from its first end.
    Arcs are every corner hop plus every pair of boundary nodes of a finite
    cell, at the cell weight or the min-rule weight of an edge holding both.
    A clique arc's length comes from the nodes' integer coordinates on the
    fine lattice of step 2**-level: node n of edge (a, b) sits at
    (P*i_a + n*(i_b - i_a), P*j_a + n*(j_b - j_a)) with P = 2**level, so
    two nodes lie sqrt(dX**2 + 3*dY**2) / P apart. The path drops every
    point whose path neighbours lie on one lattice edge with it.
    Returns the cost and the point path; (inf, ()) when t is unreachable.
    """
    corners = tess.corners
    finite = [c for c in tess.cells if math.isfinite(weights.effective(c))]
    edges = list(dict.fromkeys(e for c in finite for e in cell_edges(c)))
    p = 2**level
    xs = [corner_position(c)[0] for c in corners]
    ys = [corner_position(c)[1] for c in corners]
    fine = [(p * i, p * j) for i, j in corners]
    edge_nodes = {}
    for a, b in edges:
        (ax, ay), (bx, by) = corner_position(a), corner_position(b)
        edge_nodes[(a, b)] = list(range(len(xs), len(xs) + p - 1))
        for n in range(1, p):
            f = n / float(p)
            xs.append(ax + f * (bx - ax))
            ys.append(ay + f * (by - ay))
            fine.append((p * a[0] + n * (b[0] - a[0]), p * a[1] + n * (b[1] - a[1])))
    x, y = np.array(xs), np.array(ys)
    arcs = [dict() for _ in xs]

    def add(u, v, cost):
        if cost < arcs[u].get(v, INF):
            arcs[u][v] = cost

    hop = corner_hop_table(tess).cost_matrix(weights)
    for u in range(len(corners)):
        for v in range(len(corners)):
            if u != v:
                add(u, v, hop[u, v])
    ids = tess.corner_ids
    for cell in finite:
        on_edge = {}  # node -> the cell edges it lies on
        for e in cell_edges(cell):
            for node in [ids[e[0]], ids[e[1]], *edge_nodes[e]]:
                on_edge.setdefault(node, set()).add(e)
        members = sorted(on_edge)
        for u in members:
            for v in members:
                if v == u:
                    continue
                (xu, yu), (xv, yv) = fine[u], fine[v]
                d = math.sqrt((xv - xu) ** 2 + 3 * (yv - yu) ** 2) / p
                w = weights.effective(cell)
                shared = on_edge[u] & on_edge[v]
                if shared:
                    w = min(w, edge_weight(weights, shared.pop()))
                add(u, v, w * d)

    si, ti = ids[s], ids[t]
    dist = {si: 0.0}
    parent = {}
    done = set()
    heap = [(0.0, si)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == ti:
            path = [ti]
            while path[-1] != si:
                path.append(parent[path[-1]])
            points = [(x[k], y[k]) for k in reversed(path)]
            merged = [points[0]] + [
                q for o, q, r in zip(points, points[1:], points[2:]) if not on_one_edge(o, q, r)
            ]
            return d, tuple(merged + [points[-1]])
        done.add(u)
        for v, cost in arcs[u].items():
            nd = d + cost
            if nd < dist.get(v, INF):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return INF, ()


def _uniform():
    return Tessellation(4, 5), WeightMap(np.full((4, 5), 2.5)), (0, 0), (5, 3)


def _band():
    vals = np.full((4, 5), 4.0)
    vals[1, :] = 1.0
    return WeightMap(vals)


def _cut():
    vals = np.ones((3, 4))
    vals[:, 1:3] = INF  # two blocked columns share no corner across them
    return Tessellation(3, 4), WeightMap(vals), (0, 0), (4, 0)


def _instance(inst):
    return inst.tessellation, inst.weights, inst.source, inst.target


REFERENCE_CASES = {
    **{
        f"random-{rows}x{cols}-s{seed}": (lambda r=rows, c=cols, sd=seed: (
            *random_instance(sd, r, c, inf_prob=0.2), *endpoints(Tessellation(r, c))
        ))
        # seeds where refinement beats level 0 around blocked cells
        for rows, cols, seed in (
            (1, 1, 0), (2, 3, 24), (3, 4, 10), (4, 3, 22), (4, 5, 10), (5, 5, 1)
        )
    },
    "band-4x5": lambda: (Tessellation(4, 5), _band(), (0, 0), (6, 4)),
    "maze-5x5": lambda: _instance(gen_two_weight_maze(5, 5, seed=3)),
    "strip-3": lambda: _instance(gen_strip(3)),
    "uniform-4x5": _uniform,
    "unreachable": _cut,
}


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_search_matches_reference_dijkstra_exactly(case, level):
    tess, w, s, t = REFERENCE_CASES[case]()
    want_cost, want_path = reference_search(tess, w, s, t, level)
    if math.isinf(want_cost):
        with pytest.raises(UnreachableError):
            approx_shortest_path(tess, w, s, t, level=level)
        return
    got = approx_shortest_path(tess, w, s, t, level=level)
    assert got.cost == want_cost
    assert got.path == want_path


def test_reference_cases_cover_blocked_cells_and_refinement():
    blocked = refined = 0
    for case in REFERENCE_CASES.values():
        tess, w, s, t = case()
        blocked += not np.isfinite(w.values).all()
        coarse, fine = (reference_search(tess, w, s, t, level)[0] for level in (0, 3))
        refined += fine < coarse * (1.0 - 1e-3)
    assert blocked >= 6
    assert refined >= 6
    assert math.isinf(reference_search(*_cut(), 1)[0])


def _oracle_messages(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "trigrid.oracle"]


def test_refine_until_logs_each_level_and_why_it_stopped(caplog):
    caplog.set_level(logging.DEBUG, logger="trigrid.oracle")
    vals = np.full((4, 3), INF)
    vals[:, 1] = 1.0
    res = refine_until(Tessellation(4, 3), WeightMap(vals), (2, 0), (2, 4))
    assert res.level == 1
    msgs = _oracle_messages(caplog)
    assert len(msgs) == 4
    for level, line in ((0, msgs[0]), (1, msgs[1])):
        assert line.startswith(f"level {level}: ")
        assert " nodes, " in line and " settled, cost " in line
    assert msgs[1].endswith(f"cost {4 * SQRT3!r}")
    assert msgs[2] == "level 1: relative improvement 0"
    assert msgs[3] == "stopped at level 1: tolerance 1e-06 met"

    caplog.clear()
    # refraction along the band keeps improving past level 2
    res = refine_until(Tessellation(4, 5), _band(), (0, 0), (6, 4), max_level=2)
    assert not res.converged
    msgs = _oracle_messages(caplog)
    assert [m.split(":")[0] for m in msgs] == ["level 0"] + ["level 1"] * 2 + ["level 2"] * 2 + [
        "stopped at level 2"
    ]
    assert msgs[-1] == "stopped at level 2: max_level reached"


def test_refine_until_skips_logging_when_debug_is_off(caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="trigrid.oracle")

    def fail(*args, **kwargs):
        raise AssertionError("debug line built with DEBUG off")

    monkeypatch.setattr(oracle.logger, "debug", fail)
    tess, w = random_instance(3)
    s, t = endpoints(tess)
    refine_until(tess, w, s, t, max_level=2)
    assert _oracle_messages(caplog) == []


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_reported_paths_run_along_each_edge_in_one_hop(case):
    tess, w, s, t = REFERENCE_CASES[case]()
    try:
        results = [approx_shortest_path(tess, w, s, t, level=level) for level in (1, 2, 3, 4)]
    except UnreachableError:
        return
    results.append(refine_until(tess, w, s, t))
    for res in results:
        path = res.path
        assert not any(on_one_edge(*trio) for trio in zip(path, path[1:], path[2:]))
        assert path_cost(w, path) == pytest.approx(res.cost, rel=1e-12, abs=0)


def loop_refine(tess, w, s, t, rel_tol=oracle.DEFAULT_REL_TOL, max_level=oracle.DEFAULT_MAX_LEVEL):
    """refine_until as a loop over approx_shortest_path, each level solved alone."""
    prev = approx_shortest_path(tess, w, s, t, level=0)
    if prev.cost == 0.0:
        return prev
    for level in range(1, max_level + 1):
        cur = approx_shortest_path(tess, w, s, t, level=level)
        if (prev.cost - cur.cost) / cur.cost < rel_tol:
            return OracleResult(cur.path, cur.cost, level, True)
        prev = cur
    return prev


def assert_refines_like_the_loop(tess, w, s, t, **kwargs):
    try:
        want = loop_refine(tess, w, s, t, **kwargs)
    except UnreachableError:
        with pytest.raises(UnreachableError):
            refine_until(tess, w, s, t, **kwargs)
        with pytest.raises(UnreachableError):
            ratio_report(tess, w, s, t, **kwargs)
        return
    assert refine_until(tess, w, s, t, **kwargs) == want
    # SVP is the solve context's level 0, bit for bit
    assert ratio_report(tess, w, s, t, **kwargs).svp_cost == shortest_vertex_path(tess, w, s, t).cost


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_refine_until_matches_a_loop_over_levels(case):
    tess, w, s, t = REFERENCE_CASES[case]()
    assert_refines_like_the_loop(tess, w, s, t)
    assert_refines_like_the_loop(tess, w, s, t, rel_tol=1e-2, max_level=3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_refine_until_matches_a_loop_over_levels_on_random_windows(seed):
    tess, w = random_instance(seed)
    assert_refines_like_the_loop(tess, w, *endpoints(tess), max_level=5)


def test_refine_until_keeps_one_level_graph_alive():
    inst = gen_random(6, 6, seed=8)
    tess, w, s, t = inst.tessellation, inst.weights, (2, 0), (6, 6)

    def peak(solve):
        tracemalloc.start()
        try:
            result = solve()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    refine_until(tess, w, s, t, max_level=6)  # fill the hop-table and clique-table caches
    _, alone = peak(lambda: approx_shortest_path(tess, w, s, t, level=6))
    res, refined = peak(lambda: refine_until(tess, w, s, t, max_level=6))
    assert res.level == 6 and not res.converged
    # the level-5 graph, kept alive while level 6 is built, adds about 15% here
    assert refined <= 1.1 * alone
