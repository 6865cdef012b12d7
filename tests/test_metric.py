import math
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trigrid import metric
from trigrid.metric import (
    HOP_TABLE_CACHE_SIZE,
    CornerHopTable,
    WeightMap,
    corner_hop_table,
    edge_weight,
    grid_edge_cost,
    segment_cost,
)
from trigrid.tessellation import SQRT3, Tessellation, corner_position, segment_walk

INF = math.inf


def weight_map_3x4(fill=1.0):
    return WeightMap([[fill] * 4 for _ in range(3)])


def test_weight_map_validation():
    with pytest.raises(ValueError):
        WeightMap([[1.0, 0.0]])
    with pytest.raises(ValueError):
        WeightMap([[1.0, -2.0]])
    with pytest.raises(ValueError):
        WeightMap([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        WeightMap([])
    WeightMap([[1.0, INF]])


def test_weight_map_effective_outside_window():
    w = weight_map_3x4(2.0)
    assert w.effective((0, 0)) == 2.0
    assert w.effective((-1, 0)) == INF
    assert w.effective((0, 4)) == INF
    assert w.effective((3, 0)) == INF


def test_weight_map_is_read_only():
    w = weight_map_3x4()
    with pytest.raises(ValueError):
        w.values[0, 0] = 5.0


def test_edge_weight_min_rule():
    w = WeightMap([[4.0, 2.0, 8.0, INF]] * 3)
    # horizontal edge between up(0,0) above and down(-1,0) below the window
    assert edge_weight(w, ((0, 0), (2, 0))) == 4.0
    # rising diagonal between up(0,0) and down(0,-1): outside is infinite
    assert edge_weight(w, ((0, 0), (1, 1))) == 4.0
    # falling diagonal between up(0,0) and down(0,1)
    assert edge_weight(w, ((2, 0), (1, 1))) == 2.0


def test_grid_edge_cost_is_twice_edge_weight():
    w = WeightMap([[4.0, 2.0, 8.0, INF]] * 3)
    assert grid_edge_cost(w, (2, 0), (1, 1)) == 4.0
    assert grid_edge_cost(w, (1, 1), (2, 0)) == 4.0
    with pytest.raises(ValueError):
        grid_edge_cost(w, (0, 0), (4, 0))


def test_segment_cost_interior_chord():
    w = WeightMap([[3.0, 1.0, 1.0, 1.0]] * 3)
    # vertical chord inside up(0,0): from (1, 0) to the apex (1, sqrt(3))
    assert segment_cost(w, (1.0, 0.0), (1.0, SQRT3)) == pytest.approx(3.0 * SQRT3)


def test_segment_cost_collinear_min_rule():
    rows = [[5.0, 5.0, 5.0, 5.0], [2.0, 9.0, 2.0, 9.0], [5.0, 5.0, 5.0, 5.0]]
    w = WeightMap(rows)
    # run along rho = 1: edges ((1,1),(3,1)) and ((3,1),(5,1)), each priced
    # min(row 1 above, row 0 below) = 5
    assert segment_cost(w, (1.0, SQRT3), (5.0, SQRT3)) == pytest.approx(20.0)
    assert segment_cost(w, (2.0, SQRT3), (5.0, SQRT3)) == pytest.approx(15.0)
    # left of the window both incident cells are outside
    assert segment_cost(w, (-1.0, SQRT3), (1.0, SQRT3)) == INF


def test_segment_cost_through_infinite_cell():
    w = WeightMap([[1.0, INF, 1.0, 1.0]] * 3)
    # crosses the interior of the infinite column
    assert segment_cost(w, (1.0, 0.5), (4.0, 0.5)) == INF
    # zero length segment costs nothing even in infinite territory
    assert segment_cost(w, (3.0, 0.5), (3.0, 0.5)) == 0.0


def test_hop_table_matches_direct_costs():
    tess = Tessellation(2, 3)
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.5, 4.0, size=(2, 3))
    vals[0, 1] = INF
    w = WeightMap(vals)
    table = CornerHopTable(tess)
    m = table.cost_matrix(w)
    corners = tess.corners
    for ai in range(len(corners)):
        for bi in range(ai + 1, len(corners)):
            direct = segment_cost(w, corner_position(corners[ai]), corner_position(corners[bi]))
            if math.isinf(direct):
                assert math.isinf(m[ai, bi])
            else:
                assert m[ai, bi] == pytest.approx(direct, rel=1e-12, abs=1e-12)
    assert np.all(m == m.T)
    assert np.all(np.diag(m) == 0.0)


def test_hop_table_cache_shared():
    t1 = corner_hop_table(Tessellation(2, 2))
    t2 = corner_hop_table(Tessellation(2, 2))
    assert t1 is t2
    with pytest.raises(ValueError):
        t1.cost_matrix(weight_map_3x4())


def test_hop_table_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(metric, "_HOP_TABLES", OrderedDict())
    assert HOP_TABLE_CACHE_SIZE >= 8
    w = WeightMap([[1.5, INF, 0.25]])
    first = corner_hop_table(Tessellation(1, 3))
    before = first.cost_matrix(w)
    for cols in range(4, 4 + HOP_TABLE_CACHE_SIZE):
        corner_hop_table(Tessellation(1, cols))
    assert len(metric._HOP_TABLES) == HOP_TABLE_CACHE_SIZE
    assert (1, 3) not in metric._HOP_TABLES
    rebuilt = corner_hop_table(Tessellation(1, 3))
    assert rebuilt is not first
    assert np.array_equal(rebuilt.cost_matrix(w), before)
    # a hit makes the table most recent, so the next eviction takes another
    corner_hop_table(Tessellation(1, 5))
    corner_hop_table(Tessellation(2, 1))
    assert (1, 5) in metric._HOP_TABLES
    assert (1, 4) not in metric._HOP_TABLES and (1, 6) not in metric._HOP_TABLES


def test_hop_tables_share_walks_across_shapes(monkeypatch):
    CornerHopTable(Tessellation(12, 12))
    calls = []

    def counting_walk(p, q):
        calls.append((p, q))
        return segment_walk(p, q)

    monkeypatch.setattr(metric, "segment_walk", counting_walk)
    for rows, cols in ((12, 11), (7, 12), (12, 12)):
        CornerHopTable(Tessellation(rows, cols))
    assert calls == []


def test_hop_table_keeps_28_bytes_per_piece():
    table = CornerHopTable(Tessellation(12, 12))
    pieces = len(table.lengths)
    assert len(table.pair_idx) == len(table.cells_a) == len(table.cells_b) == pieces
    arrays = (table.lengths, table.pair_idx, table.cells_a, table.cells_b)
    assert sum(a.nbytes for a in arrays) == 28 * pieces


def test_hop_table_budget_refuses_big_windows_before_building():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        CornerHopTable(Tessellation(200, 200))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="budget"):
        corner_hop_table(Tessellation(48, 48))
    assert (48, 48) not in metric._HOP_TABLES
    metric._check_table_budget(Tessellation(24, 24))


@pytest.mark.parametrize(
    "rows, cols", [(1, 1), (1, 7), (2, 1), (3, 4), (4, 3), (5, 2), (9, 6), (12, 12)]
)
def test_hop_table_budget_counts_every_piece(rows, cols, monkeypatch):
    pieces = len(CornerHopTable(Tessellation(rows, cols)).lengths)
    monkeypatch.setattr(metric, "MAX_HOP_PIECES", pieces)
    CornerHopTable(Tessellation(rows, cols))
    monkeypatch.setattr(metric, "MAX_HOP_PIECES", pieces - 1)
    with pytest.raises(ValueError, match="budget"):
        CornerHopTable(Tessellation(rows, cols))


def test_hop_table_scale_invariance():
    tess = Tessellation(3, 4)
    rng = np.random.default_rng(3)
    w = WeightMap(rng.uniform(0.25, 8.0, size=(3, 4)))
    table = corner_hop_table(tess)
    base = table.cost_matrix(w)
    scaled = table.cost_matrix(WeightMap(np.array(w.values) * 4.0))
    assert np.array_equal(scaled, base * 4.0)


coords = st.floats(-2.0, 8.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.tuples(coords, coords), st.tuples(coords, coords), st.integers(0, 2**31 - 1))
def test_segment_cost_symmetric(p, q, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 10.0, size=(3, 4))
    if seed % 3 == 0:
        vals[rng.integers(0, 3), rng.integers(0, 4)] = INF
    w = WeightMap(vals)
    fwd = segment_cost(w, p, q)
    bwd = segment_cost(w, q, p)
    if math.isinf(fwd) or math.isinf(bwd):
        assert math.isinf(fwd) and math.isinf(bwd)
    else:
        assert fwd == pytest.approx(bwd, rel=1e-9, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.floats(0.0, 0.4),
    st.integers(0, 2**31 - 1),
)
@example(1, 9, 0.3, 1)
@example(9, 1, 0.3, 2)
def test_hop_table_matches_segment_cost_on_random_windows(rows, cols, inf_prob, seed):
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=(rows, cols)))
    vals[rng.random((rows, cols)) < inf_prob] = INF
    w = WeightMap(vals)
    tess = Tessellation(rows, cols)
    m = corner_hop_table(tess).cost_matrix(w)
    pos = [corner_position(c) for c in tess.corners]
    direct = np.array([[segment_cost(w, p, q) if p != q else 0.0 for q in pos] for p in pos])
    assert np.array_equal(np.isinf(m), np.isinf(direct))
    finite = np.isfinite(direct)
    np.testing.assert_allclose(m[finite], direct[finite], rtol=1e-12, atol=0.0)
