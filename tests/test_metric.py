import math
import time

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
from trigrid.tessellation import (
    EDGE_COLLINEAR,
    SQRT3,
    Tessellation,
    corner_position,
    edge_cells,
    segment_walk,
)

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


def test_hop_table_cache_evicts_least_recently_used():
    corner_hop_table.cache_clear()
    assert HOP_TABLE_CACHE_SIZE >= 8
    w = WeightMap([[1.5, INF, 0.25]])
    first = corner_hop_table(Tessellation(1, 3))
    before = first.cost_matrix(w)
    later = range(4, 4 + HOP_TABLE_CACHE_SIZE)
    tables = {cols: corner_hop_table(Tessellation(1, cols)) for cols in later}
    assert corner_hop_table.cache_info().currsize == HOP_TABLE_CACHE_SIZE
    # the first table was evicted, so this call builds a new one
    rebuilt = corner_hop_table(Tessellation(1, 3))
    assert rebuilt is not first
    assert np.array_equal(rebuilt.cost_matrix(w), before)
    # a hit makes the table most recent, so the next eviction takes another
    assert corner_hop_table(Tessellation(1, 5)) is tables[5]
    corner_hop_table(Tessellation(2, 1))
    misses = corner_hop_table.cache_info().misses
    assert corner_hop_table(Tessellation(1, 5)) is tables[5]
    assert corner_hop_table.cache_info().misses == misses
    for cols in (4, 6):
        assert corner_hop_table(Tessellation(1, cols)) is not tables[cols]
    assert corner_hop_table.cache_info().misses == misses + 2


def test_hop_tables_share_walks_across_shapes(monkeypatch):
    calls = []

    def counting_walk(p, q):
        calls.append((p, q))
        return segment_walk(p, q)

    monkeypatch.setattr(metric, "segment_walk", counting_walk)
    # a fresh cache traces each walk with di >= 0 once and mirrors the rest
    metric._origin_walk.cache_clear()
    tess = Tessellation(12, 12)
    CornerHopTable(tess)
    ci, cj = tess.corner_array.T
    a, b = np.triu_indices(len(ci), k=1)
    needed = set(zip((cj[b] - cj[a]).tolist(), (ci[b] - ci[a]).tolist()))
    traced = {(dj, abs(di)) for dj, di in needed}
    assert all(q[0] >= 0.0 for _, q in calls)
    assert len(calls) == len(set(calls)) == len(traced)
    assert {(round(q[1] / SQRT3), round(q[0])) for _, q in calls} == traced
    # the mirrored entries are cached beside the traced ones
    assert metric._origin_walk.cache_info().currsize == len(needed | traced) > len(calls)
    calls.clear()
    for rows, cols in ((12, 11), (7, 12), (12, 12)):
        CornerHopTable(Tessellation(rows, cols))
    assert calls == []


def traced_walk(dj, di):
    """Lengths and per-piece cell pairs of the walk from the origin to (di, dj)."""
    lengths, pairs = [], []
    for rec in segment_walk((0.0, 0.0), corner_position((di, dj))):
        lengths.append(math.dist(rec.entry, rec.exit))
        pairs.append(
            frozenset(edge_cells(rec.edge)) if rec.kind == EDGE_COLLINEAR else frozenset([rec.cell])
        )
    return np.array(lengths), pairs


def test_mirrored_walks_equal_traced_walks():
    # every displacement with di < 0 of a 24x24 window
    for dj in range(25):
        for di in range(-25, 0):
            if (di + dj) % 2:
                continue
            walk = metric._origin_walk(dj, di)
            lengths, pairs = traced_walk(dj, di)
            assert walk.lengths.tobytes() == lengths.tobytes()
            cells = zip(walk.cells_a.tolist(), walk.cells_b.tolist())
            assert [frozenset(map(tuple, ab)) for ab in cells] == pairs


PADDING_SHAPES = [(r, c) for r in range(1, 17) for c in range(1, 17) if r * c <= 120] + [(24, 24)]


def test_hop_table_cells_index_the_padded_grid():
    for rows, cols in PADDING_SHAPES:
        tess = Tessellation(rows, cols)
        table = CornerHopTable(tess)
        width, height = cols + 2 * metric._PAD_COLS, rows + 2 * metric._PAD_ROWS
        flat = np.concatenate((table.flat_a, table.flat_b))
        assert flat.min() >= 0 and flat.max() < width * height
        # each pair's pieces decode to its walk's cells shifted onto its first corner
        ci, cj = tess.corner_array.T
        a, b = table.pairs.T.astype(np.int64)
        dj, di = cj[b] - cj[a], ci[b] - ci[a]
        start = np.searchsorted(table.pair_idx, np.arange(len(a)))
        for d in set(zip(dj.tolist(), di.tolist())):
            walk = metric._origin_walk(*d)
            ks = np.nonzero((dj == d[0]) & (di == d[1]))[0]
            pieces = start[ks, None] + np.arange(len(walk.lengths))
            shift = np.stack((cj[a[ks]], ci[a[ks]]), axis=1)[:, None, :]
            for flat, cells in ((table.flat_a, walk.cells_a), (table.flat_b, walk.cells_b)):
                row, col = np.divmod(flat[pieces], width)
                want = cells + shift
                assert np.array_equal(row - metric._PAD_ROWS, want[..., 0])
                assert np.array_equal(col - metric._PAD_COLS, want[..., 1])


@pytest.mark.parametrize("pad", ["_PAD_ROWS", "_PAD_COLS"])
def test_hop_table_refuses_cells_outside_the_padding(pad, monkeypatch):
    monkeypatch.setattr(metric, pad, 0)
    with pytest.raises(RuntimeError, match="padded weight grid"):
        CornerHopTable(Tessellation(3, 4))


def test_hop_table_keeps_20_bytes_per_piece():
    table = CornerHopTable(Tessellation(12, 12))
    pieces = len(table.lengths)
    assert len(table.pair_idx) == len(table.flat_a) == len(table.flat_b) == pieces
    arrays = (table.lengths, table.pair_idx, table.flat_a, table.flat_b)
    assert sum(a.nbytes for a in arrays) == 20 * pieces


def unique_hop_table(tess):
    """CornerHopTable's arrays with the displacements found by np.unique."""
    n = len(tess.corners)
    ci, cj = tess.corner_array.T
    ai, bi = np.triu_indices(n, k=1)
    dj, di = cj[bi] - cj[ai], ci[bi] - ci[ai]
    keys = dj * (2 * tess.cols + 5) + di
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    walks = [metric._origin_walk(int(dj[k]), int(di[k])) for k in first]
    counts = np.array([len(w.lengths) for w in walks], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    per_pair = counts[inverse]
    src = np.repeat((starts[inverse] - (np.cumsum(per_pair) - per_pair)).astype(np.int32), per_pair)
    src += np.arange(len(src), dtype=np.int32)
    width = tess.cols + 2 * metric._PAD_COLS
    first_cell = (cj[ai] + metric._PAD_ROWS) * width + ci[ai] + metric._PAD_COLS
    shift = np.repeat(first_cell.astype(np.int32), per_pair)
    flat = []
    for side in ("cells_a", "cells_b"):
        cells = np.concatenate([getattr(w, side) for w in walks])
        flat.append((cells[:, 0] * width + cells[:, 1])[src] + shift)
    return {
        "pairs": np.stack((ai, bi), axis=1).astype(np.int32),
        "pair_idx": np.repeat(np.arange(len(ai), dtype=np.int32), per_pair),
        "lengths": np.concatenate([w.lengths for w in walks])[src],
        "flat_a": flat[0],
        "flat_b": flat[1],
    }


@pytest.mark.parametrize(
    "rows, cols", [(1, 1), (1, 2), (1, 9), (2, 1), (9, 1), (12, 12), (16, 16), (24, 24)]
)
def test_hop_table_matches_the_np_unique_layout(rows, cols):
    # the table ranks displacements with a presence mask over their dense keys
    table = CornerHopTable(Tessellation(rows, cols))
    for name, want in unique_hop_table(Tessellation(rows, cols)).items():
        got = getattr(table, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_hop_table_budget_refuses_big_windows_before_building():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        CornerHopTable(Tessellation(200, 200))
    assert time.perf_counter() - start < 1.0
    corner_hop_table.cache_clear()
    corner_hop_table(Tessellation(2, 2))
    # a refused window is not cached: a second call is refused again
    for _ in range(2):
        with pytest.raises(ValueError, match="budget"):
            corner_hop_table(Tessellation(48, 48))
    info = corner_hop_table.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 0, 3)
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
