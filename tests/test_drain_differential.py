"""Differential harness: every exact k-NN execution path vs brute force.

Each path is checked on two counts:

* **answers** — the distances of the returned rows, in order, equal the
  brute-force k smallest distances (over the rows that pass the query's
  predicate and region, when it has them);
* **cost** — ``blocks_scanned`` equals the heap browser's
  (:func:`~repro.knn.distance_browsing.knn_select`) or, where the heap
  browser has no equivalent (predicates, region pruning, zero-count
  blocks), the count the browser's stop rule implies: a block is
  scanned iff its MINDIST is at most the k-th qualifying distance, and
  every admissible block is scanned when fewer than k rows qualify.

The paths: the scalar incremental, predicated and region-pruned
operators; ``SpatialEngine.execute_batch`` (canonical and Hilbert
snapshot layouts); ``select_cost_exact`` over quadtree, grid and R-tree
indexes (with zero-count blocks spliced in); and the data-shard
protocol run in-process — ``partition_blocks``, the worker's open and
resume rounds, and the coordinator's ``QueryMerge`` — without spawning
a process.

The kernel's own pieces — prefix selection, the stop rule and the
stream cursor — are checked against naive loops over the full
tie-stable order.

Inputs are hypothesis-generated and lean on the cases that break
k-NN code: integer lattices (exact MINDIST ties, points on block
edges), duplicate and collinear points, ``k >= n``, and shard plans
that leave shards empty.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import KnnSelectQuery, SpatialEngine, SpatialTable, StatisticsManager
from repro.engine import column
from repro.engine.physical import (
    IncrementalKnnOperator,
    RegionPrunedKnnOperator,
    execute_incremental_knn_batch,
)
from repro.geometry import Point, Rect, mindist_point_rect
from repro.geometry.kernels import mindist_rects, tie_stable_argsort
from repro.index import GridIndex, IndexSnapshot, Quadtree, RTree, as_snapshot
from repro.index.base import Block
from repro.knn import brute_force_knn, knn_select, select_cost, select_cost_exact
from repro.knn import drain as drain_module
from repro.knn.drain import (
    first_stop,
    mindist_prefixes,
    mindist_windows,
    scalar_thresholds,
    smallest,
    take,
)
from repro.serving import worker as worker_module
from repro.serving.merge import QueryMerge, query_stream
from repro.serving.shards import partition_blocks, plan_shards

#: Half the active Hypothesis profile's budget: 50 examples under the
#: default profile, 500 under ``HYPOTHESIS_PROFILE=deep`` (conftest.py).
SETTINGS = settings(
    max_examples=settings.default.max_examples // 2,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def point_sets(draw) -> np.ndarray:
    """Degenerate point sets inside ``[0, 16]^2``."""
    kind = draw(st.sampled_from(["lattice", "duplicates", "collinear", "floats"]))
    if kind == "lattice":
        coords = draw(
            st.lists(
                st.tuples(st.integers(0, 8), st.integers(0, 8)),
                min_size=1,
                max_size=90,
            )
        )
        pts = np.array(coords, dtype=float) * 2.0
    elif kind == "duplicates":
        distinct = draw(
            st.lists(
                st.tuples(st.integers(0, 16), st.integers(0, 16)),
                min_size=1,
                max_size=3,
            )
        )
        repeats = draw(
            st.lists(
                st.integers(1, 30), min_size=len(distinct), max_size=len(distinct)
            )
        )
        pts = np.repeat(np.array(distinct, dtype=float), repeats, axis=0)
    elif kind == "collinear":
        ts = draw(st.lists(st.integers(0, 16), min_size=1, max_size=60))
        axis = draw(st.sampled_from(["diagonal", "horizontal", "vertical"]))
        t = np.array(ts, dtype=float)
        if axis == "diagonal":
            pts = np.column_stack([t, t])
        elif axis == "horizontal":
            pts = np.column_stack([t, np.full_like(t, 5.0)])
        else:
            pts = np.column_stack([np.full_like(t, 7.0), t])
    else:
        coords = draw(
            st.lists(
                st.tuples(
                    st.floats(0, 16, allow_nan=False),
                    st.floats(0, 16, allow_nan=False),
                ),
                min_size=1,
                max_size=90,
            )
        )
        pts = np.array(coords, dtype=float)
    return pts.reshape(-1, 2)


#: Lattice and half-lattice query coordinates, a little beyond the data.
half_lattice = st.integers(-2, 34).map(lambda v: v / 2.0)
capacities = st.sampled_from([1, 2, 4, 8])


@st.composite
def knn_cases(draw):
    """``(points, capacity, [(Point, k), ...])`` with ``k`` up to ``n + 3``."""
    pts = draw(point_sets())
    capacity = draw(capacities)
    n = pts.shape[0]
    queries = draw(
        st.lists(
            st.tuples(half_lattice, half_lattice, st.integers(1, n + 3)),
            min_size=1,
            max_size=6,
        )
    )
    return pts, capacity, [(Point(x, y), k) for x, y, k in queries]


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _dists(points: np.ndarray, q: Point) -> np.ndarray:
    return np.hypot(points[:, 0] - q.x, points[:, 1] - q.y)


def _in_region(points: np.ndarray, region: Rect | None) -> np.ndarray:
    if region is None:
        return np.ones(points.shape[0], dtype=bool)
    return (
        (points[:, 0] >= region.x_min)
        & (points[:, 0] <= region.x_max)
        & (points[:, 1] >= region.y_min)
        & (points[:, 1] <= region.y_max)
    )


def _oracle_dists(points, q, k, qualifying=None) -> np.ndarray:
    """Brute-force k smallest distances over the qualifying rows."""
    if qualifying is None:
        return _dists(brute_force_knn(points, q, k), q)
    return np.sort(_dists(points[qualifying], q), kind="stable")[:k]


def _stop_rule_cost(rects, q, kth, *, admissible=None, scalar=True) -> int:
    """Blocks the browser's stop rule scans when the k-th answer lies at ``kth``.

    ``kth=None`` means fewer than k rows qualify: every admissible
    block is scanned.  ``scalar`` picks the per-block MINDIST float the
    path under test compares against.
    """
    rects = np.asarray(rects, dtype=float).reshape(-1, 4)
    if admissible is None:
        admissible = np.ones(rects.shape[0], dtype=bool)
    if kth is None:
        return int(admissible.sum())
    if scalar:
        mind = np.array([mindist_point_rect(q, Rect(*r)) for r in rects])
    else:
        mind = mindist_rects((q.x, q.y), rects)
    return int(np.count_nonzero(admissible & (mind <= kth)))


def _assert_answer(table, q, k, result, qualifying=None):
    got = _dists(table.points[result.row_ids], q)
    want = _oracle_dists(table.points, q, k, qualifying)
    np.testing.assert_array_equal(got, want)
    if qualifying is not None:
        assert qualifying[result.row_ids].all()


# ----------------------------------------------------------------------
# The kernel's ordering, stop rule and cursor against naive loops
# ----------------------------------------------------------------------
@st.composite
def tied_keys(draw):
    """Keys with many exact ties, long enough for the partition path."""
    n = draw(st.integers(1, 700))
    levels = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, levels, n).astype(float) / 4.0
    tie_order = rng.permutation(n) if draw(st.booleans()) else None
    return keys, tie_order


@SETTINGS
@given(tied_keys(), st.integers(0, 720))
def test_smallest_and_windows_are_prefixes_of_the_tie_stable_order(case, size):
    keys, tie_order = case
    full = tie_stable_argsort(keys[None, :], tie_order)[0]
    np.testing.assert_array_equal(smallest(keys, size, tie_order), full[:size])
    covered = 0
    for window, after in mindist_windows(keys, max(size, 1), tie_order=tie_order):
        np.testing.assert_array_equal(window, full[: window.shape[0]])
        if after is not None:
            assert after == full[window.shape[0]]
        covered = window.shape[0]
    assert covered == keys.shape[0]


@SETTINGS
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=40),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 8)), max_size=60),
    st.integers(1, 30),
)
@example([2, 4], [(0, 1)], 1)  # a row held only from step 1 on
@example([4, 2, 6], [(3, 0), (0, 1)], 2)  # a threshold stepping down
def test_first_stop_matches_a_per_step_count(thresholds, rows, k):
    # Thresholds need not ascend (scalar floats can step down by an
    # ulp); rows carry (distance, first step at which they are held).
    dists = np.array([d for d, __ in rows], dtype=float) / 2.0
    avail = np.array([a for __, a in rows], dtype=np.int64)

    def per_step(t):
        held_below = ((avail <= i) & (dists < t[i]) for i in range(t.shape[0]))
        return next((i for i, hit in enumerate(held_below) if hit.sum() >= k), None)

    t = np.array(thresholds, dtype=float) / 2.0
    for steps in (t, np.sort(t)):
        assert first_stop(dists, steps, k, avail) == per_step(steps)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_stop_counts_step_downs_over_thousands_of_rows(seed):
    # Ascending thresholds with one-ulp step-downs (scalar floats
    # disagreeing with the vector order) and thousands of rows held in
    # ascending block order, many lying exactly on a stepped-down
    # threshold so the held count dips there.  Every k at which the
    # answer can change is checked against a per-step count.
    rng = np.random.default_rng(seed)
    m, n = 300, 4_000
    thresholds = np.sort(rng.uniform(0.0, 50.0, m))
    downs = rng.choice(np.arange(2, m), 20, replace=False)
    thresholds[downs] = np.nextafter(thresholds[downs - 1], -np.inf)
    avail = np.sort(rng.integers(0, m, n))
    dists = thresholds[avail] + rng.uniform(0.0, 5.0, n)
    on_step = rng.choice(n, 1_000, replace=False)
    dists[on_step] = thresholds[rng.choice(downs, 1_000)]
    avail[on_step] = 0
    order = np.argsort(avail, kind="stable")
    dists, avail = dists[order], avail[order]
    counts = np.array(
        [np.count_nonzero((avail <= i) & (dists < thresholds[i])) for i in range(m)]
    )
    assert np.any(counts[1:] < counts[:-1])  # the dips are exercised
    for k in np.unique(np.concatenate([counts, counts + 1, [1, n + 1]])).tolist():
        hits = np.flatnonzero(counts >= k)
        want = int(hits[0]) if hits.shape[0] else None
        assert first_stop(dists, thresholds, k, avail) == want


@SETTINGS
@given(tied_keys(), st.integers(0, 5), st.integers(0, 300), st.integers(0, 40))
def test_take_matches_a_block_by_block_stream(case, cursor_seed, min_rows, min_key):
    keys, tie_order = case
    n = keys.shape[0]
    counts = (np.arange(n) * 7 + 3) % 5  # zero-count blocks included
    full = tie_stable_argsort(keys[None, :], tie_order)[0]
    cursor = min(n, cursor_seed * n // 5)
    blocks, after = take(
        keys, counts, cursor, min_rows=min_rows, min_key=min_key / 4.0, tie_order=tie_order
    )
    end, held = cursor, 0
    while end < n and (held < min_rows or keys[full[end]] < min_key / 4.0):
        held += int(counts[full[end]])
        end += 1
    np.testing.assert_array_equal(blocks, full[cursor:end])
    assert after == (int(full[end]) if end < n else None)


# ----------------------------------------------------------------------
# In-engine paths
# ----------------------------------------------------------------------
@SETTINGS
@given(knn_cases())
def test_incremental_operator_and_batch_match_oracles(case):
    pts, capacity, queries = case
    table = SpatialTable("t", pts, capacity=capacity)
    for layout in ("canonical", "hilbert"):
        stats = StatisticsManager(max_k=32, snapshot_layout=layout)
        stats.register(table)
        snapshot = stats.snapshot("t")
        select_queries = [KnnSelectQuery("t", q, k=k) for q, k in queries]
        batch = execute_incremental_knn_batch(table, select_queries, snapshot)
        for (q, k), query, batch_result in zip(queries, select_queries, batch):
            __, browser_cost = knn_select(table.index, q, k)
            scalar = IncrementalKnnOperator(table, query).execute()
            for result in (scalar, batch_result):
                _assert_answer(table, q, k, result)
                assert result.blocks_scanned == browser_cost


@pytest.mark.parametrize("layout", ["canonical", "hilbert"])
def test_incremental_paths_match_oracles_over_hundreds_of_blocks(layout):
    # A 40x40 lattice at capacity 2 has far more blocks than the
    # generated cases above: every window, boundary tie and stop here
    # runs at a realistic block count.
    xs, ys = np.meshgrid(np.arange(40.0), np.arange(40.0))
    table = SpatialTable("t", np.column_stack([xs.ravel(), ys.ravel()]), capacity=2)
    assert len(table.index.blocks) > 500
    stats = StatisticsManager(max_k=32, snapshot_layout=layout)
    stats.register(table)
    queries = [
        KnnSelectQuery("t", Point(x, y), k=k)
        for x, y in ((0.0, 0.0), (19.5, 19.5), (7.0, 31.5), (-3.0, 45.0))
        for k in (1, 10, 100, 700)
    ]
    batch = execute_incremental_knn_batch(table, queries, stats.snapshot("t"))
    for query, batch_result in zip(queries, batch):
        __, browser_cost = knn_select(table.index, query.query, query.k)
        scalar = IncrementalKnnOperator(table, query).execute()
        np.testing.assert_array_equal(scalar.row_ids, batch_result.row_ids)
        for result in (scalar, batch_result):
            _assert_answer(table, query.query, query.k, result)
            assert result.blocks_scanned == browser_cost


@SETTINGS
@given(knn_cases(), st.sampled_from(["canonical", "hilbert"]))
def test_engine_execute_batch_matches_oracles(case, layout):
    pts, capacity, queries = case
    tags = np.arange(pts.shape[0]) % 3
    engine = SpatialEngine(
        StatisticsManager(max_k=32, snapshot_layout=layout),
        pinned_operators={"select": "incremental-knn"},
    )
    engine.register(SpatialTable("t", pts, {"tag": tags}, capacity=capacity))
    table = engine.stats.table("t")
    select_queries = []
    for i, (q, k) in enumerate(queries):
        predicate = column("tag") != 1 if i % 2 else None
        select_queries.append(KnnSelectQuery("t", q, k=k, predicate=predicate))
    for query, (result, explanation) in zip(
        select_queries, engine.execute_batch(select_queries)
    ):
        assert explanation.chosen == "incremental-knn"
        q, k = query.query, query.k
        qualifying = None if query.predicate is None else tags != 1
        _assert_answer(table, q, k, result, qualifying)
        if qualifying is None:
            __, want = knn_select(table.index, q, k)
        else:
            want = _predicated_cost(table, q, k, qualifying)
        assert result.blocks_scanned == want


def _predicated_cost(table, q, k, qualifying, region=None) -> int:
    rects = np.array([b.rect.as_tuple() for b in table.index.blocks])
    admissible = None
    if region is not None:
        admissible = np.array([b.rect.intersects(region) for b in table.index.blocks])
    want = _oracle_dists(table.points, q, k, qualifying)
    kth = float(want[k - 1]) if want.shape[0] >= k else None
    return _stop_rule_cost(rects, q, kth, admissible=admissible)


@st.composite
def regions(draw) -> Rect:
    x0, x1 = sorted(draw(st.tuples(half_lattice, half_lattice)))
    y0, y1 = sorted(draw(st.tuples(half_lattice, half_lattice)))
    return Rect(x0, y0, x1, y1)


@SETTINGS
@given(knn_cases(), regions(), st.integers(0, 3))
def test_predicated_and_region_pruned_operators_match_oracles(case, region, cut):
    pts, capacity, queries = case
    tags = np.arange(pts.shape[0]) % 4
    table = SpatialTable("t", pts, {"tag": tags}, capacity=capacity)
    predicate = column("tag") < cut
    in_region = _in_region(pts, region)
    for q, k in queries:
        # Predicate only: incremental browsing filters on the fly.
        query = KnnSelectQuery("t", q, k=k, predicate=predicate)
        result = IncrementalKnnOperator(table, query).execute()
        qualifying = tags < cut
        _assert_answer(table, q, k, result, qualifying)
        assert result.blocks_scanned == _predicated_cost(table, q, k, qualifying)
        # Region (with and without the predicate): the plain operator
        # filters rows, the region-pruned one also skips blocks.
        for pred in (None, predicate):
            query = KnnSelectQuery("t", q, k=k, predicate=pred, region=region)
            qualifying = in_region & (tags < cut if pred is not None else True)
            plain = IncrementalKnnOperator(table, query).execute()
            _assert_answer(table, q, k, plain, qualifying)
            assert plain.blocks_scanned == _predicated_cost(table, q, k, qualifying)
            pruned = RegionPrunedKnnOperator(table, query).execute()
            _assert_answer(table, q, k, pruned, qualifying)
            assert pruned.blocks_scanned == _predicated_cost(
                table, q, k, qualifying, region
            )


# ----------------------------------------------------------------------
# The cost oracle path (select_cost_exact) over every index kind
# ----------------------------------------------------------------------
def _index(kind: str, pts: np.ndarray, capacity: int):
    if kind == "quadtree":
        return Quadtree(pts, capacity=capacity)
    if kind == "grid":
        return GridIndex(pts, nx=max(1, 8 // capacity))
    return RTree(pts, capacity=capacity, fanout=2 + capacity % 3)


@SETTINGS
@given(knn_cases(), st.sampled_from(["quadtree", "grid", "rtree"]))
def test_select_cost_exact_matches_browser(case, kind):
    pts, capacity, queries = case
    index = _index(kind, pts, capacity)
    snapshot = as_snapshot(index)
    hilbert = snapshot.with_layout(
        np.arange(snapshot.n_blocks)[::-1].copy(), name="hilbert"
    )
    for q, k in queries:
        want = select_cost(index, q, k)
        assert select_cost_exact(snapshot, index.blocks, q, k) == want
        assert select_cost_exact(hilbert, index.blocks, q, k) == want
        __, seeded = knn_select(index, q, k, snapshot=hilbert)
        assert seeded == want


@SETTINGS
@given(knn_cases(), st.lists(st.tuples(half_lattice, half_lattice), min_size=1, max_size=4))
def test_select_cost_exact_counts_zero_count_blocks(case, empties):
    pts, capacity, queries = case
    index = Quadtree(pts, capacity=capacity)
    rects = [b.rect.as_tuple() for b in index.blocks]
    blocks = list(index.blocks)
    # Splice empty unit cells in among the counted blocks.
    for j, (x, y) in enumerate(empties):
        at = (7 * j) % (len(rects) + 1)
        rects.insert(at, (x, y, x + 1.0, y + 1.0))
        blocks.insert(at, Block(-1, Rect(x, y, x + 1.0, y + 1.0), np.empty((0, 2))))
    counts = [b.count for b in blocks]
    snapshot = IndexSnapshot.from_arrays(np.array(rects), np.array(counts))
    for q, k in queries:
        want_d = _oracle_dists(pts, q, k)
        kth = float(want_d[k - 1]) if want_d.shape[0] >= k else None
        want = _stop_rule_cost(rects, q, kth, scalar=False)
        assert select_cost_exact(snapshot, blocks, q, k) == want


# ----------------------------------------------------------------------
# The data-shard protocol, in-process
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def isolated_worker_state():
    # Module-scoped: every example re-initializes all shard states, so
    # only the module's own process-global state needs restoring.
    saved = dict(worker_module._WORKER_STATE)
    yield
    worker_module._WORKER_STATE.clear()
    worker_module._WORKER_STATE.update(saved)


def _shard_payloads(table: SpatialTable, plan):
    """Per-shard init payloads, laid out as the coordinator ships them."""
    canonical = as_snapshot(table.index).canonical()
    members, __ = partition_blocks(canonical, plan)
    starts = np.zeros(canonical.n_blocks + 1, dtype=np.int64)
    np.cumsum(canonical.counts, out=starts[1:])
    payloads = []
    for rows_m in members:
        block_rows = [
            np.asarray(table.block_row_ids(int(canonical.block_ids[m])), dtype=np.int64)
            for m in rows_m
        ]
        rows = np.concatenate(block_rows) if block_rows else np.empty(0, dtype=np.int64)
        gpos = (
            np.concatenate([np.arange(starts[m], starts[m + 1]) for m in rows_m])
            if rows_m.size
            else np.empty(0, dtype=np.int64)
        )
        payloads.append(
            {
                "snapshot": canonical.extract(rows_m),
                "rows": rows,
                "points": np.ascontiguousarray(table.points[rows]),
                "gpos": gpos.astype(np.int64),
                "capacity": table.index.capacity,
                "manager_kwargs": {"max_k": 32},
            }
        )
    return payloads


def _serve_in_process(payloads, pts: np.ndarray, ks: np.ndarray):
    """Open/resume rounds against each shard's worker state, merged."""
    state = worker_module._WORKER_STATE
    states = []
    for sid, payload in enumerate(payloads):
        worker_module._init_data_shard_worker(sid, 0, payload, None)
        states.append(dict(state))

    def serve(sid: int, payload: dict) -> dict:
        state.clear()
        state.update(states[sid])
        out = worker_module._serve_data_shard_chunk(payload)
        states[sid] = dict(state)
        return out

    opened = [
        serve(sid, {"round": "open", "points": pts, "ks": ks})
        for sid in range(len(payloads))
    ]
    merges = []
    for i in range(pts.shape[0]):
        merge = QueryMerge(int(ks[i]))
        for sid, answer in enumerate(opened):
            merge.add_stream(sid, *query_stream(answer["streams"], i))
        merges.append(merge)
    pending = set(range(len(merges)))
    while pending:
        needs_by_shard: dict[int, list] = {}
        for i in sorted(pending):
            needs = merges[i].advance()
            if needs is None:
                pending.discard(i)
                continue
            for sid, request in needs.items():
                needs_by_shard.setdefault(sid, []).append((i, *request))
        for sid, requests in needs_by_shard.items():
            idx = np.array([r[0] for r in requests], dtype=np.int64)
            answer = serve(
                sid,
                {
                    "round": "resume",
                    "points": pts[idx],
                    "ks": ks[idx],
                    "cursors": np.array([r[1] for r in requests], dtype=np.int64),
                    "min_points": np.array([r[2] for r in requests], dtype=np.int64),
                    "min_mindists": np.array([r[3] for r in requests], dtype=float),
                },
            )
            for j, request in enumerate(requests):
                merges[request[0]].streams[sid].extend(*query_stream(answer["streams"], j))
    return [merge.result() for merge in merges]


@SETTINGS
@given(
    knn_cases(),
    st.integers(1, 4),
    st.sampled_from(["quadtree", "grid", "rtree"]),
)
def test_data_shard_protocol_matches_oracles(
    isolated_worker_state, case, n_shards, routing
):
    pts, capacity, queries = case
    table = SpatialTable("t", pts, capacity=capacity)
    plan = plan_shards(_index(routing, pts, capacity), n_shards)
    focal = np.array([[q.x, q.y] for q, __ in queries], dtype=float)
    ks = np.array([k for __, k in queries], dtype=np.int64)
    answers = _serve_in_process(_shard_payloads(table, plan), focal, ks)
    for (q, k), (rows, blocks_scanned, n_verified) in zip(queries, answers):
        got = _dists(table.points[rows], q)
        np.testing.assert_array_equal(got, _oracle_dists(table.points, q, k))
        assert n_verified == rows.shape[0]
        __, want = knn_select(table.index, q, k)
        assert blocks_scanned == want


def test_stop_rule_oracle_agrees_with_browser_on_a_lattice():
    # The closed-form cost oracle used above, pinned against the heap
    # browser on a tie-heavy input so a bug in the oracle cannot hide
    # one in the paths.
    xs, ys = np.meshgrid(np.arange(6.0), np.arange(6.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    tree = Quadtree(pts, capacity=2)
    rects = [b.rect.as_tuple() for b in tree.blocks]
    for q in (Point(0, 0), Point(2.5, 2.5), Point(3, 1.5), Point(-1, 7)):
        for k in (1, 4, 9, 36, 40):
            want_d = _oracle_dists(pts, q, k)
            kth = float(want_d[k - 1]) if want_d.shape[0] >= k else None
            assert _stop_rule_cost(rects, q, kth) == select_cost(tree, q, k)
            assert math.isfinite(select_cost(tree, q, k))


# ----------------------------------------------------------------------
# The lockstep kernel: scalar thresholds, the squared-MINDIST prefix,
# multi-chunk batches and bounded memory
# ----------------------------------------------------------------------
#: Coordinates with both zeros, lattice values and arbitrary floats.
signed_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
    st.integers(-6, 6).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
)


@st.composite
def threshold_cases(draw):
    """``(points, rects)``: points inside, on edges and corners, or apart."""
    n = draw(st.integers(1, 12))
    rects, points = [], []
    for __ in range(n):
        x0, x1 = sorted(draw(st.tuples(signed_coords, signed_coords)))
        y0, y1 = sorted(draw(st.tuples(signed_coords, signed_coords)))
        if draw(st.booleans()):
            x1 = x0  # zero-area (a segment, or a point below)
        if draw(st.booleans()):
            y1 = y0
        rects.append((x0, y0, x1, y1))
        # The focal coordinates: a bound (edges, corners; ``-0.0``
        # against a ``0.0`` bound), the middle (inside), or anywhere.
        px = draw(st.sampled_from([x0, x1, (x0 + x1) / 2, -x0, None]))
        py = draw(st.sampled_from([y0, y1, (y0 + y1) / 2, -y1, None]))
        points.append((
            draw(signed_coords) if px is None else px,
            draw(signed_coords) if py is None else py,
        ))
    return np.array(points, dtype=float), np.array(rects, dtype=float)


@SETTINGS
@given(threshold_cases())
def test_scalar_thresholds_are_the_per_rect_scalar_floats(case):
    points, rects = case
    loop = [mindist_point_rect(Point(*p), Rect(*r)) for p, r in zip(points, rects)]
    got = scalar_thresholds(points[:, 0], points[:, 1], rects)
    np.testing.assert_array_equal(got.view(np.int64), np.array(loop).view(np.int64))
    # One focal point against every rect.
    p = Point(*points[0])
    loop = [mindist_point_rect(p, Rect(*r)) for r in rects]
    got = scalar_thresholds(p.x, p.y, rects)
    np.testing.assert_array_equal(got.view(np.int64), np.array(loop).view(np.int64))


def _near_tie_rects(rng: np.random.Generator, center, n: int) -> np.ndarray:
    """Point rects on a circle around ``center``: squares and ``hypot`` disagree."""
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    xs = center[0] + 1.7 * np.cos(theta)
    ys = center[1] + 1.7 * np.sin(theta)
    return np.column_stack([xs, ys, xs, ys])


def test_near_tie_rects_order_differently_by_square_and_hypot():
    # The prefix property below leans on these inputs: they must hold
    # pairs whose squared-distance order contradicts their key order.
    rng = np.random.default_rng(0)
    center = (3.0, -2.0)
    rects = _near_tie_rects(rng, center, 200)
    dx, dy = rects[:, 0] - center[0], rects[:, 1] - center[1]
    sq, keys = dx * dx + dy * dy, mindist_rects(center, rects)
    i, j = np.triu_indices(rects.shape[0], 1)
    assert np.any((sq[i] < sq[j]) & (keys[i] > keys[j]))


@st.composite
def prefix_cases(draw):
    """``(rects, points, sizes, tie_order, masks, chunk)`` for the prefix pass."""
    kind = draw(st.sampled_from(["lattice", "degenerate", "near-tie"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(1, 12))
    if kind == "near-tie":
        center = (float(rng.integers(-4, 5)), float(rng.integers(-4, 5)))
        rects = _near_tie_rects(rng, center, draw(st.integers(2, 300)))
        points = np.tile(center, (m, 1))
        points[1:] += rng.integers(-1, 2, (m - 1, 2)) * 0.5
    else:
        n = draw(st.integers(1, 300))
        lo = rng.integers(0, 8, (n, 2)).astype(float)
        extent = rng.integers(0, 3, (n, 2)).astype(float)
        if kind == "degenerate":
            extent *= rng.random((n, 2)) < 0.3  # zero-width/height and point rects
        rects = np.column_stack([lo, lo + extent])
        points = rng.integers(-2, 20, (m, 2)) / 2.0
    n = rects.shape[0]
    tie_order = rng.permutation(n) if draw(st.booleans()) else None
    masks = None
    if draw(st.booleans()):
        masks = [None if rng.random() < 0.3 else rng.random(n) < 0.6 for __ in range(m)]
    limits = [n if mask is None else int(mask.sum()) for mask in masks or [None] * m]
    sizes = np.array([rng.integers(0, limit + 1) for limit in limits], dtype=np.int64)
    chunk = draw(st.sampled_from([1, n, 3 * n, 1 << 14]))
    return rects, points, sizes, tie_order, masks, chunk


@SETTINGS
@given(prefix_cases())
def test_mindist_prefixes_are_prefixes_of_the_tie_stable_order(case):
    rects, points, sizes, tie_order, masks, chunk = case
    with mock.patch.object(drain_module, "_MINDIST_CHUNK", chunk):
        blocks, offsets = mindist_prefixes(
            rects, points, sizes, tie_order=tie_order, masks=masks
        )
    np.testing.assert_array_equal(np.diff(offsets), sizes)
    for i, point in enumerate(points):
        keys = mindist_rects(point, rects)
        if masks is not None and masks[i] is not None:
            keys = np.where(masks[i], keys, np.inf)
        full = tie_stable_argsort(keys[None, :], tie_order)[0]
        np.testing.assert_array_equal(blocks[offsets[i] : offsets[i + 1]], full[: sizes[i]])


def _multi_chunk_engine(pts: np.ndarray, layout: str) -> SpatialEngine:
    """Two copies of one table: ``t`` browses plainly, ``u`` prunes by region."""
    engine = SpatialEngine(
        StatisticsManager(max_k=32, snapshot_layout=layout),
        pinned_operators={"t:select": "incremental-knn", "u:select": "region-pruned-knn"},
    )
    tags = np.arange(pts.shape[0]) % 3
    engine.register(SpatialTable("t", pts, {"tag": tags}, capacity=2))
    engine.register(SpatialTable("u", pts, {"tag": tags}, capacity=2))
    return engine


def _check_mixed_batch(engine: SpatialEngine, specs) -> None:
    """Run ``(table, point, k, predicated, region)`` specs as one batch."""
    pts = engine.stats.table("t").points
    tags = engine.stats.table("t").column_values("tag")
    queries = [
        KnnSelectQuery(
            name, q, k=k, predicate=column("tag") != 1 if predicated else None, region=region
        )
        for name, q, k, predicated, region in specs
    ]
    for query, (result, explanation) in zip(queries, engine.execute_batch(queries)):
        table = engine.stats.table(query.table)
        q, k, region = query.query, query.k, query.region
        qualifying = _in_region(pts, region) & (
            tags != 1 if query.predicate is not None else True
        )
        plain = query.predicate is None and region is None
        _assert_answer(table, q, k, result, None if plain else qualifying)
        pruned = query.table == "u" and region is not None
        if query.table == "t" or pruned:
            assert explanation.chosen == ("region-pruned-knn" if pruned else "incremental-knn")
        if explanation.chosen == "filter-then-knn":
            assert result.blocks_scanned == len(table.index.blocks)
        elif plain:
            assert result.blocks_scanned == knn_select(table.index, q, k)[1]
            assert result.blocks_scanned == select_cost(table.index, q, k)
        else:
            want = _predicated_cost(table, q, k, qualifying, region if pruned else None)
            assert result.blocks_scanned == want


@SETTINGS
@given(
    point_sets(),
    st.lists(
        st.tuples(
            st.sampled_from(["t", "u"]),
            half_lattice,
            half_lattice,
            st.integers(0, 10**6),
            st.booleans(),
            st.one_of(st.none(), regions()),
        ),
        min_size=1,
        max_size=24,
    ),
    st.sampled_from(["canonical", "hilbert"]),
    st.sampled_from([1, 7, 40]),
)
def test_execute_batch_over_many_chunks_matches_oracles(pts, specs, layout, chunk):
    # Chunks of a few MINDIST rows split every batch into many chunks;
    # k runs over 1..n+5, so the group's queries stop in different
    # rounds and some exhaust the table.
    n = pts.shape[0]
    engine = _multi_chunk_engine(pts, layout)
    specs = [
        (name, Point(x, y), 1 + draw % (n + 5), predicated, region)
        for name, x, y, draw, predicated, region in specs
    ]
    with mock.patch.object(drain_module, "_MINDIST_CHUNK", chunk):
        _check_mixed_batch(engine, specs)


@pytest.mark.parametrize("layout", ["canonical", "hilbert"])
def test_execute_batch_over_many_chunks_on_hundreds_of_blocks(layout):
    xs, ys = np.meshgrid(np.arange(30.0), np.arange(30.0))
    engine = _multi_chunk_engine(np.column_stack([xs.ravel(), ys.ravel()]), layout)
    n = engine.stats.table("t").n_rows
    rng = np.random.default_rng(3)
    regions_ = [None, Rect(3.0, 4.0, 17.5, 9.0), Rect(20.0, 0.0, 20.0, 29.0)]
    specs = [
        (
            "tu"[i % 2],
            Point(*(rng.integers(-4, 68, 2) / 2.0)),
            int(k),
            bool(i % 3 == 1),
            regions_[i % 3],
        )
        for i, k in enumerate(np.unique(np.geomspace(1, n + 5, 40).astype(int)))
    ]
    with mock.patch.object(drain_module, "_MINDIST_CHUNK", 2_000):
        _check_mixed_batch(engine, specs)


def test_batched_drain_holds_no_full_mindist_matrix():
    # The ordering keys are chunked: a large group's transient memory
    # stays below one (queries x blocks) float64 matrix.
    rng = np.random.default_rng(11)
    table = SpatialTable("t", rng.uniform(0.0, 1_000.0, (12_000, 2)), capacity=4)
    stats = StatisticsManager(max_k=32)
    stats.register(table)
    snapshot = stats.snapshot("t")
    assert snapshot.n_blocks >= 2_000
    __ = table.points_view  # built once per table, outside the measurement
    focal = rng.uniform(0.0, 1_000.0, (2_048, 2))
    queries = [
        KnnSelectQuery("t", Point(x, y), k=int(k))
        for (x, y), k in zip(focal.tolist(), rng.integers(1, 17, 2_048))
    ]
    tracemalloc.start()
    try:
        results = execute_incremental_knn_batch(table, queries, snapshot)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == len(queries)
    assert peak < len(queries) * snapshot.n_blocks * 8
