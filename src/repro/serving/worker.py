"""Shard-worker process internals.

One shard = one single-worker :class:`~concurrent.futures.ProcessPoolExecutor`
whose process is initialized once with the (pickle-shipped) point set
and serving configuration — the same ``initargs`` pattern as
:mod:`repro.perf.parallel` — and then serves batched sub-workloads.
Each worker builds a full :class:`~repro.engine.SpatialEngine` replica
over the points; the quadtree partition is a pure function of the
points and capacity, so a worker's ``execute_batch`` output is
bit-identical to the coordinator's unsharded engine.

Deadline propagation: every chunk message carries the coordinator's
*remaining* time budget, and the worker calls
:func:`~repro.resilience.fallback.budget_check` between serving slices
— a blown deadline surfaces as a typed
:class:`~repro.resilience.errors.BudgetExceededError` mid-chunk instead
of the worker obliviously finishing work nobody is waiting for.

Fault injection: the initializer also receives a
:class:`~repro.resilience.faultinject.WorkerFaultPlan` plus this
process's incarnation number; the plan is applied at the top of every
batch, which is how the chaos suite kills, hangs, or slows a worker on
a chosen batch deterministically.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry import Point, mindist_points_rects
from repro.geometry.backends import set_backend
from repro.knn.drain import BlockPointsView, scalar_thresholds, smallest, take
from repro.resilience.fallback import budget_check
from repro.resilience.faultinject import WorkerFaultPlan

#: Queries per cooperative budget checkpoint inside one chunk.
BUDGET_SLICE = 256

#: Relation name shard replicas register their table under.
SHARD_TABLE = "__shard__"

_WORKER_STATE: dict = {}


def _init_shard_worker(
    shard_id: int,
    incarnation: int,
    points: np.ndarray,
    capacity: int,
    manager_kwargs: dict,
    fault_plan: WorkerFaultPlan | None,
    backend: str = "numpy",
) -> None:
    """Pool initializer: build the shard's engine replica once.

    Runs in the worker process.  The engine (and therefore any catalog
    the statistics manager builds lazily) lives for the process's whole
    incarnation, so repeated chunks amortize the build exactly like a
    long-lived serving process would.  The coordinator ships its kernel
    backend name so replicas compute with the same backend (results are
    bit-identical either way; ``set_backend`` silently degrades to
    numpy where the compiled backend is unavailable).
    """
    from repro.engine import SpatialEngine, SpatialTable, StatisticsManager

    set_backend(backend)
    engine = SpatialEngine(StatisticsManager(**manager_kwargs))
    engine.register(SpatialTable(SHARD_TABLE, points, capacity=capacity))
    _WORKER_STATE.clear()
    _WORKER_STATE["engine"] = engine
    _WORKER_STATE["shard_id"] = int(shard_id)
    _WORKER_STATE["incarnation"] = int(incarnation)
    _WORKER_STATE["fault_plan"] = fault_plan
    _WORKER_STATE["batches_served"] = 0
    _WORKER_STATE["payload_bytes"] = int(np.asarray(points).nbytes)


def _serve_shard_chunk(payload: dict) -> tuple[list, list]:
    """Serve one chunk of queries inside the worker process.

    Args:
        payload: ``{"points": (m, 2) focal coords, "ks": (m,) ints,
            "budget_seconds": float | None}``.

    Returns:
        ``(results, explanations)`` in chunk order —
        :class:`~repro.engine.ExecutionResult` and
        :class:`~repro.engine.PlanExplanation` objects (both pickle
        back to the coordinator).

    Raises:
        BudgetExceededError: When the propagated deadline expires
            between serving slices.
    """
    from repro.engine.queries import KnnSelectQuery

    engine = _WORKER_STATE["engine"]
    fault_plan = _WORKER_STATE["fault_plan"]
    batch_index = _WORKER_STATE["batches_served"]
    _WORKER_STATE["batches_served"] = batch_index + 1
    if fault_plan is not None:
        fault_plan.apply(
            _WORKER_STATE["shard_id"], batch_index, _WORKER_STATE["incarnation"]
        )
    pts = np.asarray(payload["points"], dtype=float).reshape(-1, 2)
    ks = np.asarray(payload["ks"], dtype=np.int64).reshape(-1)
    budget = payload.get("budget_seconds")
    start = time.perf_counter()
    results: list = []
    explanations: list = []
    for lo in range(0, pts.shape[0], BUDGET_SLICE):
        budget_check(start, budget, "shard serving")
        queries = [
            KnnSelectQuery(
                SHARD_TABLE,
                Point(float(pts[i, 0]), float(pts[i, 1])),
                k=int(ks[i]),
            )
            for i in range(lo, min(lo + BUDGET_SLICE, pts.shape[0]))
        ]
        for result, explanation in engine.execute_batch(queries):
            results.append(result)
            explanations.append(explanation)
    return results, explanations


def _init_data_shard_worker(
    shard_id: int,
    incarnation: int,
    payload: dict,
    fault_plan: WorkerFaultPlan | None,
    backend: str = "numpy",
) -> None:
    """Pool initializer for a *data* shard: only this shard's blocks.

    ``payload`` carries the shard's canonical sub-snapshot (global
    block ids preserved), the member blocks' global row ids and points
    concatenated in canonical block order, and each row's position in
    the *global* block-order concatenation (``gpos`` — the unsharded
    full scan's tie-break key).  A local statistics manager over the
    shard's own points answers the estimate round; the coordinator
    sums costs and worst-cases tiers across shards.
    """
    from repro.engine import SpatialTable, StatisticsManager

    set_backend(backend)
    snapshot = payload["snapshot"]
    offsets = np.zeros(snapshot.n_blocks + 1, dtype=np.int64)
    np.cumsum(snapshot.counts, out=offsets[1:])
    view = BlockPointsView(payload["points"], offsets, payload["rows"])
    gpos = np.asarray(payload["gpos"], dtype=np.int64)
    stats = None
    if view.rows.shape[0]:
        stats = StatisticsManager(**payload.get("manager_kwargs", {}))
        stats.register(
            SpatialTable(SHARD_TABLE, payload["points"], capacity=int(payload["capacity"]))
        )
    _WORKER_STATE.clear()
    _WORKER_STATE["snapshot"] = snapshot
    _WORKER_STATE["view"] = view
    _WORKER_STATE["gpos"] = gpos
    _WORKER_STATE["stats"] = stats
    _WORKER_STATE["shard_id"] = int(shard_id)
    _WORKER_STATE["incarnation"] = int(incarnation)
    _WORKER_STATE["fault_plan"] = fault_plan
    _WORKER_STATE["batches_served"] = 0
    _WORKER_STATE["payload_bytes"] = int(
        snapshot.rects.nbytes
        + snapshot.counts.nbytes
        + snapshot.centers.nbytes
        + snapshot.block_ids.nbytes
        + view.rows.nbytes
        + view.xy.nbytes
        + gpos.nbytes
    )


def _stream_rounds(
    pts: np.ndarray,
    cursors: np.ndarray,
    min_rows: np.ndarray,
    min_keys: np.ndarray,
    start: float,
    budget: float | None,
    what: str,
) -> dict:
    """Serve each query's block stream from its cursor (open/resume).

    One columnar reply for the batch (cut per query by
    :func:`~repro.serving.merge.query_stream`): the emitted blocks'
    vector MINDIST ``keys``, ``block_ids`` and scalar ``thresholds``,
    their rows and distances, each query's next ``cursors``, and its
    ``bounds`` — the next block's ``(key, block id, threshold)``, or
    ``None`` once spent.  The same floats as the unsharded drain.
    """
    snapshot = _WORKER_STATE["snapshot"]
    view = _WORKER_STATE["view"]
    emitted: list[np.ndarray] = []
    emitted_keys: list[np.ndarray] = []
    thresholds: list[float] = []
    bounds: list[tuple | None] = []
    for i in range(pts.shape[0]):
        if i % BUDGET_SLICE == 0:
            budget_check(start, budget, what)
        # One MINDIST row per query (the keys the executor's block
        # drain orders by) keeps the worker's transient memory flat.
        keys = mindist_points_rects(pts[i : i + 1], snapshot.rects)[0]
        blocks, after = take(
            keys,
            snapshot.counts,
            int(cursors[i]),
            min_rows=int(min_rows[i]),
            min_key=float(min_keys[i]),
            tie_order=snapshot.tie_order,
        )
        stops = blocks if after is None else np.append(blocks, after)
        floats = scalar_thresholds(pts[i, 0], pts[i, 1], snapshot.rects[stops]).tolist()
        emitted.append(blocks)
        emitted_keys.append(keys[blocks])
        thresholds.extend(floats[: blocks.shape[0]])
        bounds.append(
            None
            if after is None
            else (float(keys[after]), int(snapshot.block_ids[after]), floats[-1])
        )
    sizes = np.array([blocks.shape[0] for blocks in emitted], dtype=np.int64)
    blocks = np.concatenate([np.empty(0, dtype=np.int64), *emitted])
    counts = snapshot.counts[blocks]
    entries = view.entries(blocks)
    # Every query's distances in one elementwise pass.
    owner = np.repeat(np.repeat(np.arange(pts.shape[0]), sizes), counts)
    dists = np.hypot(
        view.xy[0][entries] - pts[owner, 0], view.xy[1][entries] - pts[owner, 1]
    )
    block_offsets = np.zeros(pts.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=block_offsets[1:])
    row_offsets = np.zeros(blocks.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=row_offsets[1:])
    return {
        "keys": np.concatenate([np.empty(0), *emitted_keys]),
        "block_ids": snapshot.block_ids[blocks],
        "thresholds": np.array(thresholds, dtype=float),
        "block_offsets": block_offsets,
        "row_offsets": row_offsets,
        "rows": view.rows[entries],
        "dists": dists,
        "cursors": np.asarray(cursors, dtype=np.int64) + sizes,
        "bounds": bounds,
    }


def _serve_data_shard_chunk(payload: dict) -> dict:
    """Serve one round of the cross-shard merge protocol.

    Three round kinds (``payload["round"]``):

    * ``"open"`` — per query, the first ``k``-point prefix of the
      shard's MINDIST-ordered block stream plus its resume bound, and
      the local select-cost estimates for the coordinator's merged
      :class:`~repro.engine.PlanExplanation`;
    * ``"resume"`` — continue named queries' streams from their
      cursors until ``min_points`` are gathered or ``min_mindist`` is
      reached;
    * ``"scan"`` — the shard's full-scan local top-k with global
      tie-break keys, for queries whose plan chose the filter operator.

    Rounds are stateless in the worker (streams are rebuilt from the
    cursor), so a respawned incarnation resumes transparently and
    retries are idempotent.  The fault plan fires per *round* —
    ``batches_served`` counts rounds — which is how the chaos suite
    kills a data shard mid-stream.
    """
    fault_plan = _WORKER_STATE["fault_plan"]
    batch_index = _WORKER_STATE["batches_served"]
    _WORKER_STATE["batches_served"] = batch_index + 1
    if fault_plan is not None:
        fault_plan.apply(
            _WORKER_STATE["shard_id"], batch_index, _WORKER_STATE["incarnation"]
        )
    round_kind = payload["round"]
    pts = np.asarray(payload["points"], dtype=float).reshape(-1, 2)
    ks = np.asarray(payload["ks"], dtype=np.int64).reshape(-1)
    m = pts.shape[0]
    budget = payload.get("budget_seconds")
    start = time.perf_counter()
    if round_kind == "open":
        streams = _stream_rounds(
            pts, np.zeros(m, dtype=np.int64), ks, np.full(m, -np.inf), start, budget,
            "shard stream open",
        )
        stats = _WORKER_STATE["stats"]
        if stats is None:
            estimates = ([0.0] * m, [""] * m, [False] * m)
        else:
            costs, tiers, degraded = stats.estimate_select_provenance(
                SHARD_TABLE, pts, ks
            )
            estimates = ([float(c) for c in costs], tiers, degraded)
        return {"streams": streams, "estimates": estimates}
    if round_kind == "resume":
        streams = _stream_rounds(
            pts,
            np.asarray(payload["cursors"], dtype=np.int64).reshape(-1),
            np.asarray(payload["min_points"], dtype=np.int64).reshape(-1),
            np.asarray(payload["min_mindists"], dtype=float).reshape(-1),
            start,
            budget,
            "shard stream resume",
        )
        return {"streams": streams}
    if round_kind == "scan":
        view = _WORKER_STATE["view"]
        gpos = _WORKER_STATE["gpos"]
        topk = []
        for i in range(m):
            if i % BUDGET_SLICE == 0:
                budget_check(start, budget, "shard full scan")
            dists = np.hypot(view.xy[0] - pts[i, 0], view.xy[1] - pts[i, 1])
            # ``gpos`` ascends along the view: position ties are gpos ties.
            order = smallest(dists, int(ks[i]))
            topk.append((view.rows[order], dists[order], gpos[order]))
        return {"topk": topk}
    raise ValueError(f"unknown data-shard round {round_kind!r}")


def _worker_ping() -> tuple[int, int]:
    """Liveness probe used by eager tier spawn: ``(shard, incarnation)``."""
    return _WORKER_STATE.get("shard_id", -1), _WORKER_STATE.get("incarnation", -1)


def _worker_stats() -> dict:
    """Worker-side memory telemetry for the benchmark's RSS recording."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "shard_id": _WORKER_STATE.get("shard_id", -1),
        "incarnation": _WORKER_STATE.get("incarnation", -1),
        "payload_bytes": _WORKER_STATE.get("payload_bytes", 0),
        "ru_maxrss_kb": int(usage.ru_maxrss),
    }
