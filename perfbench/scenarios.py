"""The benchmark's workloads: inputs, set-up, requests, answer checks.

Every workload is a closed loop: each client sends its next request only
after the previous one returned.  Requests come from a pool generated
from the seed; the run always completes one full pass over the pool
(the *count window*, over which every count metric is taken, so counts
repeat exactly at a fixed seed) and then keeps cycling until the time
is up.  The churn workload mutates its index, so its requests are a
long sequence of distinct phases instead of a cycled pool; its count
window is the first ``pool_size`` phases.

The tables are fixed OSM-like point sets (generated from ``DATA_SEED``);
the run's seed draws the queries and the churn phases, so block counts
stay comparable across seeds.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import time
from concurrent.futures.process import _ExecutorManagerThread
from multiprocessing import resource_tracker

import numpy as np

from repro.engine import KnnSelectQuery, SpatialEngine, SpatialTable, StatisticsManager
from repro.engine import engine as engine_module
from repro.engine import physical
from repro.estimators.maintenance import MaintainedStaircaseEstimator
from repro.experiments.common import dataset
from repro.geometry import Point, Rect
from repro.geometry.hilbert import hilbert_order
from repro.index.count_index import CountIndex
from repro.index.mutable_quadtree import MutableQuadtree
from repro.knn.distance_browsing import brute_force_knn, select_cost_exact
from repro.serving import ShardedServingTier
from repro.serving import coordinator
from repro.serving import merge as merge_module
from repro.workloads import QueryBatch, churn_phases, run_churn
from repro.workloads.metrics import error_ratio

BASE_N = 20_000
CAPACITY = 128
MAX_K = 512
DATA_SEED = 7
REQUEST_QUERIES = 256
ZIPF_EXPONENT = 1.5
#: The physical operators a predicate-free k-NN select can run.
OPERATORS = ("filter-then-knn", "incremental-knn")


class Tally:
    """What a run's requests produced.

    ``queries``/``failed`` cover every request; the other fields cover
    only the count window.  Client threads update it under the lock of
    ``run.drive``.
    """

    def __init__(self) -> None:
        self.queries = 0
        self.failed = 0
        self.mutations = 0
        self.window_queries = 0
        self.window_blocks = 0
        self.err_sum = 0.0
        self.err_n = 0


def _record_select(tally: Tally, result, explanation, in_window: bool,
                   failed: bool = False) -> None:
    """Count one answered query; degraded fallback estimates count as failed."""
    tally.queries += 1
    failed = failed or result is None or explanation is None or explanation.degraded
    tally.failed += failed
    if in_window and not failed:
        tally.window_queries += 1
        tally.window_blocks += result.blocks_scanned
        if explanation.chosen == "incremental-knn":  # the browsing plan
            tally.err_sum += error_ratio(
                explanation.cost_of(explanation.chosen), result.blocks_scanned
            )
            tally.err_n += 1


#: The Riemann zeta function at ZIPF_EXPONENT, the Zipf normalizer.
ZETA = 2.612375348685488


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` draws in [0, 1), one in each of ``n`` equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _zipf_ks(u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the Zipf law (exponent 1.5), capped at MAX_K."""
    k = np.arange(1, MAX_K, dtype=float)
    cdf = np.cumsum(k ** -ZIPF_EXPONENT) / ZETA
    return np.searchsorted(cdf, u, side="right").astype(np.int64) + 1


def _knn_pool(points: np.ndarray, rng: np.random.Generator, n_requests: int):
    """Focal points sampled from the data; Zipf-distributed k <= MAX_K.

    Each request is stratified on its own: its focal points spread along
    the Hilbert curve through the data and its k values over the Zipf
    quantiles, so requests cost about the same and per-request latency
    measures the program rather than the luck of the draw.
    """
    along_curve = hilbert_order(points)
    pool = []
    for __ in range(n_requests):
        rows = along_curve[(_stratified(rng, REQUEST_QUERIES) * points.shape[0]).astype(np.int64)]
        pool.append(QueryBatch(points=points[rows], ks=_zipf_ks(_stratified(rng, REQUEST_QUERIES))))
    return pool


def _check_knn(points: np.ndarray, query: KnnSelectQuery, row_ids: np.ndarray) -> bool:
    """Brute-force k-NN check by sorted distances (tolerates exact ties)."""
    rows = np.asarray(row_ids, dtype=np.int64)
    if np.unique(rows).size != rows.size:
        return False
    focal = query.query
    expected = brute_force_knn(points, focal, query.k)
    want = np.hypot(expected[:, 0] - focal.x, expected[:, 1] - focal.y)
    got = np.hypot(points[rows, 0] - focal.x, points[rows, 1] - focal.y)
    return np.array_equal(np.sort(got), np.sort(want))


def _count_physical(ledger, args, result) -> None:
    for res in result if isinstance(result, list) else [result]:
        ledger.add("physical.blocks", res.blocks_scanned)
        ledger.add(f"physical.queries.{res.operator}")
        ledger.add(f"physical.blocks.{res.operator}", res.blocks_scanned)


class Scenario:
    """Defaults shared by the workloads."""

    clients = 1
    #: Requests available (``None``: the pool cycles without end).
    limit = None

    def worker_rss_kb(self) -> int:
        """Peak RSS of worker processes the workload serves through."""
        return 0

    def shipped_bytes(self) -> int:
        """Bytes shipped to worker processes at start-up."""
        return 0

    def window_costs(self, tally: Tally) -> tuple[float, float]:
        """Mean blocks scanned and mean estimate error over the count window."""
        return (
            tally.window_blocks / max(tally.window_queries, 1),
            tally.err_sum / max(tally.err_n, 1),
        )


class BatchSelect(Scenario):
    """100k points; one client sends 256-query ``execute_batch`` requests."""

    name = "batch_select"
    pool_size = 100

    def __init__(self, seed: int) -> None:
        self.points = dataset(5, BASE_N, DATA_SEED)
        rng = np.random.default_rng([seed, 1])
        self.pool = [
            batch.as_knn_queries("t") for batch in _knn_pool(self.points, rng, self.pool_size)
        ]
        self.engine = None
        self.samples: list[tuple[KnnSelectQuery, np.ndarray]] = []

    def setup(self) -> dict:
        """Table + index build, then the catalog build one ``explain`` forces."""
        start = time.perf_counter()
        table = SpatialTable("t", self.points, capacity=CAPACITY)
        built = time.perf_counter()
        self.engine = SpatialEngine(StatisticsManager(max_k=MAX_K))
        self.engine.register(table)
        first = Point(*map(float, table.points[0]))
        self.engine.explain(KnnSelectQuery(table.name, first, k=1))
        done = time.perf_counter()
        return {"setup_s": done - start, "table_s": built - start, "catalog_s": done - built}

    def request(self, i: int):
        return self.engine.execute_batch(self.pool[i % self.pool_size])

    def account(self, i: int, response, tally: Tally) -> None:
        in_window = i < self.pool_size
        if response is None:
            tally.queries += REQUEST_QUERIES
            tally.failed += REQUEST_QUERIES
            return
        for j, (result, explanation) in enumerate(response):
            _record_select(tally, result, explanation, in_window)
            if in_window and j % 128 == 0:
                self.samples.append((self.pool[i][j], result.row_ids))

    def trace(self, ledger) -> None:
        """Wrap the engine's layers where their callers look them up."""
        ledger.wrap(engine_module, "guard_select_query", "resilience.guards")
        ledger.wrap(engine_module, "plan_select_batch", "engine.planner")
        ledger.wrap(self.engine.stats, "estimate_select_costs_batch", "engine.stats.estimate")
        ledger.wrap(self.engine.stats.selection_chain, "select_physical_operators",
                    "optimizer.selection")
        ledger.wrap(physical.FilterThenKnnOperator, "execute", "engine.physical",
                    count=_count_physical)
        ledger.wrap(engine_module, "execute_incremental_knn_batch", "engine.physical",
                    count=_count_physical)

    def catalog_bytes(self) -> int:
        return self.engine.stats.total_catalog_bytes()

    def check(self) -> int:
        """Sampled answers against the brute-force oracle; returns mismatches."""
        return sum(not _check_knn(self.points, q, rows) for q, rows in self.samples)

    def close(self) -> None:
        self.engine = None


def worker_catalog_bytes() -> int:
    """Catalog bytes a data-shard worker holds (runs inside the worker)."""
    from repro.serving.worker import _WORKER_STATE

    stats = _WORKER_STATE.get("stats")
    return int(stats.total_catalog_bytes()) if stats is not None else 0


def _count_tier(ledger, args, report) -> None:
    ledger.add("tier.retries", sum(shard.retries for shard in report.shards))


class TierData(Scenario):
    """``batch_select``'s table and requests through a 2-shard data tier.

    Two client threads share the request sequence; the tier is started
    once in set-up and closed in :meth:`close`.
    """

    name = "tier_data"
    clients = 2
    pool_size = 100
    checked_requests = 2

    def __init__(self, seed: int) -> None:
        self.points = dataset(5, BASE_N, DATA_SEED)
        rng = np.random.default_rng([seed, 1])
        self.pool = _knn_pool(self.points, rng, self.pool_size)
        self.tier = None
        self.table = None
        self.samples: dict[int, list] = {}

    def setup(self) -> dict:
        start = time.perf_counter()
        self.table = SpatialTable("t", self.points, capacity=CAPACITY)
        built = time.perf_counter()
        self.tier = ShardedServingTier(
            self.table, shard_mode="data", n_shards=2, workers_per_shard=1,
            manager_kwargs={"max_k": MAX_K},
        )
        self.tier.start()
        started = time.perf_counter()
        # The workers build their catalogs on first use: one one-query
        # request forces it, as one explain does in-process.
        self.tier.serve(QueryBatch(points=self.points[:1], ks=np.ones(1, dtype=np.int64)))
        done = time.perf_counter()
        return {
            "setup_s": done - start,
            "table_s": built - start,
            "start_s": started - built,
            "catalog_s": done - started,
        }

    def request(self, i: int):
        return self.tier.serve(self.pool[i % self.pool_size])

    def account(self, i: int, report, tally: Tally) -> None:
        in_window = i < self.pool_size
        if report is None:
            tally.queries += REQUEST_QUERIES
            tally.failed += REQUEST_QUERIES
            return
        for j in range(report.n_queries):
            _record_select(
                tally, report.results[j], report.explanations[j], in_window,
                failed=bool(report.degraded[j] or report.partial[j]),
            )
        if i < self.checked_requests:
            self.samples[i] = report.results

    def trace(self, ledger) -> None:
        tier = self.tier
        ledger.wrap(tier, "serve", "serving.coordinator", count=_count_tier)
        # The batch's Deadline travels to the chunk and fan-out threads:
        # registered on the client thread, it keys their spans to the
        # request that created it.
        ledger.wrap(tier, "_serve_admitted_data", register=lambda a: a[1])
        ledger.wrap(tier, "_serve_data_chunk", token=lambda a: a[2])
        ledger.wrap(tier.supervisor, "serve_chunk", "serving.supervisor",
                    token=lambda a: a[2])
        ledger.wrap(tier._arbiter.selection_chain, "select_physical_operators",
                    "optimizer.selection")
        for owner, name in ((merge_module.QueryMerge, "advance"),
                            (merge_module.QueryMerge, "result")):
            ledger.wrap(owner, name, "serving.merge")
        for name in ("merge_select_estimates", "merge_filter_topk"):
            ledger.wrap(coordinator, name, "serving.merge")

    def shipped_bytes(self) -> int:
        return sum(self.tier.shipped_bytes.values())

    def catalog_bytes(self) -> int:
        handles = [self.tier.supervisor.handle(sid) for sid in self.tier.supervisor.shard_ids]
        futures = [handle.submit_fn(worker_catalog_bytes)[1] for handle in handles]
        return sum(f.result(timeout=60) for f in futures) + self.tier._arbiter.total_catalog_bytes()

    def worker_rss_kb(self) -> int:
        return sum(stats["ru_maxrss_kb"] for stats in self.tier.worker_stats())

    def check(self) -> int:
        """Bit-identity against an in-process engine configured the same way."""
        reference = SpatialEngine(StatisticsManager(max_k=MAX_K))
        reference.register(self.table)
        mismatches = 0
        for i, results in self.samples.items():
            expected = reference.execute_batch(self.pool[i].as_knn_queries("t"))
            for got, (want, __) in zip(results, expected):
                mismatches += got is None or not (
                    got.blocks_scanned == want.blocks_scanned
                    and np.array_equal(got.row_ids, want.row_ids)
                )
        return mismatches

    def close(self) -> None:
        self.table = None
        if self.tier is not None:
            tier, self.tier = self.tier, None
            tier.close()
        _join_children()


def _join_children(timeout: float = 30.0) -> None:
    """Wait until every child process this process started has ended.

    The pools' manager threads are joined first: each holds its pool's
    queues, whose semaphores must be released before
    :func:`stop_processes` stops the resource tracker.
    """
    for thread in threading.enumerate():
        if isinstance(thread, _ExecutorManagerThread):
            thread.join(timeout)
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)


def stop_processes() -> None:
    """Stop every process a run started and wait for each to end.

    Besides the tier's workers, the spawn start method runs a resource
    tracker process that would outlive this one by the moment it takes
    to notice the exit.  It is stopped last, after the closed pools'
    semaphores are collected and unregistered, so nothing relaunches it.
    """
    _join_children()
    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Churn(Scenario):
    """20k-point mutable quadtree with a maintained Staircase estimator.

    One request replays one moving-hotspot phase through
    :func:`repro.workloads.run_churn`: about 40 inserts and 20 deletes,
    one ``refresh_incremental()``, then about 50 estimates.
    """

    name = "churn"
    pool_size = 100
    #: Phases generated; a run stops early if it replays them all.
    limit = 320
    capacity = 64
    max_k = 128

    def __init__(self, seed: int) -> None:
        self.points = dataset(1, BASE_N, DATA_SEED)
        pts = self.points
        self.bounds = Rect(
            float(pts[:, 0].min()) - 1.0, float(pts[:, 1].min()) - 1.0,
            float(pts[:, 0].max()) + 1.0, float(pts[:, 1].max()) + 1.0,
        )
        self.phases = churn_phases(
            pts, self.bounds, phases=self.limit, inserts_per_phase=40,
            deletes_per_phase=20, queries_per_phase=50, max_k=self.max_k,
            hotspot_fraction=0.9, seed=seed,
        )
        self.tree = None
        self.estimator = None
        self.window_estimates: list[np.ndarray] = []
        self.last: tuple[int, np.ndarray] | None = None
        self.window_catalog_bytes = 0

    def setup(self) -> dict:
        start = time.perf_counter()
        self.tree = MutableQuadtree(self.points, bounds=self.bounds, capacity=self.capacity)
        built = time.perf_counter()
        # Drift never forces a full refresh within the generated phases.
        self.estimator = MaintainedStaircaseEstimator(
            self.tree, max_k=self.max_k, staleness_threshold=1.0
        )
        self.estimator.refresh_incremental()
        done = time.perf_counter()
        return {"setup_s": done - start, "table_s": built - start, "catalog_s": done - built}

    def request(self, i: int):
        return run_churn(self.tree, self.estimator, [self.phases[i]])

    def account(self, i: int, report, tally: Tally) -> None:
        n = self.phases[i].queries.shape[0]
        tally.queries += n
        if report is None:
            tally.failed += n
            return
        tally.failed += int(np.count_nonzero(~np.isfinite(report.estimates)))
        tally.mutations += report.n_mutations
        self.last = (i, report.estimates)
        if i < self.pool_size:
            self.window_estimates.append(report.estimates)
            if i == self.pool_size - 1:
                self.window_catalog_bytes = self.estimator.storage_bytes()

    def trace(self, ledger) -> None:
        for name in ("insert", "delete"):
            ledger.wrap(self.tree, name, "index.mutable_quadtree")
        ledger.wrap(self.estimator, "refresh_incremental", "estimators.maintenance.refresh",
                    count=_count_refresh)
        ledger.wrap(self.estimator, "estimate", "estimators.maintenance.estimate")

    def catalog_bytes(self) -> int:
        return self.window_catalog_bytes

    def window_costs(self, tally: Tally) -> tuple[float, float]:
        """Mean exact blocks and mean estimate error over the count window.

        Replays the window's mutations on a fresh tree and asks the
        exact-cost oracle what each estimated query would scan.
        """
        tree = MutableQuadtree(self.points, bounds=self.bounds, capacity=self.capacity)
        actual: list[int] = []
        for phase in self.phases[: self.pool_size]:
            for x, y in phase.inserts:
                tree.insert(float(x), float(y))
            for x, y in phase.deletes:
                tree.delete(float(x), float(y))
            counts = CountIndex.from_index(tree)
            blocks = tree.blocks
            actual.extend(
                select_cost_exact(counts, blocks, Point(float(x), float(y)), int(k))
                for (x, y), k in zip(phase.queries, phase.ks)
            )
        estimates = np.concatenate(self.window_estimates)
        errors = [error_ratio(e, a) for e, a in zip(estimates, actual)]
        return float(np.mean(actual)), float(np.mean(errors))

    def check(self) -> int:
        """The last phase's estimates must equal a full rebuild's."""
        i, estimates = self.last
        self.estimator.refresh_incremental(full=True)
        phase = self.phases[i]
        rebuilt = np.array([
            self.estimator.estimate(Point(float(x), float(y)), int(k))
            for (x, y), k in zip(phase.queries, phase.ks)
        ])
        return int(np.count_nonzero(rebuilt != estimates))

    def close(self) -> None:
        self.tree = self.estimator = None


def _count_refresh(ledger, args, report) -> None:
    ledger.add("maintenance.rebuilt", report.catalogs_rebuilt)
    ledger.add("maintenance.catalogs", report.catalogs_total)


SCENARIOS = {cls.name: cls for cls in (BatchSelect, TierData, Churn)}
