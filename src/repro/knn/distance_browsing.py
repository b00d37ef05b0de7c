"""Distance browsing (Hjaltason & Samet) and its exact cost.

Distance browsing retrieves nearest neighbors incrementally through two
priority queues: a *blocks-queue* of index nodes ordered by MINDIST from
the query point, and a *tuples-queue* of already-scanned points ordered
by their distance.  A point is returned only when its distance is
strictly below the MINDIST at the top of the blocks-queue — the strict
comparison matches Procedure 1 of the paper, so catalogs and ground
truth agree exactly at catalog anchor points.

The paper models the cost of this algorithm as the number of (non-empty
leaf) blocks scanned.  Two cost paths are provided:

* :class:`DistanceBrowser` / :func:`knn_select` — the faithful heap-
  based incremental algorithm with a scan counter, kept as the
  reference oracle (see its docstring).  Query execution runs the
  block drain of :mod:`repro.knn.drain` instead.
* :func:`select_cost_profile` — the whole cost-vs-k staircase in one
  pass, built from the drain kernel's MINDIST windows and one-pass
  stop-rule counting.  Because internal nodes cost nothing to pop,
  hierarchical browsing scans leaf blocks in plain MINDIST order, so
  the profile can be computed over the flat block list; the test suite
  cross-checks both paths against each other.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator

import numpy as np

from repro.geometry import Point, mindist_point_rect
from repro.geometry.kernels import mindist_argsort, mindist_rects
from repro.index.base import Block, SpatialIndex
from repro.index.snapshot import IndexSnapshot, as_snapshot
from repro.knn.drain import count_below, mindist_windows


class DistanceBrowser:
    """Incremental nearest-neighbor browser over a hierarchical index.

    Kept as the reference oracle: the test suite checks every exact
    k-NN path (and the drain kernel of :mod:`repro.knn.drain`) against
    its results and scan counts, and the per-point-callable QEP of
    :mod:`repro.optimizer.plans`, which cannot be vectorised, runs on
    it.  No production k-NN operator uses it.  Equal-MINDIST blocks
    pop in push order here, so rows at equal distances may come out in
    a different order than the drain's canonical tie order; distances
    and scan counts are identical.

    Usage::

        browser = DistanceBrowser(index, query_point)
        nearest = next(browser)            # (distance, x, y)
        more = browser.next_nearest()      # same, method form
        browser.blocks_scanned             # cost so far

    The browser is an iterator yielding points in non-decreasing
    distance order; iteration ends when the index is exhausted.

    Args:
        index: The data index.
        query: The query focal point.
        snapshot: Optional columnar summary of ``index``.  When given,
            the frontier is seeded directly with all leaf blocks in
            MINDIST order (one kernel call; a sorted list is a valid
            heap) instead of descending from the root — the snapshot's
            ``block_ids`` address ``index.blocks``, so the point data
            still comes from the index.  Scan costs are identical to
            the hierarchical path.
    """

    def __init__(
        self,
        index: SpatialIndex,
        query: Point,
        *,
        snapshot: IndexSnapshot | None = None,
    ) -> None:
        self._query = query
        self._counter = itertools.count()  # tie-breaker for heap entries
        self._block_queue: list[tuple[float, int, object]] = []
        self._tuple_queue: list[tuple[float, float, float]] = []
        self._blocks_scanned = 0
        if snapshot is not None:
            blocks = index.blocks
            if snapshot.n_blocks != len(blocks):
                raise ValueError(
                    f"snapshot summarizes {snapshot.n_blocks} blocks but the "
                    f"index holds {len(blocks)} — stale snapshot?"
                )
            order, mindists = mindist_argsort(
                (query.x, query.y), snapshot.rects, tie_order=snapshot.tie_order
            )
            # Ascending (mindist, counter, block) tuples: already a heap.
            self._block_queue = [
                (float(d), next(self._counter), blocks[int(snapshot.block_ids[i])])
                for d, i in zip(mindists, order)
            ]
        else:
            root = index.root
            heapq.heappush(
                self._block_queue,
                (mindist_point_rect(query, root.rect), next(self._counter), root),
            )

    @property
    def blocks_scanned(self) -> int:
        """Number of non-empty leaf blocks scanned so far (the cost)."""
        return self._blocks_scanned

    def __iter__(self) -> Iterator[tuple[float, float, float]]:
        return self

    def __next__(self) -> tuple[float, float, float]:
        result = self.next_nearest()
        if result is None:
            raise StopIteration
        return result

    def _scan(self, block: Block) -> None:
        self._blocks_scanned += 1
        dists = block.distances_from(self._query)
        for dist, (x, y) in zip(dists, block.points):
            heapq.heappush(self._tuple_queue, (float(dist), float(x), float(y)))

    def next_nearest(self) -> tuple[float, float, float] | None:
        """Return the next nearest ``(distance, x, y)``, or ``None``.

        Mirrors the paper's ``getNextNearest()``: the top of the
        tuples-queue is returned if its distance is strictly less than
        the MINDIST of the top of the blocks-queue; otherwise the top
        block is scanned and its tuples enqueued.
        """
        while True:
            if self._tuple_queue and (
                not self._block_queue
                or self._tuple_queue[0][0] < self._block_queue[0][0]
            ):
                return heapq.heappop(self._tuple_queue)
            if not self._block_queue:
                return None
            __, __, node = heapq.heappop(self._block_queue)
            if isinstance(node, Block):
                # Snapshot-seeded frontier entry: a leaf block directly.
                self._scan(node)
            elif node.is_leaf:
                block = node.block
                if block is None:
                    continue  # structurally-empty leaf: no block to scan
                self._scan(block)
            else:
                for child in node.children:
                    heapq.heappush(
                        self._block_queue,
                        (
                            mindist_point_rect(self._query, child.rect),
                            next(self._counter),
                            child,
                        ),
                    )


def knn_select(
    index: SpatialIndex,
    query: Point,
    k: int,
    *,
    snapshot: IndexSnapshot | None = None,
) -> tuple[np.ndarray, int]:
    """Run a k-NN-Select via distance browsing.

    Args:
        index: The data index.
        query: The query focal point.
        k: Number of neighbors to retrieve.
        snapshot: Optional precomputed summary for flat frontier
            seeding (see :class:`DistanceBrowser`).

    Returns:
        ``(neighbors, cost)`` where ``neighbors`` is a ``(m, 2)`` array
        of the k nearest points in distance order (``m < k`` if the
        index holds fewer points) and ``cost`` is the number of blocks
        scanned.

    Raises:
        ValueError: If ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    browser = DistanceBrowser(index, query, snapshot=snapshot)
    found = list(itertools.islice(browser, k))
    neighbors = np.array([(x, y) for __, x, y in found], dtype=float).reshape(-1, 2)
    return neighbors, browser.blocks_scanned


def select_cost(index: SpatialIndex, query: Point, k: int) -> int:
    """Exact distance-browsing cost of ``σ_kNN,q`` (blocks scanned)."""
    __, cost = knn_select(index, query, k)
    return cost


def select_cost_profile(
    count_index,
    blocks,
    query: Point,
    max_k: int,
    *,
    mindists_all: np.ndarray | None = None,
) -> list[tuple[int, int, int]]:
    """Compute the full cost-vs-k staircase at ``query`` in one pass.

    This is the vectorized core of Procedure 1.  Blocks are visited in
    MINDIST order from ``query``; after scanning the ``i``-th block, the
    number of points retrievable at cost ``i`` is the count of scanned
    points with distance strictly below the next block's MINDIST.

    Args:
        count_index: Block summary of the data blocks (an
            :class:`~repro.index.snapshot.IndexSnapshot`, a
            :class:`~repro.index.count_index.CountIndex`, or a raw
            index) — supplies the MINDIST ordering without touching
            points.
        blocks: The data blocks themselves, indexable by the
            summary's block order (catalog *construction* is the one
            offline step that does read points).  A columnar
            :class:`repro.perf.BlockPointsView` is also accepted and
            answers the distance gather in one batched call.
        query: The anchor point.
        max_k: Largest k the profile must cover.
        mindists_all: Optional precomputed per-block MINDIST array.
            Batching callers (:func:`repro.perf.select_cost_profiles`)
            compute the MINDIST matrix of many anchors at once; the
            values must be identical to the per-point path (and are,
            see :func:`repro.geometry.kernels.mindist_rects_batch`).

    Returns:
        A list of ``(k_start, k_end, cost)`` entries with contiguous,
        increasing k ranges.  The final entry's ``k_end`` is at least
        ``max_k`` unless the whole index holds fewer points, in which
        case the profile ends at the total point count.

    Raises:
        ValueError: If ``max_k < 1``.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    snap = as_snapshot(count_index)
    n_blocks = snap.n_blocks
    if n_blocks == 0:
        return []
    if mindists_all is None:
        mindists_all = mindist_rects((query.x, query.y), snap.rects)

    # How many of the nearest blocks matter is not known in advance
    # (sparse areas can force long scans): the drain kernel's windows
    # grow geometrically from the blocks an average density needs until
    # the profile reaches max_k.  The profile is tie-invariant —
    # equal-MINDIST blocks share every threshold they could straddle —
    # so windows keep physical tie order.
    gather = getattr(blocks, "gathered_distances", None)
    avg_count = max(1.0, snap.total_count / n_blocks)
    for window, after in mindist_windows(mindists_all, int(max_k / avg_count) + 8):
        # ``block_ids`` map snapshot rows to positions in ``blocks``, so
        # a physically reordered snapshot still reads the right blocks.
        block_pos = snap.block_ids[window]
        if gather is not None:
            dists = gather(block_pos, query)
        else:
            dists = np.concatenate(
                [blocks[int(i)].distances_from(query) for i in block_pos]
            )
        # The threshold after scanning block i is the next block's
        # MINDIST; no point of a later block lies below it, so counting
        # over the whole window never overcounts an earlier step.
        thresholds = np.empty(window.shape[0], dtype=float)
        thresholds[:-1] = mindists_all[window[1:]]
        thresholds[-1] = np.inf if after is None else mindists_all[after]
        retrievable = count_below(dists, thresholds)
        if retrievable[-1] >= max_k:
            break
    prefix = window.shape[0]

    profile: list[tuple[int, int, int]] = []
    k_reached = 0  # points already retrievable at the previous cost
    for i in range(prefix):
        r = int(retrievable[i])
        if r > k_reached:
            profile.append((k_reached + 1, r, i + 1))
            k_reached = r
        if k_reached >= max_k:
            break
    return profile


def select_cost_exact(
    count_index,
    blocks,
    query: Point,
    k: int,
) -> int:
    """Exact distance-browsing cost via the vectorized profile.

    Equivalent to :func:`select_cost` (the test suite cross-checks the
    two) but orders of magnitude faster for large k, which makes it the
    ground-truth oracle of the experiment harness.  A ``k`` exceeding
    the number of indexed points forces a scan of every block, matching
    the incremental algorithm's exhaustion behaviour.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    snap = as_snapshot(count_index)
    profile = select_cost_profile(snap, blocks, query, k)
    if not profile:
        return 0
    for k_start, k_end, cost in profile:
        if k <= k_end:
            return cost
    # Fewer than k points exist: the browser exhausts the whole index.
    return snap.n_blocks


def brute_force_knn(points: np.ndarray, query: Point, k: int) -> np.ndarray:
    """Exact k-NN by full scan; correctness oracle for the algorithms.

    Returns:
        ``(min(k, n), 2)`` array of the nearest points in distance
        order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return np.empty((0, 2))
    dists = np.hypot(pts[:, 0] - query.x, pts[:, 1] - query.y)
    k_eff = min(k, pts.shape[0])
    idx = np.argpartition(dists, k_eff - 1)[:k_eff]
    idx = idx[np.argsort(dists[idx], kind="stable")]
    return pts[idx]

