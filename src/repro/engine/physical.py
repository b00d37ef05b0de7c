"""Executable physical operators.

Every operator executes one query specification and reports the number
of index blocks it scanned — the unit of the paper's cost model — so
planner decisions can be validated against actual costs.

k-NN-Select operators (the two QEPs of Section 1):

* :class:`FilterThenKnnOperator` — full scan, filter, exact k-NN.
* :class:`IncrementalKnnOperator` — distance browsing with predicates
  evaluated on the fly, stopping at k qualifying rows.

k-NN-Join operators:

* :class:`LocalityJoinOperator` — block-by-block locality join
  (predicates handled by inflating k to ``k / σ`` before the per-point
  top-k filter).
* :class:`PerPointSelectsOperator` — one incremental k-NN-Select per
  outer row (wins for small outer relations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.engine.queries import KnnJoinQuery, KnnSelectQuery, RangeQuery
from repro.engine.table import SpatialTable
from repro.geometry import Point, Rect
from repro.geometry.kernels import rect_overlap_mask
from repro.knn.drain import drain_batch, smallest
from repro.knn.locality import locality_block_indices


@dataclass
class ExecutionResult:
    """Outcome of running a physical operator.

    Attributes:
        operator: Name of the operator that produced the result.
        blocks_scanned: Number of index blocks read (the paper's cost).
        row_ids: For selects: qualifying row ids in distance order.
        join_pairs: For joins: list of ``(outer_row_id, inner_row_ids)``
            with inner ids in distance order.
    """

    operator: str
    blocks_scanned: int
    row_ids: np.ndarray | None = None
    join_pairs: list[tuple[int, np.ndarray]] = field(default_factory=list)

    @property
    def n_results(self) -> int:
        """Number of result rows (select) or outer rows (join)."""
        if self.row_ids is not None:
            return int(self.row_ids.shape[0])
        return len(self.join_pairs)


def _in_region(points: np.ndarray, region: Rect) -> np.ndarray:
    """Mask of the points inside the closed ``region``."""
    return (
        (points[:, 0] >= region.x_min)
        & (points[:, 0] <= region.x_max)
        & (points[:, 1] >= region.y_min)
        & (points[:, 1] <= region.y_max)
    )


class FilterThenKnnOperator:
    """QEP (i): filter everything first, then take the k closest.

    Scans every block of the relation (the relational/spatial filters
    have no index support in this engine), so its cost is the block
    count — independent of k.
    """

    name = "filter-then-knn"

    def __init__(self, table: SpatialTable, query: KnnSelectQuery) -> None:
        self._table = table
        self._query = query

    def execute(self) -> ExecutionResult:
        """Scan every block, filter, then answer the k-NN exactly."""
        table, query = self._table, self._query
        scanned = len(table.index.blocks)
        if table.n_rows == 0:
            return ExecutionResult(self.name, scanned, row_ids=np.empty(0, dtype=np.int64))
        view = table.points_view
        entries = np.arange(view.rows.shape[0])
        qualifies = _row_filter(table, query)
        if qualifies is not None:
            entries = entries[qualifies(entries)]
        top = smallest(view.distances(entries, query.query), query.k)
        return ExecutionResult(self.name, scanned, row_ids=view.rows[entries[top]])


class IncrementalKnnOperator:
    """QEP (ii): distance browsing with on-the-fly filtering."""

    name = "incremental-knn"

    def __init__(self, table: SpatialTable, query: KnnSelectQuery) -> None:
        self._table = table
        self._query = query

    def execute(self) -> ExecutionResult:
        """Browse neighbors in distance order until k rows qualify."""
        return _browse(self._table, [self._query], None, prune=False)[0]


class RegionPrunedKnnOperator:
    """QEP (iii): distance browsing that prunes blocks outside a region.

    For a region-constrained k-NN the plain incremental plan still
    scans blocks that cannot contain answers (they pass the MINDIST
    test but miss the region).  This operator adds the region to the
    block admission test, so its cost is bounded by the number of
    blocks overlapping the region — often far below both other plans.

    Only applicable when ``query.region`` is set.
    """

    name = "region-pruned-knn"

    def __init__(self, table: SpatialTable, query: KnnSelectQuery) -> None:
        if query.region is None:
            raise ValueError("region-pruned browsing needs a region")
        self._table = table
        self._query = query

    def execute(self) -> ExecutionResult:
        """Browse with region pruning until k rows qualify."""
        return _browse(self._table, [self._query], None, prune=True)[0]


def execute_incremental_knn_batch(
    table: SpatialTable, queries: list[KnnSelectQuery], snapshot
) -> list[ExecutionResult]:
    """Execute incremental k-NN selects as one lockstep group.

    The group advances through the block drain's rounds together
    (:func:`~repro.knn.drain.drain_batch`); the scalar operator is a
    group of one, so query by query ``row_ids`` (in order) and
    ``blocks_scanned`` equal ``IncrementalKnnOperator(table,
    q).execute()``.  ``snapshot`` is the table's current
    :class:`~repro.index.snapshot.IndexSnapshot`, in any layout.
    """
    return _browse(table, queries, snapshot, prune=False)


def _browse(
    table: SpatialTable, queries: list[KnnSelectQuery], snapshot, *, prune: bool
) -> list[ExecutionResult]:
    """Distance-browse k-NN selects through the block drain.

    Blocks are ordered by vector MINDIST (ties by block id on any
    snapshot layout), and each block's stop test compares against the
    scalar :func:`~repro.geometry.mindist_point_rect` float of its index
    rect — the float the heap browser compares against.  Predicates and
    regions filter rows as they are gathered; ``prune`` also skips every
    block that misses the region (QEP iii).  ``snapshot=None`` reads the
    table's own canonical one.
    """
    name = RegionPrunedKnnOperator.name if prune else IncrementalKnnOperator.name
    if table.n_rows == 0:
        return [ExecutionResult(name, 0, row_ids=np.empty(0, dtype=np.int64)) for __ in queries]
    if snapshot is None:
        snapshot = table.count_index.snapshot
    view = table.points_view
    entries, scanned = drain_batch(
        view,
        snapshot.rects,
        np.array([[q.query.x, q.query.y] for q in queries], dtype=float),
        [q.k for q in queries],
        slots=snapshot.block_ids,
        tie_order=snapshot.tie_order,
        block_masks=(
            [rect_overlap_mask(q.region, snapshot.rects) for q in queries] if prune else None
        ),
        row_filters=[_row_filter(table, q) for q in queries],
    )
    return [
        ExecutionResult(name, blocks, row_ids=view.rows[rows])
        for rows, blocks in zip(entries, scanned.tolist())
    ]


def _row_filter(table: SpatialTable, query: KnnSelectQuery):
    """The query's row-qualification mask over drained view entries."""
    region, predicate = query.region, query.predicate
    if region is None and predicate is None:
        return None
    view = table.points_view

    def qualifies(entries: np.ndarray) -> np.ndarray:
        mask = np.ones(entries.shape[0], dtype=bool)
        if region is not None:
            mask &= _in_region(view.points[entries], region)
        if predicate is not None:
            mask &= predicate.evaluate(table, view.rows[entries])
        return mask

    return qualifies


class IndexRangeScanOperator:
    """Range select via the spatial index: scan only overlapping blocks.

    The fixed-region counterpart of the k-NN operators — "the spatial
    region ... is predefined and fixed in the query", so the index
    prunes exactly and the cost is the number of overlapping blocks.
    """

    name = "index-range-scan"

    def __init__(self, table: SpatialTable, query: RangeQuery) -> None:
        self._table = table
        self._query = query

    def execute(self) -> ExecutionResult:
        """Scan only the blocks overlapping the region, then filter."""
        table, query = self._table, self._query
        scanned = 0
        qualifying: list[np.ndarray] = []
        for block in table.index.range_query_blocks(query.region):
            scanned += 1
            row_ids = table.block_row_ids(block.block_id)
            mask = _in_region(table.points[row_ids], query.region)
            if query.predicate is not None:
                mask &= query.predicate.evaluate(table, row_ids)
            if mask.any():
                qualifying.append(row_ids[mask])
        rows = (
            np.concatenate(qualifying)
            if qualifying
            else np.empty(0, dtype=np.int64)
        )
        return ExecutionResult(self.name, scanned, row_ids=rows)


class LocalityJoinOperator:
    """Block-by-block locality k-NN-Join with optional inner predicate.

    With a predicate of selectivity σ, localities are computed at the
    inflated ``k' = ceil(k / σ)`` so that, in expectation, enough
    qualifying inner rows fall inside each locality; the per-point
    top-k then filters exactly.  (A guarantee would require predicate-
    aware counts; the planner treats this operator as approximate when
    a predicate is present, and the tests measure its recall.)
    """

    name = "locality-join"

    def __init__(
        self,
        outer: SpatialTable,
        inner: SpatialTable,
        query: KnnJoinQuery,
        selectivity: float = 1.0,
    ) -> None:
        if not 0.0 < selectivity <= 1.0:
            raise ValueError(f"selectivity must be in (0, 1], got {selectivity}")
        self._outer = outer
        self._inner = inner
        self._query = query
        self._selectivity = selectivity

    def execute(self) -> ExecutionResult:
        """Run the block-by-block locality join."""
        outer, inner, query = self._outer, self._inner, self._query
        inner_counts = inner.count_index
        k_effective = min(
            math.ceil(query.k / self._selectivity), max(inner.n_rows, 1)
        )
        scanned = 0
        pairs: list[tuple[int, np.ndarray]] = []
        for block in outer.index.blocks:
            locality = locality_block_indices(inner_counts, block.rect, k_effective)
            scanned += int(locality.shape[0])
            candidate_rows = np.concatenate(
                [inner.block_row_ids(i) for i in locality]
            ) if locality.size else np.empty(0, dtype=np.int64)
            if query.inner_predicate is not None and candidate_rows.size:
                mask = query.inner_predicate.evaluate(inner, candidate_rows)
                candidate_rows = candidate_rows[mask]
            outer_rows = outer.block_row_ids(block.block_id)
            if candidate_rows.size == 0:
                pairs.extend(
                    (int(r), np.empty(0, dtype=np.int64)) for r in outer_rows
                )
                continue
            cand_pts = inner.points[candidate_rows]
            outer_pts = outer.points[outer_rows]
            dx = outer_pts[:, 0, None] - cand_pts[None, :, 0]
            dy = outer_pts[:, 1, None] - cand_pts[None, :, 1]
            dists = np.hypot(dx, dy)
            k_eff = min(query.k, candidate_rows.shape[0])
            if k_eff < candidate_rows.shape[0]:
                top = np.argpartition(dists, k_eff - 1, axis=1)[:, :k_eff]
            else:
                top = np.broadcast_to(
                    np.arange(candidate_rows.shape[0]),
                    (outer_rows.shape[0], candidate_rows.shape[0]),
                ).copy()
            row_dists = np.take_along_axis(dists, top, axis=1)
            order = np.argsort(row_dists, axis=1, kind="stable")
            sorted_idx = np.take_along_axis(top, order, axis=1)
            for i, outer_row in enumerate(outer_rows):
                pairs.append((int(outer_row), candidate_rows[sorted_idx[i]]))
        return ExecutionResult(self.name, scanned, join_pairs=pairs)


class PerPointSelectsOperator:
    """Execute the join as one incremental k-NN-Select per outer row.

    The selects run as one lockstep group through the block drain —
    per outer row exactly ``IncrementalKnnOperator`` on the inner table.
    """

    name = "per-point-selects"

    def __init__(
        self, outer: SpatialTable, inner: SpatialTable, query: KnnJoinQuery
    ) -> None:
        self._outer = outer
        self._inner = inner
        self._query = query

    def execute(self) -> ExecutionResult:
        """Run one incremental k-NN-Select per outer row."""
        outer, inner, query = self._outer, self._inner, self._query
        selects = [
            KnnSelectQuery(
                table=inner.name,
                query=Point(x, y),
                k=query.k,
                predicate=query.inner_predicate,
            )
            for x, y in outer.points.tolist()
        ]
        results = _browse(inner, selects, None, prune=False)
        scanned = sum(result.blocks_scanned for result in results)
        pairs = [(row_id, result.row_ids) for row_id, result in enumerate(results)]
        return ExecutionResult(self.name, scanned, join_pairs=pairs)
