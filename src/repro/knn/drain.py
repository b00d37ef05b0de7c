"""The MINDIST block drain: the one scan kernel behind exact k-NN.

Distance browsing (Procedure 1 of the paper) scans blocks in MINDIST
order and scans block ``j`` iff fewer than ``k`` gathered rows lie
strictly below its MINDIST; the blocks scanned are the paper's cost
unit.  This module owns that rule for every exact path: :func:`drain`
(the incremental operators, scalar and batched), :func:`take` (a data
shard's cursor stream), :func:`first_stop` (the cross-shard merge) and
:func:`mindist_windows` + :func:`count_below` (cost profiles).

Blocks are ordered by (MINDIST, canonical position), so equal MINDISTs
resolve by block id on every snapshot layout.  Only the needed prefix
is ordered, and every prefix is exactly a prefix of
``tie_stable_argsort``'s row.  Ordering keys and stop thresholds are
separate inputs: executors compare against the scalar
:func:`~repro.geometry.mindist_point_rect` floats the heap browser
uses, profiles against their vector MINDISTs; the two can differ in
the last bit.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.geometry import Point, Rect, mindist_point_rect
from repro.geometry.kernels import tie_stable_argsort

_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_ROWS.setflags(write=False)


class BlockPointsView:
    """Columnar layout of a block sequence: every block's points and rows.

    One ``(total, 2)`` points array, ``offsets`` delimiting each block's
    run, and optionally each point's relation row id.  Gathered
    distances are elementwise identical to concatenating per-block
    ``Block.distances_from`` outputs.  Plain ndarrays throughout, so the
    view ships to worker processes without custom pickling.
    """

    __slots__ = ("xy", "offsets", "counts", "rows")

    def __init__(
        self, points: np.ndarray, offsets: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        # Stored as one (2, total) array: its rows are the contiguous x
        # and y columns the gathers read (two 1-D gathers beat one
        # strided 2-D row gather in the hot loop).
        self.xy = np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1, 2).T)
        self.offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        self.counts = np.diff(self.offsets)
        self.rows = None if rows is None else np.asarray(rows, dtype=np.int64).reshape(-1)

    @property
    def points(self) -> np.ndarray:
        """The ``(total, 2)`` coordinates (a view, not a copy)."""
        return self.xy.T

    @classmethod
    def from_blocks(cls, blocks: Sequence) -> "BlockPointsView":
        """Flatten a block sequence into the columnar layout."""
        arrays = [np.asarray(b.points, dtype=float).reshape(-1, 2) for b in blocks]
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum([a.shape[0] for a in arrays], out=offsets[1:])
        return cls(np.concatenate(arrays or [np.empty((0, 2))]), offsets)

    def entries(self, blocks: np.ndarray) -> np.ndarray:
        """Positions of the points of ``blocks``, block after block."""
        blocks = np.asarray(blocks, dtype=np.int64)
        starts = self.offsets[blocks]
        return segments(starts, self.offsets[blocks + 1] - starts)

    def distances(self, entries: np.ndarray, query: Point) -> np.ndarray:
        """Distances from ``query`` to the points at ``entries``."""
        return np.hypot(self.xy[0][entries] - query.x, self.xy[1][entries] - query.y)

    def gathered_distances(self, order: np.ndarray, query: Point) -> np.ndarray:
        """Distances of the points of blocks ``order``, in that order."""
        return self.distances(self.entries(order), query)


def segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[j], starts[j] + lengths[j])``."""
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY_ROWS
    # Each slot holds its segment's start minus the segment's output
    # offset; a global arange supplies the progression.
    out_offsets = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=out_offsets[1:])
    return np.repeat(starts - out_offsets, lengths) + np.arange(total, dtype=np.int64)


def smallest(
    values: np.ndarray, size: int, tie_order: np.ndarray | None = None
) -> np.ndarray:
    """Positions of the ``size`` smallest values in (value, tie) order.

    Exactly ``tie_stable_argsort(values[None], tie_order)[0][:size]``,
    ties straddling the boundary included, but a partition finds the
    boundary so only the selection is sorted.
    """
    n = values.shape[0]
    if size >= n:
        return tie_stable_argsort(values[None, :], tie_order)[0][:size]
    part = np.argpartition(values, size)[: size + 1]
    part.sort()
    ranked = values[part]
    order = np.argsort(ranked, kind="stable")
    kth = ranked[order[size - 1]]
    if tie_order is None and kth < ranked[order[size]]:
        # No tie straddles the boundary: the partition holds exactly
        # the selection, and position order breaks ties inside it.
        return part[order[:size]]
    if tie_order is None:
        candidates = np.flatnonzero(values <= kth)
    else:
        candidates = tie_order[np.flatnonzero(values[tie_order] <= kth)]
    return candidates[np.argsort(values[candidates], kind="stable")[:size]]


def mindist_windows(
    keys: np.ndarray,
    size: int,
    *,
    tie_order: np.ndarray | None = None,
    limit: int | None = None,
) -> Iterator[tuple[np.ndarray, int | None]]:
    """Growing scan-order windows: ``(first size blocks, next block)``.

    ``size`` doubles after every yield; the next block is ``None`` once
    the window holds all ``limit`` eligible blocks (default: all; blocks
    masked out with an infinite key sort last).  Callers stop iterating
    as soon as a window answers them.
    """
    n = keys.shape[0] if limit is None else limit
    if n == 0:
        return
    size = max(1, min(size, n))
    while True:
        order = smallest(keys, min(size + 1, n), tie_order)
        yield order[:size], (int(order[size]) if size < n else None)
        if size >= n:
            return
        size = min(n, 2 * size)


def count_below(
    dists: np.ndarray, thresholds: np.ndarray, avail: np.ndarray | None = None
) -> np.ndarray:
    """``out[i] = #{j : avail[j] <= i and dists[j] < thresholds[i]}``.

    One pass for ascending thresholds: each row is binned at its first
    exceeding threshold (or its ``avail`` step, if later — the step
    after its block is scanned) and the bins are prefix-summed.
    ``avail=None`` holds every row from step 0, exact whenever no row
    of a later block lies below an earlier threshold (vector MINDISTs).
    """
    m = thresholds.shape[0]
    first = np.searchsorted(thresholds, dists, side="right")
    if avail is not None:
        first = np.maximum(first, avail)
    return np.cumsum(np.bincount(first, minlength=m + 1)[:m])


def first_stop(
    dists: np.ndarray, thresholds: np.ndarray, k: int, avail: np.ndarray
) -> int | None:
    """The first step at which ``k`` held rows lie below its threshold.

    ``avail`` as in :func:`count_below`; ``None`` when no step stops.
    Scalar thresholds can step down by an ulp where the vector order
    ranked two blocks the other way, so the steps are counted in
    ascending runs, split at every step-down.
    """
    m = thresholds.shape[0]
    if dists.shape[0] < k:
        return None  # fewer than k rows are ever held
    cuts = np.flatnonzero(thresholds[1:] < thresholds[:-1]) + 1
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), m]):
        # Ascending thresholds give nondecreasing counts: binary search.
        counts = count_below(dists, thresholds[lo:hi], avail - lo)
        stop = int(np.searchsorted(counts, k))
        if stop < hi - lo:
            return lo + stop
    return None


def drain(
    view: BlockPointsView,
    keys: np.ndarray,
    query: Point,
    k: int,
    thresholds: Callable[[np.ndarray], np.ndarray],
    *,
    slots: np.ndarray,
    tie_order: np.ndarray | None,
    block_mask: np.ndarray | None,
    row_filter: Callable[[np.ndarray], np.ndarray] | None,
) -> tuple[np.ndarray, int]:
    """Distance-browse one k-NN query over a columnar block layout.

    Args:
        view: The blocks' points and rows.
        keys: Ordering MINDIST of every snapshot row.
        query: The focal point.
        k: Rows wanted.
        thresholds: Maps snapshot rows to their stop-test floats.
        slots: Snapshot row -> view block.
        tie_order: The snapshot's canonical-order permutation.
        block_mask: Blocks that may be scanned at all (region pruning).
        row_filter: Maps view entries to a qualifying mask (predicates,
            regions); unqualified rows never answer or count.

    Returns:
        ``(entries, blocks_scanned)`` — view positions of the ``k``
        nearest qualifying scanned rows in (distance, scan position)
        order, the order the heap browser emits them in.
    """
    limit = None
    if block_mask is not None:
        keys = np.where(block_mask, keys, np.inf)
        limit = int(np.count_nonzero(block_mask))
    avg = max(1.0, view.points.shape[0] / max(view.counts.shape[0], 1))
    entries, owner, dists = _EMPTY_ROWS, _EMPTY_ROWS, np.empty(0)
    scanned = 0
    for window, after in mindist_windows(
        keys, int(k / avg) + 2, tie_order=tie_order, limit=limit
    ):
        blocks = slots[window]
        entries = view.entries(blocks)
        owner = np.repeat(np.arange(window.shape[0]), view.counts[blocks])
        if row_filter is not None:
            keep = row_filter(entries)
            entries, owner = entries[keep], owner[keep]
        dists = view.distances(entries, query)
        # Before step j the rows of blocks < j are held; no step stops
        # before k of them are, so thresholds start there.
        held = np.cumsum(np.bincount(owner, minlength=window.shape[0]))
        start = int(np.searchsorted(held, k, side="left")) + 1
        steps = window[start:] if after is None else np.append(window[start:], after)
        stop = None
        if start <= window.shape[0] and steps.shape[0]:
            stop = first_stop(dists, thresholds(steps), k, owner + 1 - start)
        scanned = window.shape[0] if stop is None else start + stop
        if stop is not None or after is None:
            break
    held = owner < scanned
    return entries[held][smallest(dists[held], k)], scanned


def scalar_thresholds(point: Point, rects: np.ndarray) -> np.ndarray:
    """Stop-test floats of ``rects`` rows: scalar ``mindist_point_rect``.

    The floats the heap browser compares against, so every executor,
    shard and merge stops where
    :class:`~repro.knn.distance_browsing.DistanceBrowser` would.
    """
    return np.array(
        [mindist_point_rect(point, Rect(*r)) for r in rects.tolist()], dtype=float
    )


def take(
    keys: np.ndarray,
    counts: np.ndarray,
    cursor: int,
    *,
    min_rows: int,
    min_key: float,
    tie_order: np.ndarray | None,
) -> tuple[np.ndarray, int | None]:
    """Serve a block stream from scan rank ``cursor`` on.

    Emits blocks while the emitted ones hold fewer than ``min_rows``
    rows *or* the next block's key is below ``min_key`` (the merge's two
    pull shapes: a k-row prefix, and draining below a dead shard's
    bound), stopping at exhaustion.  The cursor is the whole stream
    state, so any process holding the blocks can resume it.

    Returns:
        ``(blocks, after)`` — the emitted blocks (the next cursor is
        ``cursor + len(blocks)``) and the first unemitted block, or
        ``None`` once the stream is spent.
    """
    n = keys.shape[0]
    if cursor >= n:
        return _EMPTY_ROWS, None
    avg = max(1.0, float(counts.sum()) / n)
    for window, after in mindist_windows(
        keys, cursor + int(min_rows / avg) + 2, tie_order=tie_order
    ):
        part = window[cursor:]
        held = np.zeros(part.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts[part], out=held[1:])
        # Step j stops before the j-th block of ``part`` (or ``after``).
        following = part if after is None else np.append(part, after)
        done = np.ones(part.shape[0] + 1, dtype=bool)
        done[: following.shape[0]] = (held[: following.shape[0]] >= min_rows) & (
            keys[following] >= min_key
        )
        end = int(np.argmax(done))
        if done[end]:
            return part[:end], (int(following[end]) if end < following.shape[0] else None)
    raise AssertionError("unreachable: the last window always stops")  # pragma: no cover
