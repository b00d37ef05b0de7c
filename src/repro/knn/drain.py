"""The MINDIST block drain: the one scan kernel behind exact k-NN.

Distance browsing (Procedure 1 of the paper) scans blocks in MINDIST
order and scans block ``j`` iff fewer than ``k`` gathered rows lie
strictly below its MINDIST; the blocks scanned are the paper's cost
unit.  This module owns that rule for every exact path: :func:`drain_batch`
(the incremental operators; a scalar query is a batch of one),
:func:`take` (a data shard's cursor stream), :func:`first_stops` (the
stop-rule count; :func:`first_stop`, its one-query case, serves the
cross-shard merge) and :func:`mindist_windows` + :func:`count_below`
(cost profiles).

Blocks are ordered by (MINDIST, canonical position), so equal MINDISTs
resolve by block id on every snapshot layout.  Only the needed prefix
is ordered, and every prefix is exactly a prefix of
``tie_stable_argsort``'s row (:func:`smallest` for one key row,
:func:`mindist_prefixes` for a batch of query points, which never
holds a full MINDIST row).  Ordering keys and stop thresholds are
separate inputs: executors compare against the scalar
:func:`~repro.geometry.mindist_point_rect` floats the heap browser
uses, profiles against their vector MINDISTs; the two can differ in
the last bit.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.geometry import Point
from repro.geometry.kernels import tie_stable_argsort

_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_ROWS.setflags(write=False)

#: Elements (queries x blocks) per chunk of the squared-MINDIST pass:
#: the chunk's few arrays stay in cache, and a batch's transient memory
#: stays a few chunks however many queries it holds.
_MINDIST_CHUNK = 1 << 14

#: Relative slack of the squared-MINDIST prefilter.  A square
#: ``dx*dx + dy*dy`` and the squared ``np.hypot`` key differ by at most
#: ~11 ulp (~2.5e-15), so a slack of 1e-9 admits every block the exact
#: prefix can hold; the floor covers squares that underflow.
_SQ_SLACK = 1e-9
_SQ_FLOOR = float(np.finfo(float).tiny)


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


def count_below(dists: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """``out[i] = #{j : dists[j] < thresholds[i]}`` for ascending thresholds.

    One pass: each row is binned at its first exceeding threshold and
    the bins are prefix-summed.
    """
    m = thresholds.shape[0]
    first = np.searchsorted(thresholds, dists, side="right")
    return np.cumsum(np.bincount(first, minlength=m + 1)[:m])


def first_stops(
    dists: np.ndarray,
    owners: np.ndarray,
    avail: np.ndarray,
    thresholds: np.ndarray,
    offsets: np.ndarray,
    ks: np.ndarray,
) -> np.ndarray:
    """Each segment's first step at which ``ks`` held rows lie below it.

    Segment ``s`` owns the steps ``thresholds[offsets[s]:offsets[s+1]]``
    and the rows with ``owners == s``; a row is held from its ``avail``
    step (relative to its segment) on and counts at a step iff its
    distance is strictly below the step's threshold.  Returns every
    segment's stop relative to its first step, ``-1`` where no step
    stops.

    One ``searchsorted`` serves every segment: ``(segment, running
    maximum threshold)`` pairs ascend lexicographically, as complex
    numbers do, so each row finds the first step of its segment whose
    running maximum exceeds it and counts from there (or from its
    ``avail`` step, if later); binned rows are prefix-summed per
    segment.  Scalar thresholds can step down by an ulp where the vector
    order ranked two blocks the other way; at such a step the rows in
    the band between the threshold and the running maximum were counted
    too early and are taken back out.
    """
    n_steps = thresholds.shape[0]
    starts, ends = offsets[:-1], offsets[1:]
    step_seg = np.arange(starts.shape[0]).repeat(ends - starts)
    peak = np.empty(n_steps, dtype=complex)
    peak.real, peak.imag = step_seg, thresholds
    np.maximum.accumulate(peak, out=peak)
    keys = np.empty(dists.shape[0], dtype=complex)
    keys.real, keys.imag = owners, dists
    first = np.searchsorted(peak, keys, side="right")
    np.maximum(first, starts[owners] + avail, out=first)
    first[first >= ends[owners]] = n_steps  # beyond its segment: never counts
    binned = np.bincount(first, minlength=n_steps + 1)
    counts = binned.cumsum()
    counts = counts[:n_steps] - (counts - binned)[starts][step_seg]
    dipped = (thresholds < peak.imag).nonzero()[0]
    if dipped.shape[0]:
        counts -= _band_counts(dists, owners, starts[owners] + avail, thresholds,
                               peak.imag, dipped, step_seg)
    hits = np.concatenate(((counts >= ks[step_seg]).nonzero()[0], [n_steps]))
    hit = hits[np.searchsorted(hits, starts)]
    return np.where(hit < ends, hit - starts, -1)


def _band_counts(dists, owners, held_from, thresholds, peaks, dipped, step_seg):
    """Per step, the held rows in ``[thresholds, peaks)`` at ``dipped`` steps."""
    by_owner = np.argsort(owners, kind="stable")
    bounds = np.searchsorted(owners[by_owner], np.arange(step_seg[-1] + 2))
    seg = step_seg[dipped]
    sizes = bounds[seg + 1] - bounds[seg]
    rows = by_owner[segments(bounds[seg], sizes)]
    steps = np.repeat(dipped, sizes)
    d = dists[rows]
    band = (d >= thresholds[steps]) & (d < peaks[steps]) & (held_from[rows] <= steps)
    return np.bincount(steps[band], minlength=thresholds.shape[0])


def first_stop(
    dists: np.ndarray, thresholds: np.ndarray, k: int, avail: np.ndarray
) -> int | None:
    """The first step at which ``k`` held rows lie below its threshold.

    :func:`first_stops` for one segment; ``None`` when no step stops.
    """
    stop = first_stops(
        dists,
        np.zeros(dists.shape[0], dtype=np.int64),
        np.asarray(avail, dtype=np.int64),
        thresholds,
        np.array([0, thresholds.shape[0]]),
        np.array([k]),
    )[0]
    return None if stop < 0 else int(stop)


def mindist_prefixes(
    rects: np.ndarray,
    points: np.ndarray,
    sizes: np.ndarray,
    *,
    tie_order: np.ndarray | None = None,
    masks: Sequence[np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every query's first ``sizes[i]`` blocks in (MINDIST, tie) order.

    Query ``i``'s prefix is ``blocks[offsets[i]:offsets[i + 1]]``,
    exactly ``tie_stable_argsort(mindist_points_rects(points, rects),
    tie_order)[i, :sizes[i]]`` — over the blocks ``masks[i]`` admits,
    when given (``sizes[i]`` must not exceed their number).

    No full MINDIST row is taken.  A row-chunked pass of *squared*
    MINDISTs finds, per query, the ``sizes[i]``-th smallest square
    ``s``; only blocks whose square is at most ``s * (1 + _SQ_SLACK)``
    can reach the prefix, and only those get their exact ``np.hypot``
    key and (key, tie rank) sort.
    """
    n, m = rects.shape[0], points.shape[0]
    sizes = np.asarray(sizes, dtype=np.int64)
    bounds = np.ascontiguousarray(rects.T)
    # Queries in ascending size, so one partition rank per chunk sits
    # close to each row's own.
    by_size = np.argsort(sizes, kind="stable")
    rows = max(1, _MINDIST_CHUNK // max(n, 1))
    picked_q, picked_b = [_EMPTY_ROWS], [_EMPTY_ROWS]
    for lo in range(0, m, rows):
        qs = by_size[lo : lo + rows]
        x, y = points[qs, 0, None], points[qs, 1, None]
        sq = np.subtract(bounds[0], x)
        part = np.subtract(x, bounds[2])
        np.maximum(sq, part, out=sq)
        np.maximum(sq, 0.0, out=sq)
        np.multiply(sq, sq, out=sq)
        np.subtract(bounds[1], y, out=part)
        dy = np.subtract(y, bounds[3])
        np.maximum(part, dy, out=dy)
        np.maximum(dy, 0.0, out=dy)
        np.multiply(dy, dy, out=dy)
        sq += dy
        admit = None
        if masks is not None and any(masks[q] is not None for q in qs.tolist()):
            admit = np.ones(sq.shape, dtype=bool)
            for j, q in enumerate(qs.tolist()):
                if masks[q] is not None:
                    admit[j] = masks[q]
            sq[~admit] = np.inf
        kth = int(sizes[qs[-1]]) - 1
        cut = np.partition(sq, kth, axis=1)[:, kth]
        cut *= 1.0 + _SQ_SLACK
        cut += _SQ_FLOOR
        within = sq <= cut[:, None]
        if admit is not None:
            within &= admit
        r, b = np.divmod(np.flatnonzero(within), n)
        picked_q.append(qs[r])
        picked_b.append(b)
    q, b = np.concatenate(picked_q), np.concatenate(picked_b)
    x, y = points[q, 0], points[q, 1]
    # Elementwise the operations of ``mindist_points_rects``.
    keys = np.hypot(
        np.maximum(np.maximum(rects[b, 0] - x, 0.0), x - rects[b, 2]),
        np.maximum(np.maximum(rects[b, 1] - y, 0.0), y - rects[b, 3]),
    )
    if tie_order is None:
        ranks = b
    else:
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[tie_order] = np.arange(n)
        ranks = rank_of[b]
    order = np.lexsort((ranks, keys, q))
    q, b = q[order], b[order]
    found = np.bincount(q, minlength=m)
    rank = np.arange(q.shape[0]) - np.repeat(np.cumsum(found) - found, found)
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return b[rank < sizes[q]], offsets


def drain_batch(
    view: BlockPointsView,
    rects: np.ndarray,
    points: np.ndarray,
    ks: Sequence[int],
    *,
    slots: np.ndarray,
    tie_order: np.ndarray | None = None,
    block_masks: Sequence[np.ndarray | None] | None = None,
    row_filters: Sequence[Callable[[np.ndarray], np.ndarray] | None] | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Distance-browse a batch of k-NN queries over a columnar block layout.

    Every open query advances in lockstep rounds.  A round takes each
    query's window — its first ``w`` blocks in (MINDIST, canonical tie)
    order — plus the next block (:func:`mindist_prefixes`), gathers all
    windows' rows with one owner-indexed ``hypot``, and counts the stop
    rule for every (query, step) pair at once (:func:`first_stops`,
    against :func:`scalar_thresholds`).  Queries that stop, or whose
    window holds every admissible block, take their answers from one
    ``lexsort``; the others double ``w`` for the next round.

    Args:
        view: The blocks' points and rows.
        rects: Snapshot rects, one row per snapshot block.
        points: ``(m, 2)`` focal points.
        ks: Rows wanted per query.
        slots: Snapshot row -> view block.
        tie_order: The snapshot's canonical-order permutation.
        block_masks: Per query, the snapshot rows that may be scanned
            at all (region pruning), or ``None`` for all.
        row_filters: Per query, a map of view entries to a qualifying
            mask (predicates, regions), or ``None``; unqualified rows
            never answer or count.

    Returns:
        ``(entries, blocks_scanned)`` — per query, the view positions of
        its ``k`` nearest qualifying scanned rows in (distance, scan
        position) order, the order the heap browser emits them in; and
        the blocks each query scanned.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    m, n = points.shape[0], rects.shape[0]
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    limits = np.full(m, n, dtype=np.int64)
    if block_masks is not None:
        for i, mask in enumerate(block_masks):
            if mask is not None:
                limits[i] = np.count_nonzero(mask)
    if row_filters is not None and all(f is None for f in row_filters):
        row_filters = None
    avg = max(1.0, view.points.shape[0] / max(view.counts.shape[0], 1))
    sizes = np.minimum((ks / avg).astype(np.int64) + 2, limits)
    answers = [_EMPTY_ROWS] * m
    scanned = np.zeros(m, dtype=np.int64)
    live = np.flatnonzero(limits > 0)
    while live.shape[0]:
        size, k, pts = sizes[live], ks[live], points[live]
        need = np.minimum(size + 1, limits[live])
        prefix, prefix_off = mindist_prefixes(
            rects,
            pts,
            need,
            tie_order=tie_order,
            masks=None if block_masks is None else [block_masks[i] for i in live],
        )
        # Every window's rows, query after query, block after block.
        window = segments(prefix_off[:-1], size)
        window_q = np.repeat(np.arange(live.shape[0]), size)
        window_pos = window - prefix_off[window_q]
        blocks = slots[prefix[window]]
        entries = view.entries(blocks)
        owner = np.repeat(np.arange(window.shape[0]), view.counts[blocks])
        if row_filters is not None:
            row_off = np.searchsorted(window_q[owner], np.arange(live.shape[0] + 1))
            keep = np.ones(entries.shape[0], dtype=bool)
            for j, i in enumerate(live.tolist()):
                if row_filters[i] is not None:
                    lo, hi = row_off[j], row_off[j + 1]
                    keep[lo:hi] = row_filters[i](entries[lo:hi])
            entries, owner = entries[keep], owner[keep]
        row_q = window_q[owner]
        dists = np.hypot(
            view.xy[0][entries] - pts[row_q, 0], view.xy[1][entries] - pts[row_q, 1]
        )
        # Before step j the rows of window blocks < j are held; no step
        # stops before k of them are, so each query's steps start there.
        per_block = np.bincount(owner, minlength=window.shape[0])
        held = np.cumsum(per_block)
        first_block = np.cumsum(size) - size
        held -= np.repeat(held[first_block] - per_block[first_block], size)
        start = size + 1 - np.bincount(window_q[held >= k[window_q]], minlength=live.shape[0])
        n_steps = np.maximum(need - start, 0)
        steps = segments(prefix_off[:-1] + start, n_steps)
        step_q = np.repeat(np.arange(live.shape[0]), n_steps)
        step_off = np.zeros(live.shape[0] + 1, dtype=np.int64)
        np.cumsum(n_steps, out=step_off[1:])
        row_pos = window_pos[owner]
        thresholds = scalar_thresholds(pts[step_q, 0], pts[step_q, 1], rects[prefix[steps]])
        stops = first_stops(dists, row_q, row_pos + 1 - start[row_q], thresholds, step_off, k)
        stopped = stops >= 0
        done = stopped | (need == size)
        scan = np.where(stopped, start + stops, size)
        # The k nearest held rows of every finished query, in
        # (distance, scan position) order.  A stop leaves at least k
        # held rows below its threshold, so every answer lies below it.
        below = np.full(live.shape[0], np.inf)
        below[stopped] = thresholds[step_off[:-1][stopped] + stops[stopped]]
        pick = done[row_q] & (row_pos < scan[row_q]) & (dists < below[row_q])
        picked, picked_q = entries[pick], row_q[pick]
        order = np.lexsort((dists[pick], picked_q))
        picked, picked_q = picked[order], picked_q[order]
        found = np.bincount(picked_q, minlength=live.shape[0])
        first = np.cumsum(found) - found
        for j in np.flatnonzero(done).tolist():
            answers[live[j]] = picked[first[j] : first[j] + min(int(k[j]), int(found[j]))]
        scanned[live[done]] = scan[done]
        sizes[live] = np.minimum(2 * size, limits[live])
        live = live[~done]
    return answers, scanned


def scalar_thresholds(x, y, rects: np.ndarray) -> np.ndarray:
    """Stop-test floats of ``rects`` rows: scalar ``mindist_point_rect``.

    ``x`` and ``y`` are one focal point or one per rect row.  The
    floats the heap browser compares against, so every executor, shard
    and merge stops where
    :class:`~repro.knn.distance_browsing.DistanceBrowser` would.
    ``dx``/``dy`` are taken over the same operands as
    :func:`~repro.geometry.mindist_point_rect`'s ``max(·, 0.0, ·)`` —
    at worst a zero of the other sign, which ``hypot`` ignores — and
    every pair goes through ``math.hypot``, so each float is bitwise
    the scalar one without a ``Rect`` per block.
    """
    rects = np.asarray(rects, dtype=float).reshape(-1, 4)
    dx = np.maximum(np.maximum(rects[:, 0] - x, 0.0), x - rects[:, 2])
    dy = np.maximum(np.maximum(rects[:, 1] - y, 0.0), y - rects[:, 3])
    return np.fromiter(
        map(math.hypot, dx.tolist(), dy.tolist()), dtype=float, count=dx.shape[0]
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
