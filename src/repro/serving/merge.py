"""The streaming cross-shard k-NN merge protocol (data-shard mode).

In data-shard mode every worker holds only *its* blocks (a
:meth:`~repro.index.snapshot.IndexSnapshot.extract` sub-snapshot plus
the matching rows/points), so no single worker can answer a k-NN
query.  The coordinator reconstructs the unsharded engine's answer by
replaying the distance browser's block admission over per-shard
MINDIST-ordered streams:

* each shard serves its blocks in ``(MINDIST, global block id)``
  order from a plain integer cursor — :func:`~repro.knn.drain.take`
  over the canonical sub-snapshot, whose tie breaks are the exact
  slice of the global tie-break contract that belongs to the shard —
  in one columnar reply per round (keys, block ids, thresholds, rows,
  distances) together with a **lower bound**: the next unfetched
  block's key, below which the shard can contribute nothing further;
* the coordinator (:class:`QueryMerge`) merges the fetched runs on the
  global key up to the smallest bound — the global scan sequence,
  bit-for-bit — and applies the drain kernel's stop rule
  (:func:`~repro.knn.drain.first_stop`) over it in one pass: once
  ``k`` gathered rows lie strictly below the next block's
  scalar-kernel threshold, no unscanned block can contribute, so it
  stops *pulling* from a shard the moment that shard's bound exceeds
  the running k-th distance;
* a starved stream (fetched blocks exhausted, bound still
  admissible) pauses the replay; the coordinator batches the pause
  points of all queries into one resume round per shard.

The admitted block count equals the unsharded
:func:`~repro.engine.physical.execute_incremental_knn_batch`'s
``blocks_scanned`` exactly, and the emitted rows — the k smallest
distances over the admitted blocks, ties in scan order — are
bit-identical, because block order, distances, and stop thresholds all
carry the same floats.

**Coverage gaps.**  A dead shard is not (as in replica mode) merely a
routing problem: its rows are unreachable.  Each dead shard
contributes only a lower bound (its last reported bound, or the
coordinator-computed hull bound when it never answered).  When the
replay's next global block belongs to a dead shard, two things can
happen:

* the stop rule already holds at the dead bound's threshold — then the
  true scan would have stopped there too, and the answer is **exact**
  with the identical scan count;
* otherwise the query degrades to a **partial** answer: the merge
  drains the surviving shards below the gap threshold ``t_gap`` (the
  dead bound's MINDIST) and returns the verified prefix — every row
  with distance strictly below ``t_gap``, in exactly the global
  emission order, clamped to ``k``.  Rows at or beyond ``t_gap`` are
  unverifiable (the dead shard could hold closer ones), so they are
  withheld; the prefix is provably a bit-identical prefix of the
  unsharded answer.

Estimator provenance merges per query: incremental-scan cost is the
*sum* of the per-shard estimates (each shard browses its own blocks),
the tier is the *worst* (most degraded) shard tier, and the merged
numbers are arbitrated through the same selection chain the unsharded
planner walks, so ``PlanExplanation`` keeps its shape — alternatives,
``decided_by``, and a genuine per-link trail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.knn.drain import first_stop, smallest

#: Note marker for partial-coverage degraded answers.
PARTIAL_PLAN = "partial-coverage"

_NO_DISTS = np.empty(0, dtype=float)

#: Select-estimator tiers from most to least trusted; the merged
#: explanation reports the *worst* tier any shard answered with.
_TIER_RANK = {
    "": -1,
    "estimate-cache": 0,
    "staircase": 0,
    "density": 1,
    "uniform-model": 2,
    "guaranteed-bound": 3,
}


def worst_tier(tiers) -> str:
    """The most degraded tier label among per-shard answers."""
    worst = ""
    rank = -1
    for tier in tiers:
        r = _TIER_RANK.get(tier, 3)
        if r > rank:
            worst, rank = tier, r
    return worst


@dataclass
class ShardStream:
    """Coordinator-side state of one shard's block stream for one query.

    Attributes:
        shard_id: The shard.
        entries: Fetched blocks in stream order, one ``(mindist, global
            block id, threshold, row_ids, dists)`` tuple each.
        pos: Next unadmitted entry index.
        cursor: Worker-side stream rank already fetched (the resume
            token).
        bound: ``(mindist, global block id, threshold)`` of the next
            *unfetched* block, or ``None`` when the stream is spent.
        dead: Whether the shard stopped answering; fetched entries stay
            admissible, but the bound becomes a permanent coverage gap.
    """

    shard_id: int
    entries: list = field(default_factory=list)
    pos: int = 0
    cursor: int = 0
    bound: tuple | None = None
    dead: bool = False

    def extend(self, entries: list, cursor: int, bound: tuple | None) -> None:
        """Append one resume round's entries and advance the cursor."""
        self.entries.extend(entries)
        self.cursor = int(cursor)
        self.bound = bound


def query_stream(streams: dict, i: int) -> tuple[list, int, tuple | None]:
    """Query ``i``'s ``(entries, cursor, bound)`` from a shard's batch reply."""
    lo, hi = streams["block_offsets"][i : i + 2].tolist()
    starts = streams["row_offsets"][lo : hi + 1].tolist()
    rows, dists = streams["rows"], streams["dists"]
    entries = [
        (key, block_id, threshold, rows[start:end], dists[start:end])
        for key, block_id, threshold, start, end in zip(
            streams["keys"][lo:hi].tolist(),
            streams["block_ids"][lo:hi].tolist(),
            streams["thresholds"][lo:hi].tolist(),
            starts[:-1],
            starts[1:],
        )
    ]
    return entries, int(streams["cursors"][i]), streams["bounds"][i]


class QueryMerge:
    """Replay the global block admission for one query across shards.

    Drive with :meth:`advance`: it admits blocks until the query is
    answered (``None``) or a live stream starves (a ``{shard_id:
    (cursor, min_points, min_mindist)}`` resume request).  Feed resume
    results back through the streams' :meth:`ShardStream.extend` and
    call :meth:`advance` again.  When it returns ``None``, read
    :meth:`result`.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.streams: dict[int, ShardStream] = {}
        self._row_parts: list[np.ndarray] = []
        self._dist_parts: list[np.ndarray] = []
        self.gathered = 0
        self.admitted = 0
        self.t_gap: float | None = None
        self.gap_shards: tuple[int, ...] = ()
        self.finished = False

    # -- stream wiring --------------------------------------------------
    def add_stream(
        self, shard_id: int, entries: list, cursor: int, bound: tuple | None
    ) -> None:
        """Register one live shard's opening stream state."""
        self.streams[shard_id] = ShardStream(
            int(shard_id), list(entries), 0, int(cursor), bound
        )

    def add_dead(self, shard_id: int, bound: tuple | None) -> None:
        """Register a shard that never answered, via its hull bound."""
        self.streams[shard_id] = ShardStream(
            int(shard_id), [], 0, 0, bound, dead=True
        )

    def mark_dead(self, shard_id: int) -> None:
        """Demote a live stream after a failed resume: bound = gap."""
        self.streams[shard_id].dead = True

    @property
    def partial(self) -> bool:
        """Whether the replay crossed a dead shard's coverage gap."""
        return self.t_gap is not None

    # -- the replay -----------------------------------------------------
    def advance(self) -> dict[int, tuple[int, int, float]] | None:
        """Admit blocks until answered (``None``) or a resume is needed.

        The fetched blocks of every stream, merged on the global
        ``(MINDIST, block id)`` key up to the smallest unfetched bound,
        are the next stretch of the global scan; the drain kernel's
        stop rule (:func:`~repro.knn.drain.first_stop`) runs over that
        stretch in one pass.  Past a dead shard's bound the replay turns
        partial: it drains live blocks strictly below the gap threshold
        only.

        Returns:
            ``None`` when the query is answered (exact or partial), or
            ``{shard_id: (cursor, min_points, min_mindist)}`` naming
            every live stream whose next blocks must be fetched before
            the replay can continue.
        """
        while True:
            streams = self.streams.values()
            # Past a gap only live bounds cut the stretch: dead rows
            # beyond the gap are unverifiable whatever their order.
            bounds = [
                s for s in streams
                if s.bound is not None and (self.t_gap is None or not s.dead)
            ]
            nxt = min(bounds, key=lambda s: s.bound[:2], default=None)
            stretch = sorted(
                (entry[:2], entry, s)
                for s in streams
                for entry in s.entries[s.pos:]
                if nxt is None or entry[:2] < nxt.bound[:2]
            )
            steps = len(stretch) + (nxt is not None)
            sizes = [self.gathered] + [entry[3].shape[0] for __, entry, __ in stretch]
            dists = np.concatenate(
                [_NO_DISTS, *self._dist_parts, *(entry[4] for __, entry, __ in stretch)]
            )
            avail = np.repeat(np.arange(len(sizes)), sizes)
            if self.t_gap is None:
                thresholds = [entry[2] for __, entry, __ in stretch]
                if nxt is not None:
                    thresholds.append(nxt.bound[2])
                stop = first_stop(dists, np.array(thresholds, dtype=float), self.k, avail)
            else:
                # Partial: drain live blocks strictly below the gap (the
                # dead shard's rows all lie at or beyond it) until k
                # rows are verified there.
                keys = [entry[0] for __, entry, __ in stretch]
                if nxt is not None:
                    keys.append(nxt.bound[0])
                stop = first_stop(dists, np.full(steps, self.t_gap), self.k, avail)
                beyond = next((j for j, key in enumerate(keys) if key >= self.t_gap), None)
                if beyond is not None and (stop is None or beyond < stop):
                    stop = beyond
            for __, entry, stream in stretch[:stop]:
                stream.pos += 1
                self._row_parts.append(entry[3])
                self._dist_parts.append(entry[4])
                self.gathered += int(entry[3].shape[0])
                self.admitted += 1
            if stop is not None or nxt is None:
                # Answered, or every stream spent: the index is exhausted.
                self.finished = True
                return None
            if nxt.dead:
                # The next global block is unreachable: coverage gap.
                self.t_gap = float(nxt.bound[2])
                self.gap_shards = tuple(
                    sorted(s.shard_id for s in streams if s.dead and s.bound is not None)
                )
                continue
            # A live stream's bound gates the merge: fetch more blocks
            # (from every starved live stream, batching round trips).
            if self.t_gap is None:
                return self._resume_requests(min_points=self.k)
            return self._resume_requests(min_mindist=self.t_gap)

    def _resume_requests(
        self, *, min_points: int = 0, min_mindist: float = -np.inf
    ) -> dict[int, tuple[int, int, float]]:
        needs = {
            stream.shard_id: (stream.cursor, min_points, float(min_mindist))
            for stream in self.streams.values()
            if not stream.dead
            and stream.pos >= len(stream.entries)
            and stream.bound is not None
            and (min_mindist == -np.inf or stream.bound[0] < min_mindist)
        }
        if not needs:  # pragma: no cover - defensive: advance() gates this
            raise RuntimeError("merge starved with no resumable stream")
        return needs

    # -- the answer -----------------------------------------------------
    def result(self) -> tuple[np.ndarray, int, int]:
        """The merged answer: ``(row_ids, blocks_scanned, n_verified)``.

        Exact queries return the ``k`` nearest rows (fewer only when
        the relation holds fewer); partial queries return the verified
        prefix — rows strictly below the gap threshold, clamped to
        ``k``.  ``n_verified`` counts rows the merge could prove
        correct (== ``len(row_ids)``; exposed for reporting).
        """
        if not self.finished:
            raise RuntimeError("merge has not finished")
        if not self._row_parts:
            return np.empty(0, dtype=np.int64), self.admitted, 0
        rows = np.concatenate(self._row_parts)
        dists = np.concatenate(self._dist_parts)
        if self.t_gap is not None:
            verified = dists < self.t_gap
            rows, dists = rows[verified], dists[verified]
        take = smallest(dists, self.k)
        return rows[take], self.admitted, int(take.shape[0])


def merge_filter_topk(
    k: int, candidates: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard full-scan top-k lists into the global top-k.

    Each shard's candidate list carries ``(row_ids, dists, gpos)``
    where ``gpos`` is the row's position in the *global* block-order
    concatenation — the tie-break key of the unsharded
    :class:`~repro.engine.physical.FilterThenKnnOperator`'s stable
    argsort.  Merging all candidates on ``(dist, gpos)`` therefore
    reproduces the global scan's emission bit-for-bit.

    Returns:
        ``(row_ids, dists)`` of the merged top-``k``.
    """
    live = [c for c in candidates if c is not None and c[0].size]
    if not live:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=float)
    rows = np.concatenate([c[0] for c in live])
    dists = np.concatenate([c[1] for c in live])
    gpos = np.concatenate([c[2] for c in live])
    order = np.lexsort((gpos, dists))[:k]
    return rows[order], dists[order]


def merge_select_estimates(
    costs: list[float], tiers: list[str], degraded: list[bool], bound: float
) -> tuple[float, str, bool]:
    """Merge per-shard select estimates into one global estimate.

    The browse cost sums (each shard browses its own blocks for its
    own ``k``-prefix), clamped by the full-scan bound; the tier is the
    worst answering tier; degradation is sticky.
    """
    total = float(sum(costs)) if costs else bound
    return min(total, bound), worst_tier(tiers), bool(any(degraded))
