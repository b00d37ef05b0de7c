"""Per-request span ledger and the timing statistics the benchmark reports.

The benchmark records spans from its own files, around calls into the
program's layers: :meth:`Ledger.wrap` replaces a function at the
attribute where its caller looks it up (a module attribute, a class
attribute for a method, or an instance attribute) and
:meth:`Ledger.unwrap_all` puts every original back, so an untraced
segment runs exactly the untraced program.

Every span belongs to one *request* — one call the client makes and
waits for — and has a parent span in that request.  Nested calls on one
thread find their parent on a thread-local stack.  Work a request hands
to pool threads is attributed through a *token*: an object the request
passes down (the serving tier's per-batch ``Deadline``) that is
registered on the client thread and looked up on the pool thread, so
two client threads running concurrently never share a parent.

When a request ends its spans are folded into per-layer totals —
calls, busy time (sum of span durations) and self time (a span's
duration minus the union of its children's intervals) — and dropped,
so memory stays bounded however long the run.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Percentiles the tail is chosen from, in basis points.
TAIL_LADDER_BP = (5_000, 9_000, 9_900, 9_990, 9_999)

#: Name of every request's root span.
ROOT = "request"


def _rank(n: int, bp: int) -> int:
    """1-based nearest rank of percentile ``bp`` (basis points) among ``n``."""
    return -(-n * bp // 10_000)


def tail_percentile_bp(n: int) -> int:
    """The highest ladder percentile with >= TAIL_BEYOND of ``n`` samples beyond it.

    Raises:
        ValueError: With too few samples for any ladder percentile.
    """
    fits = [bp for bp in TAIL_LADDER_BP if n - _rank(n, bp) >= TAIL_BEYOND]
    if not fits:
        raise ValueError(
            f"{n} samples leave fewer than {TAIL_BEYOND} beyond every percentile"
        )
    return fits[-1]


def latency_summary(latencies_s, guaranteed: int) -> dict:
    """Median and tail of per-request latencies, in milliseconds.

    The tail percentile is chosen for ``guaranteed`` samples — the
    number every run is sure to collect — so it is the same in every
    run however fast the program is; with ``len(latencies_s) >=
    guaranteed`` it leaves at least :data:`TAIL_BEYOND` samples beyond.

    Returns ``{"p50_ms", "tail_ms", "tail_percentile", "tail_beyond",
    "samples"}``.
    """
    ordered = sorted(latencies_s)
    n = len(ordered)
    if n < guaranteed:
        raise ValueError(f"got {n} samples, fewer than the {guaranteed} guaranteed")
    bp = tail_percentile_bp(guaranteed)
    rank = _rank(n, bp)
    mid = n // 2
    p50 = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    return {
        "p50_ms": p50 * 1e3,
        "tail_ms": ordered[rank - 1] * 1e3,
        "tail_percentile": bp / 100.0,
        "tail_beyond": n - rank,
        "samples": n,
    }


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def fold_spans(spans) -> dict:
    """Per-layer ``{"calls", "busy_ns", "self_ns"}`` of one request.

    ``spans`` holds ``[layer, start_ns, end_ns, parent_index]`` entries;
    the root (index 0) has parent ``-1``.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for i, (layer, start, end, parent) in enumerate(spans):
        busy = end - start
        self_ns = busy - covered_ns(children.get(i, ()), start, end)
        entry = out.setdefault(layer, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["busy_ns"] += busy
        entry["self_ns"] += self_ns
    return out


class _Request:
    """The spans of one in-flight request."""

    __slots__ = ("spans", "lock", "tokens")

    def __init__(self) -> None:
        self.spans: list[list] = [[ROOT, time.perf_counter_ns(), 0, -1]]
        self.lock = threading.Lock()
        self.tokens: list[int] = []

    def open(self, layer: str, parent: int) -> int:
        with self.lock:
            self.spans.append([layer, time.perf_counter_ns(), 0, parent])
            return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()


class Ledger:
    """Collects per-request spans and per-layer counts.

    Usage::

        ledger = Ledger()
        ledger.wrap(module, "function", "layer.name")
        with ledger.request():
            module.function(...)   # recorded as a child of the request
        ledger.unwrap_all()
        ledger.layers["layer.name"]  # {"calls", "busy_ns", "self_ns"}
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tokens: dict[int, tuple[_Request, int, object]] = {}
        self._restore: list[tuple[object, str, bool, object]] = []
        self.layers: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0}
        )
        self.counts: Counter = Counter()
        self.requests = 0

    # ------------------------------------------------------------------
    # Requests and counts
    # ------------------------------------------------------------------
    @contextmanager
    def request(self):
        """Open a request on this thread; its spans fold in on exit.

        Yields the request, whose ``spans`` stay readable after exit.
        """
        req = _Request()
        previous = getattr(self._local, "ctx", None)
        self._local.ctx = (req, [0])
        try:
            yield req
        finally:
            req.close(0)
            self._local.ctx = previous
            folded = fold_spans(req.spans)
            with self._lock:
                for token in req.tokens:
                    self._tokens.pop(token, None)
                for layer, entry in folded.items():
                    total = self.layers[layer]
                    for key, value in entry.items():
                        total[key] += value
                self.requests += 1

    def add(self, name: str, value: float = 1) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counts[name] += value

    def _context(self, token_obj):
        ctx = getattr(self._local, "ctx", None)
        if ctx is not None or token_obj is None:
            return ctx
        with self._lock:
            found = self._tokens.get(id(token_obj))
        if found is None:
            return None
        req, parent, __ = found
        return (req, [parent])

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str | None = None, *,
             count=None, token=None, register=None) -> None:
        """Trace calls to ``owner.attr`` until :meth:`unwrap_all`.

        Args:
            owner: Module, class or instance the caller looks ``attr``
                up on.
            attr: Attribute name.
            layer: Span name; ``None`` records no span (the wrapper
                only carries request context).
            count: ``count(ledger, args, result)`` called after each
                call inside a request, to record per-layer counts.
            token: ``token(args)`` returns the object a pool thread
                uses to find its request when it has none of its own;
                the call then runs with that request as its context.
            register: ``register(args)`` returns an object to register
                as a token for the current request and innermost span
                (this call's own span, when ``layer`` is given).
        """
        had_own = attr in getattr(owner, "__dict__", {})
        raw = owner.__dict__[attr] if had_own else None
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            ctx = self._context(token(args) if token is not None else None)
            if ctx is None:
                return original(*args, **kwargs)
            req, stack = ctx
            bound_here = getattr(self._local, "ctx", None) is None
            if bound_here:
                self._local.ctx = ctx
            index = req.open(layer, stack[-1]) if layer is not None else None
            if index is not None:
                stack.append(index)
            if register is not None:
                obj = register(args)
                with self._lock:
                    self._tokens[id(obj)] = (req, stack[-1], obj)
                req.tokens.append(id(obj))
            try:
                result = original(*args, **kwargs)
            finally:
                if index is not None:
                    stack.pop()
                    req.close(index)
                if bound_here:
                    self._local.ctx = None
            if count is not None:
                count(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, had_own, raw))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._restore:
            owner, attr, had_own, raw = self._restore.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Reading out
    # ------------------------------------------------------------------
    def self_ns(self, layer: str) -> int:
        return self.layers[layer]["self_ns"] if layer in self.layers else 0

    def busy_ns(self, layer: str) -> int:
        return self.layers[layer]["busy_ns"] if layer in self.layers else 0

    def calls(self, layer: str) -> int:
        return self.layers[layer]["calls"] if layer in self.layers else 0

    def unattributed_frac(self) -> float:
        """Share of request time covered by no layer span."""
        busy = self.busy_ns(ROOT)
        return self.self_ns(ROOT) / busy if busy else math.nan
