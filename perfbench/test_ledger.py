"""Tests for the benchmark's own helpers.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ledger import (
    ROOT,
    TAIL_LADDER_BP,
    Ledger,
    covered_ns,
    fold_spans,
    latency_summary,
    tail_percentile_bp,
)

HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# The tail-percentile rule: the highest percentile with >= 10 beyond
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1_000, 99.0),
     (2_000, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_is_the_highest_ladder_percentile_with_ten_beyond(n, percentile):
    values = [float(v) for v in range(n)]
    summary = latency_summary([v / 1e3 for v in reversed(values)], guaranteed=n)
    assert summary["tail_percentile"] == percentile
    beyond = sum(v > summary["tail_ms"] for v in values)
    assert beyond == summary["tail_beyond"] >= 10
    higher = [bp for bp in TAIL_LADDER_BP if bp > percentile * 100]
    if higher:  # the next rung up would leave fewer than ten beyond
        assert tail_percentile_bp(n) < higher[0]
        assert n - -(-n * higher[0] // 10_000) < 10


def test_tail_percentile_is_fixed_by_the_guaranteed_count():
    # A faster run collects more samples but reports the same percentile.
    slow = latency_summary([i / 1e3 for i in range(100)], guaranteed=100)
    fast = latency_summary([i / 1e3 for i in range(250)], guaranteed=100)
    assert slow["tail_percentile"] == fast["tail_percentile"] == 90.0
    assert fast["tail_beyond"] == 25 and fast["samples"] == 250


@pytest.mark.parametrize("n", [0, 1, 19])
def test_tail_needs_ten_samples_beyond_the_median(n):
    with pytest.raises(ValueError):
        tail_percentile_bp(n)


def test_fewer_samples_than_guaranteed_is_an_error():
    with pytest.raises(ValueError):
        latency_summary([0.001] * 50, guaranteed=100)


def test_median_of_even_and_odd_counts():
    odd = latency_summary([i / 1e3 for i in range(1, 22)], guaranteed=21)
    even = latency_summary([i / 1e3 for i in range(1, 23)], guaranteed=22)
    assert odd["p50_ms"] == pytest.approx(11.0)
    assert even["p50_ms"] == pytest.approx(11.5)


# ----------------------------------------------------------------------
# Self time: duration minus the union of the children's intervals
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered_ns([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_ns([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_ns([(3, 5), (3, 5)], 0, 10) == 2
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(20, 30)], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        [ROOT, 0, 100, -1],
        ["a", 10, 50, 0],
        ["b", 40, 70, 0],  # overlaps a: a parallel child
        ["c", 20, 30, 1],  # grandchild: only a's self time shrinks
    ]
    folded = fold_spans(spans)
    assert folded[ROOT] == {"calls": 1, "busy_ns": 100, "self_ns": 40}
    assert folded["a"] == {"calls": 1, "busy_ns": 40, "self_ns": 30}
    assert folded["b"] == {"calls": 1, "busy_ns": 30, "self_ns": 30}
    assert folded["c"] == {"calls": 1, "busy_ns": 10, "self_ns": 10}


def test_same_layer_spans_accumulate():
    spans = [[ROOT, 0, 10, -1], ["x", 1, 2, 0], ["x", 3, 6, 0]]
    assert fold_spans(spans)["x"] == {"calls": 2, "busy_ns": 4, "self_ns": 4}


# ----------------------------------------------------------------------
# Wrapping and per-request keying
# ----------------------------------------------------------------------
class _Service:
    def __init__(self, pool):
        self.pool = pool

    def handle(self, token):
        return self.pool.submit(self.work, token).result()

    def work(self, token):
        time.sleep(0.01)
        return token


def test_pool_thread_spans_key_to_their_own_request():
    """Two concurrent client threads share one pool thread; tokens keep
    every pool-thread span under the request that handed it over."""
    ledger = Ledger()
    with ThreadPoolExecutor(max_workers=1) as pool:
        service = _Service(pool)
        ledger.wrap(service, "handle", "outer", register=lambda a: a[0])
        ledger.wrap(service, "work", "inner", token=lambda a: a[0])
        both_inside = threading.Barrier(2)
        requests = {}

        def client(name):
            token = object()
            with ledger.request() as req:
                both_inside.wait(timeout=10)
                for __ in range(3):
                    assert service.handle(token) is token
            requests[name] = req

        threads = [threading.Thread(target=client, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    ledger.unwrap_all()
    for req in requests.values():
        layers = [span[0] for span in req.spans]
        assert layers.count("outer") == 3 and layers.count("inner") == 3
        for layer, start, end, parent in req.spans[1:]:
            assert req.spans[parent][0] == (ROOT if layer == "outer" else "outer")
            parent_start, parent_end = req.spans[parent][1:3]
            assert parent_start <= start <= end <= parent_end
    assert ledger.requests == 2
    assert ledger.calls("inner") == 6
    # The outer spans only wait on the pool: nearly all their time is
    # the inner spans', so their self time is small.
    assert ledger.self_ns("outer") < ledger.busy_ns("outer") / 2


def test_calls_outside_a_request_are_not_recorded():
    ledger = Ledger()
    module = types.SimpleNamespace(f=lambda x: x + 1)
    ledger.wrap(module, "f", "layer")
    assert module.f(1) == 2
    assert ledger.calls("layer") == 0
    with ledger.request():
        assert module.f(2) == 3
    assert ledger.calls("layer") == 1


def test_count_callback_and_unwrap_restore_every_owner_kind():
    class Thing:
        def method(self):
            return 7

    thing = Thing()
    module = types.SimpleNamespace(f=lambda: 1)
    original_f = module.f
    original_method = Thing.__dict__["method"]
    ledger = Ledger()
    ledger.wrap(module, "f", "m")
    ledger.wrap(Thing, "method", "c", count=lambda led, args, result: led.add("sum", result))
    ledger.wrap(thing, "method", "i")
    with ledger.request():
        assert thing.method() == 7
    assert ledger.calls("i") == 1 and ledger.calls("c") == 1
    assert ledger.counts["sum"] == 7
    ledger.unwrap_all()
    assert module.f is original_f
    assert Thing.__dict__["method"] is original_method
    assert "method" not in vars(thing)


# ----------------------------------------------------------------------
# BENCHMARK.json and the layer map agree
# ----------------------------------------------------------------------
def test_layer_map_covers_every_per_layer_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layers.json").read_text())
    mapped = [m for layer in layer_map["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(layer_map["workloads"]) == workloads
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for layer in layer_map["layers"].values():
        assert set(layer["moves"]) <= end_to_end
        assert set(layer["heavy_on"]) | set(layer["light_on"]) <= workloads


# ----------------------------------------------------------------------
# Spawn safety: tier workers re-import the entry point as __mp_main__
# ----------------------------------------------------------------------
def test_entry_point_reimports_without_side_effects(capsys):
    import multiprocessing
    import runpy

    namespace = runpy.run_path(str(HERE / "run.py"), run_name="__mp_main__")
    assert callable(namespace["main"])
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().out == ""


def test_stop_processes_leaves_no_process_behind(monkeypatch):
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import resource_tracker

    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    from scenarios import stop_processes

    # Started and torn down the way a shard pool is.
    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
    assert pool.submit(abs, -1).result(timeout=60) == 1
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    for process in list(pool._processes.values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    del pool

    stop_processes()
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):  # ended and reaped
        os.kill(tracker, 0)
