"""Layer-ledger benchmark of the spatial k-NN engine.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch_select --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

One run builds the system a workload serves (several times, reporting
the median set-up time), drives it with closed-loop clients for
``--seconds``, checks sampled answers against oracles and prints one
JSON object as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, from spans recorded around
calls into each layer (see ``ledger.py``).  The line before the last is
a ``{"record": ...}`` object with provenance and the figures the
contract line has no room for: failed share, tail percentile and its
sample count.  ``--workload all`` runs every workload in its own
process and also prints the headline ratio ``tier_data.qps /
batch_select.qps``.  The exit code is 1 when a query failed (it
raised, was refused, came back degraded or partial, or failed its
answer check), 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from ledger import Ledger, latency_summary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; set-up metrics are their median.
SETUPS = 5

#: Alternating untraced/traced segments after the traced count window.
TRACE_SEGMENTS = 4


class Segment:
    """One closed-loop stretch of requests."""

    def __init__(self, latencies: list[float], wall_s: float, queries: int,
                 mutations: int, next_index: int) -> None:
        self.latencies = latencies
        self.wall_s = wall_s
        self.queries = queries
        self.mutations = mutations
        self.next_index = next_index

    @property
    def qps(self) -> float:
        return self.queries / self.wall_s


def drive(scenario, tally, start: int, *, min_requests: int, seconds: float,
          ledger: Ledger | None = None) -> Segment:
    """Run the scenario's clients from request ``start``.

    Stops taking requests once ``min_requests`` were taken and
    ``seconds`` have passed (or the scenario's requests run out).
    """
    lock = threading.Lock()
    state = {"next": start}
    latencies: list[float] = []
    queries0, mutations0 = tally.queries, tally.mutations
    t_start = time.perf_counter()
    stop_at = t_start + seconds

    def client() -> None:
        while True:
            with lock:
                i = state["next"]
                if scenario.limit is not None and i >= scenario.limit:
                    return
                if i - start >= min_requests and time.perf_counter() >= stop_at:
                    return
                state["next"] = i + 1
            t0 = time.perf_counter()
            try:
                if ledger is None:
                    response = scenario.request(i)
                else:
                    with ledger.request():
                        response = scenario.request(i)
            except Exception:  # a failed request is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                response = None
            latency = time.perf_counter() - t0
            with lock:
                latencies.append(latency)
                scenario.account(i, response, tally)

    threads = [threading.Thread(target=client) for __ in range(scenario.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Segment(
        latencies,
        time.perf_counter() - t_start,
        tally.queries - queries0,
        tally.mutations - mutations0,
        state["next"],
    )


def peak_rss_mb(scenario) -> float:
    """Peak RSS of this process plus the scenario's worker processes."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + scenario.worker_rss_kb()) / 1024.0


def git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    from repro.geometry.backends import active_backend

    return {
        "seed": seed,
        "kernel_backend": active_backend(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def per_query(ns: float, queries: int) -> float:
    return ns / 1e3 / queries if queries else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(scenario, tally, seconds: int):
    """The count window traced, then alternating untraced/traced segments.

    Wrappers are installed only while a traced segment runs, so the
    untraced segments measure the untraced program and their throughput
    against the traced segments' is the tracing overhead.

    Returns ``(ledger, window, traced, untraced)``: ``window`` holds the
    count window's counters and per-layer call counts; ``traced`` starts
    with the count window's segment.
    """
    ledger = Ledger()
    scenario.trace(ledger)
    first = drive(scenario, tally, 0, min_requests=scenario.pool_size, seconds=0,
                  ledger=ledger)
    ledger.unwrap_all()
    window = {
        "counts": dict(ledger.counts),
        "calls": {layer: entry["calls"] for layer, entry in ledger.layers.items()},
        "queries": first.queries,
    }
    traced, untraced = [first], []
    index = first.next_index
    for k in range(TRACE_SEGMENTS):
        is_traced = k % 2 == 1
        if is_traced:
            scenario.trace(ledger)
        segment = drive(scenario, tally, index, min_requests=1,
                        seconds=seconds / TRACE_SEGMENTS,
                        ledger=ledger if is_traced else None)
        ledger.unwrap_all()
        index = segment.next_index
        (traced if is_traced else untraced).append(segment)
    return ledger, window, traced, untraced


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, bool]:
    """One run of one workload: ``(metrics, record, correct)``."""
    from scenarios import OPERATORS, SCENARIOS, Tally, stop_processes

    scenario = SCENARIOS[name](seed)
    tally = Tally()
    try:
        setups = []
        for __ in range(SETUPS):
            # Each set-up starts from a clean heap: the previous system
            # is released and collected first.
            scenario.close()
            gc.collect()
            setups.append(scenario.setup())
        gc.collect()
        if trace:
            ledger, window, traced, untraced = run_traced(scenario, tally, seconds)
        else:
            measured = drive(scenario, tally, 0, min_requests=scenario.pool_size,
                             seconds=seconds)
        rss_mb = peak_rss_mb(scenario)
        catalog_bytes = scenario.catalog_bytes()
        shipped = scenario.shipped_bytes()
        blocks_per_query, est_error = scenario.window_costs(tally)
        mismatches = scenario.check()
    finally:
        scenario.close()
        stop_processes()

    def median_of(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in setups)

    failed = tally.failed + mismatches
    record = {
        "workload": name,
        "trace": int(trace),
        **provenance(seed),
        "attempted": tally.queries,
        "failed": failed,
        "failed_frac": failed / tally.queries,
        "check_mismatches": mismatches,
        "setup_runs": SETUPS,
    }
    if trace:
        metrics = layer_metrics(ledger, window, traced, untraced, OPERATORS)
        metrics.update({
            "engine.table.build_s": median_of("table_s"),
            "engine.stats.catalog_build_s": median_of("catalog_s"),
            "serving.coordinator.start_s": median_of("start_s"),
            "serving.coordinator.shipped_bytes": shipped,
        })
        record["traced_requests"] = ledger.requests
        return metrics, record, failed == 0
    lat = latency_summary(measured.latencies, scenario.pool_size)
    metrics = {
        "setup_s": median_of("setup_s"),
        "qps": measured.qps,
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "blocks_per_query": blocks_per_query,
        "est_error_ratio": est_error,
        "catalog_bytes": catalog_bytes,
        "peak_rss_mb": rss_mb,
    }
    record.update(
        tail_percentile=lat["tail_percentile"],
        tail_beyond=lat["tail_beyond"],
        latency_samples=lat["samples"],
        measured_s=measured.wall_s,
    )
    if measured.mutations:
        record["mutations_per_s"] = measured.mutations / measured.wall_s
    return metrics, record, failed == 0


def layer_metrics(ledger: Ledger, window: dict, traced, untraced, operators) -> dict:
    """Per-layer metrics from the traced segments.

    Times are per traced query (or mutation, or block); counts come from
    the count window only, so they repeat exactly at a fixed seed.
    """
    window_counts, window_calls, pass_queries = (
        window["counts"], window["calls"], window["queries"]
    )
    queries = sum(s.queries for s in traced)
    mutations = ledger.calls("index.mutable_quadtree")
    refresh = "estimators.maintenance.refresh"
    metrics = {
        "resilience.guards.us_per_query": per_query(ledger.busy_ns("resilience.guards"), queries),
        "engine.stats.estimate_us_per_query":
            per_query(ledger.busy_ns("engine.stats.estimate"), queries),
        "engine.stats.estimate_calls_per_query":
            ratio(window_calls.get("engine.stats.estimate", 0), pass_queries),
        "optimizer.selection.us_per_query":
            per_query(ledger.busy_ns("optimizer.selection"), queries),
        "optimizer.selection.walks_per_query":
            ratio(window_calls.get("optimizer.selection", 0), pass_queries),
        "engine.planner.self_us_per_query": per_query(ledger.self_ns("engine.planner"), queries),
        "engine.physical.us_per_query": per_query(ledger.busy_ns("engine.physical"), queries),
        "engine.physical.us_per_block":
            per_query(ledger.busy_ns("engine.physical"), ledger.counts["physical.blocks"]),
        "serving.supervisor.roundtrip_us_per_query":
            per_query(ledger.busy_ns("serving.supervisor"), queries),
        "serving.supervisor.rounds_per_query":
            ratio(window_calls.get("serving.supervisor", 0), pass_queries),
        "serving.supervisor.retries": ledger.counts["tier.retries"],
        "serving.merge.us_per_query": per_query(ledger.busy_ns("serving.merge"), queries),
        "serving.coordinator.self_us_per_query":
            per_query(ledger.self_ns("serving.coordinator"), queries),
        "index.mutable_quadtree.us_per_mutation":
            per_query(ledger.busy_ns("index.mutable_quadtree"), mutations),
        "estimators.maintenance.us_per_mutation": per_query(ledger.busy_ns(refresh), mutations),
        "estimators.maintenance.rebuilt_per_mutation": ratio(
            window_counts.get("maintenance.rebuilt", 0),
            window_calls.get("index.mutable_quadtree", 0),
        ),
        "estimators.maintenance.reuse_frac": ratio(
            window_counts.get("maintenance.catalogs", 0)
            - window_counts.get("maintenance.rebuilt", 0),
            window_counts.get("maintenance.catalogs", 0),
        ),
        "estimators.maintenance.estimate_us_per_query":
            per_query(ledger.busy_ns("estimators.maintenance.estimate"), queries),
        "mutations_per_s": ratio(sum(s.mutations for s in untraced),
                                 sum(s.wall_s for s in untraced)),
        "trace.unattributed_frac": ledger.unattributed_frac(),
        "trace.overhead_frac": 1.0 - ratio(
            ratio(sum(s.queries for s in traced[1:]), sum(s.wall_s for s in traced[1:])),
            ratio(sum(s.queries for s in untraced), sum(s.wall_s for s in untraced)),
        ),
    }
    for op in operators:
        metrics[f"engine.physical.blocks_per_query.{op}"] = ratio(
            window_counts.get(f"physical.blocks.{op}", 0),
            window_counts.get(f"physical.queries.{op}", 0),
        )
    return metrics


def contract_line(spec: dict, trace: bool, metrics: dict, attempted: int, failed: int,
                  correct: bool) -> dict:
    """The result object, with units from ``BENCHMARK.json``."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}"
        )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, then the headline ratio."""
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"error: {name} printed no result (exit {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        print(lines[-2])
        results[name] = json.loads(lines[-1])
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = all(r["correct"] for r in results.values())
    metrics = {
        f"{name}.{metric}": value
        for name, r in results.items()
        for metric, value in r["metrics"].items()
    }
    if not args.trace:
        tier = results["tier_data"]["metrics"]["qps"]["value"]
        batch = results["batch_select"]["metrics"]["qps"]["value"]
        print(f"headline: tier_data.qps / batch_select.qps = {tier:.1f} / {batch:.1f} "
              f"= {tier / batch:.3f}")
        metrics["headline.tier_over_batch_qps"] = {"value": tier / batch, "unit": "ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no sources at {SRC / 'repro'} (run from a full checkout)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    from repro.geometry.backends import set_backend

    set_backend("numpy")
    metrics, record, correct = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"record": record}))
    print(json.dumps(contract_line(
        spec, bool(args.trace), metrics, record["attempted"], record["failed"], correct
    )))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
