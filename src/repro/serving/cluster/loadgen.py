"""Load-test harness: replay synthetic query streams, record the SLOs.

The paper's operating regime is a map-service backend answering
millions of OD queries under a latency budget (Table 5 measures the
per-query estimation cost that budget buys).  This module turns that
into a repeatable measurement:

* :func:`synthetic_queries` — a seeded, deterministic query stream
  drawn from a dataset's held-out trips with jittered departure times;
* :func:`measure_saturation` — closed-loop chunked ``query_batch``
  driving, the maximum sustained throughput of a target;
* :func:`measure_submit_throughput` — closed-loop driving of the
  ``submit`` path (per-shard micro-batchers pipelining batches), used
  for the multi-worker overlap floor;
* :func:`run_open_loop` — controlled-RPS arrivals with per-query
  completion latencies recorded into a ``repro.obs.metrics`` histogram
  (p50/p95/p99 come from its standard summary);
* :func:`run_load_test` — all three against one artifact, returned as
  the ``BENCH_serving.json`` document (``repro.obs.bench`` format).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...obs.bench import measure, new_bench
from ...obs.metrics import MetricsRegistry
from ...trajectory.model import Query
from ..artifact import load_artifact, read_manifest
from ..errors import SaturatedError


# ---------------------------------------------------------------------------
def synthetic_queries(dataset, n: int, seed: int = 0) -> List[Query]:
    """A deterministic stream of ``n`` queries sampled from held-out
    trips, with departure times jittered inside the dataset horizon —
    the repetitive-but-not-identical shape of production traffic."""
    trips = dataset.split.test or dataset.split.train
    if not trips:
        raise ValueError("dataset has no trips to sample queries from")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(trips), size=n)
    jitter = rng.uniform(-300.0, 300.0, size=n)
    horizon = dataset.horizon_seconds
    queries = []
    for pick, dt in zip(picks, jitter):
        od = trips[int(pick)].od
        depart = float(np.clip(od.depart_time + dt, 0.0, horizon - 1.0))
        queries.append(Query(origin_xy=od.origin_xy,
                             destination_xy=od.destination_xy,
                             depart_time=depart))
    return queries


# ---------------------------------------------------------------------------
def measure_saturation(target, queries: Sequence[Query],
                       batch_size: int = 128) -> Dict[str, float]:
    """Closed-loop saturation throughput of ``target.query_batch``.

    Chunks of ``batch_size`` are driven back-to-back with no think
    time: the steady-state maximum rate the target sustains.  Works on
    a :class:`TravelTimeService` and a :class:`ServingCluster` alike.
    """
    queries = list(queries)
    degraded = 0
    start = time.perf_counter()
    for lo in range(0, len(queries), batch_size):
        responses = target.query_batch(queries[lo:lo + batch_size])
        degraded += sum(1 for r in responses if r.degraded)
    wall_s = time.perf_counter() - start
    return {"queries": len(queries), "wall_s": wall_s,
            "throughput_qps": len(queries) / wall_s,
            "degraded": degraded}


def measure_submit_throughput(cluster, queries: Sequence[Query]
                              ) -> Dict[str, float]:
    """Closed-loop throughput of the ``submit`` path: every query is
    enqueued up front and the per-shard micro-batchers pipeline batches
    through the workers until the backlog drains."""
    start = time.perf_counter()
    futures = [cluster.submit(q) for q in queries]
    responses = [f.result(timeout=300) for f in futures]
    wall_s = time.perf_counter() - start
    return {"queries": len(queries), "wall_s": wall_s,
            "throughput_qps": len(queries) / wall_s,
            "degraded": sum(1 for r in responses if r.degraded)}


def run_open_loop(target, queries: Sequence[Query], rps: float,
                  metrics: Optional[MetricsRegistry] = None,
                  timeout_s: float = 120.0) -> Dict[str, object]:
    """Open-loop replay at a controlled arrival rate.

    Arrivals follow the fixed schedule ``start + i/rps`` regardless of
    completions (the open-loop discipline — queueing delay shows up in
    the latencies instead of silently throttling the offered load).
    Completion latency lands in the ``loadtest.latency_ms`` histogram
    of ``metrics`` (or a private registry), whose standard summary
    yields p50/p95/p99.
    """
    if rps <= 0:
        raise ValueError("rps must be > 0")
    registry = metrics or MetricsRegistry()
    hist = registry.histogram("loadtest.latency_ms")
    recorded = threading.Semaphore(0)
    shed = failed = 0
    futures = []
    start = time.perf_counter()
    for i, query in enumerate(queries):
        due = start + i / rps
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        sent = time.perf_counter()
        try:
            future = target.submit(query)
        except SaturatedError:
            shed += 1
            registry.counter("loadtest.shed").inc()
            continue

        def _record(f, sent=sent):
            hist.observe((time.perf_counter() - sent) * 1000.0)
            recorded.release()

        future.add_done_callback(_record)
        futures.append(future)
    degraded = 0
    for future in futures:
        try:
            if future.result(timeout=timeout_s).degraded:
                degraded += 1
        except Exception:
            failed += 1
    # ``Future.set_result`` wakes ``result()`` before it runs the done
    # callbacks, so a completed query's latency may not be observed
    # yet: wait for every completed future's ``_record``.
    for future in futures:
        if future.done():
            recorded.acquire(timeout=timeout_s)
    wall_s = time.perf_counter() - start
    summary = hist.summary()
    answered = len(futures) - failed
    return {
        "rps_target": rps,
        "rps_achieved": answered / wall_s if wall_s > 0 else 0.0,
        "queries": len(queries),
        "answered": answered,
        "shed": shed,
        "failed": failed,
        "degraded": degraded,
        "latency_ms": {"count": summary["count"], "p50": summary["p50"],
                       "p95": summary["p95"], "p99": summary["p99"],
                       "mean": summary["mean"], "max": summary["max"]},
    }


# ---------------------------------------------------------------------------
def run_load_test(artifact_path: str, *, dataset=None, workers: int = 4,
                  queries: int = 256, rps: float = 100.0, seed: int = 0,
                  stall_ms: float = 50.0, floor: float = 2.0,
                  max_batch: int = 16, max_wait_s: float = 0.002,
                  routing: str = "region",
                  metrics: Optional[MetricsRegistry] = None) -> Dict:
    """The full serving load test; returns the ``BENCH_serving.json``
    document (``repro.obs.bench`` format, bench ``serving_load``).

    Three groups of measurements, one artifact:

    ``overlap.*``
        Multi-worker scaling with a fixed ``stall_ms`` of injected
        per-batch work standing in for model latency on bigger hardware
        (the ``benchmarks/test_sweep_parallel`` pattern — honest on a
        single-core CI box, where CPU-bound scaling is impossible by
        construction).  Round-robin routing guarantees balanced shards,
        so the expected speedup is ~``workers``; ``overlap.speedup``
        carries ``floor`` as the document's gate.
    ``model.*``
        Real-model saturation throughput, single process vs the
        ``workers``-shard cluster, no stall — the genuine numbers for
        this machine, recorded ungated.
    ``open_loop.*``
        Controlled-RPS replay against the no-stall cluster:
        p50/p95/p99 completion latency, shed/failed counts.
    """
    from ..service import TravelTimeService
    from .cluster import ClusterConfig, ServingCluster

    predictor = load_artifact(artifact_path, dataset=dataset)
    dataset = predictor.dataset
    stream = synthetic_queries(dataset, queries, seed=seed)

    def stalled_config(num_workers: int) -> "ClusterConfig":
        return ClusterConfig(num_workers=num_workers,
                             routing="round_robin", max_batch=max_batch,
                             max_wait_s=max_wait_s,
                             batch_stall_s=stall_ms / 1000.0)

    overlap = {}
    for key, num in (("single", 1), ("cluster", workers)):
        cluster = ServingCluster(artifact_path, dataset=dataset,
                                 config=stalled_config(num))
        cluster.start()
        try:
            overlap[key] = measure_submit_throughput(
                cluster, stream)["throughput_qps"]
        finally:
            cluster.stop()

    service = TravelTimeService(predictor=predictor, dataset=dataset)
    single = measure_saturation(service, stream)
    cluster = ServingCluster(
        artifact_path, dataset=dataset,
        config=ClusterConfig(num_workers=workers, routing=routing,
                             max_batch=max_batch, max_wait_s=max_wait_s))
    cluster.start()
    try:
        scaled = measure_saturation(cluster, stream)
        open_loop = run_open_loop(cluster, stream, rps, metrics=metrics)
    finally:
        cluster.stop()

    measurements = {
        "overlap.single_qps": measure(overlap["single"], "1/s"),
        "overlap.cluster_qps": measure(overlap["cluster"], "1/s"),
        "overlap.speedup": measure(overlap["cluster"] / overlap["single"],
                                   "x", floor=floor),
        "model.single_qps": measure(single["throughput_qps"], "1/s"),
        "model.cluster_qps": measure(scaled["throughput_qps"], "1/s"),
        "model.speedup": measure(
            scaled["throughput_qps"] / single["throughput_qps"], "x"),
        "model.degraded": measure(scaled["degraded"], "count"),
        "open_loop.rps_achieved": measure(open_loop["rps_achieved"], "1/s"),
    }
    for key in ("answered", "shed", "failed", "degraded"):
        measurements[f"open_loop.{key}"] = measure(open_loop[key], "count")
    for key, value in open_loop["latency_ms"].items():
        measurements[f"open_loop.latency_ms.{key}"] = measure(
            value, "count" if key == "count" else "ms")
    workload = {
        "artifact_fingerprint":
            read_manifest(artifact_path)["dataset"]["fingerprint"],
        "queries": queries, "seed": seed, "rps": rps, "workers": workers,
        "stall_ms": stall_ms, "max_batch": max_batch,
        "max_wait_s": max_wait_s, "routing": routing}
    return new_bench("serving_load", workload, measurements)
