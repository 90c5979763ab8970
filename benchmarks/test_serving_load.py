"""Serving-cluster load test: multi-worker overlap, SLOs, saturation.

The paper's deployment regime (Table 5) is a map-service backend
answering a city's OD queries under a latency budget.  This bench
drives the sharded :class:`~repro.serving.ServingCluster` with the
``repro.serving.cluster.loadgen`` harness and lands the results in
``BENCH_serving.json`` at the repo root, so the serving perf
trajectory is visible across PRs:

* **overlap** — multi-worker scaling with a fixed per-batch stall
  standing in for model latency (the ``test_sweep_parallel`` pattern:
  honest on a single-core CI box, where CPU-bound scaling is
  impossible by construction).  This is the gated floor: a
  4-worker cluster must overlap to >= 2x one worker's throughput.
* **model** — real-model saturation throughput, single process vs the
  cluster, recorded always and gated only on >= 4 cores (where the
  forked workers actually have hardware to scale onto).
* **open_loop** — controlled-RPS replay: p50/p95/p99 completion
  latency through ``repro.obs.metrics``; zero failed requests.
"""

from pathlib import Path

import pytest

from repro.core import DeepODTrainer, TravelTimePredictor, build_deepod
from repro.datagen import DatasetSpec, build
from repro.obs import (
    MetricsRegistry, failed_gates, load_bench, validate_metrics_snapshot,
    write_bench,
)
from repro.serving import save_artifact
from repro.serving.cluster import run_load_test

from .conftest import BenchParams, print_header, small_deepod_config

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

WORKERS = 4
STALL_MS = 50.0
OVERLAP_FLOOR = 2.0
MODEL_FLOOR = 2.0     # asserted only with >= 4 cores to scale onto


@pytest.fixture(scope="module")
def load_artifact_dir(tmp_path_factory):
    """A small trained serving artifact (plus its dataset, to skip
    regeneration in the harness)."""
    params = BenchParams.from_env()
    dataset = build(DatasetSpec("mini-chengdu",
                        num_trips=max(int(800 * params.scale), 200),
                        num_days=7))
    config = small_deepod_config(params, epochs=1)
    model = build_deepod(dataset, config)
    trainer = DeepODTrainer(model, dataset, eval_every=0)
    trainer.fit(track_validation=False)
    predictor = TravelTimePredictor(trainer)
    directory = tmp_path_factory.mktemp("serving_artifact")
    return save_artifact(str(directory / "v1"), predictor), dataset


def test_serving_load(load_artifact_dir):
    artifact, dataset = load_artifact_dir
    params = BenchParams.from_env()
    queries = max(int(256 * params.scale), 128)
    registry = MetricsRegistry()

    doc = run_load_test(
        artifact, dataset=dataset, workers=WORKERS, queries=queries,
        rps=150.0, seed=0, stall_ms=STALL_MS, floor=OVERLAP_FLOOR,
        metrics=registry)
    # Real-model scaling needs real cores; below 4 the number is
    # recorded in BENCH_serving.json but not gated.
    cpus = doc["host"]["cpus"]
    if cpus >= 4:
        doc["measurements"]["model.speedup"]["floor"] = MODEL_FLOOR
    m = {name: entry["value"] for name, entry in doc["measurements"].items()}

    print_header("Serving cluster — load test")
    print(f"queries {queries}, workers {WORKERS}, cpus {cpus}")
    print(f"overlap ({STALL_MS:.0f}ms stall): "
          f"{m['overlap.single_qps']:8.1f} qps single  "
          f"{m['overlap.cluster_qps']:8.1f} qps cluster  "
          f"{m['overlap.speedup']:5.2f}x (floor {OVERLAP_FLOOR:.1f}x)")
    print(f"model saturation:  {m['model.single_qps']:8.1f} qps single  "
          f"{m['model.cluster_qps']:8.1f} qps cluster  "
          f"{m['model.speedup']:5.2f}x")
    print(f"open loop @ {doc['workload']['rps']:.0f} rps: "
          f"p50 {m['open_loop.latency_ms.p50']:6.1f}ms  "
          f"p95 {m['open_loop.latency_ms.p95']:6.1f}ms  "
          f"p99 {m['open_loop.latency_ms.p99']:6.1f}ms  "
          f"shed {m['open_loop.shed']}  failed {m['open_loop.failed']}")

    write_bench(str(RESULTS_PATH), doc)
    validate_metrics_snapshot(registry.snapshot())

    # The load is all answerable: nothing failed, nothing degraded, and
    # every answer's latency is in the percentiles.
    assert m["open_loop.failed"] == 0
    assert m["open_loop.degraded"] == 0
    assert m["model.degraded"] == 0
    assert m["open_loop.latency_ms.count"] == m["open_loop.answered"]
    # The gates: worker overlap on fixed-duration batches, which holds
    # on any core count, plus model saturation on >= 4 cores.
    failures = failed_gates(load_bench(str(RESULTS_PATH)))
    assert not failures, failures
