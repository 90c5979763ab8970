"""nn-engine speedup: fused training hot path vs per-op reference.

The paper's efficiency study (Tables 5-6) charges model training to
DeepOD's offline cost; this bench measures the fused nn engine directly.
Both engines run the same same-seed short ``fit`` — fused LSTM
unroll + im2col GEMM convolutions + single-node losses against the
per-op oracles of ``tests/oracles/nn.py`` (swapped in by
``reference_engine()``) — and the wall-time ratio must clear the
floor: >= 3x at the default ``REPRO_BENCH_SCALE`` (>= 2x when the
scale is reduced, where fixed overheads eat into the ratio).

Results land in ``BENCH_fit.json`` at the repo root (``repro.obs.bench``
format), including the per-phase forward/backward/optimizer breakdown
extracted from the trainer's trace spans.  Its checks: each engine's
phases fit inside its total fit time (``phases_within_fit``) and both
engines reach the same same-seed validation MAE (``same_seed_mae``).
"""

import contextlib
import time
from pathlib import Path

from repro.core import DeepODConfig, DeepODTrainer, build_deepod
from repro.datagen import DatasetSpec, build
from repro.obs import Tracer, failed_gates, measure, new_bench, write_bench
from tests.oracles.nn import reference_engine

from .conftest import bench_scale, print_header

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fit.json"
PHASES = ("forward", "backward", "optimizer")


def _fit_config(epochs: int) -> DeepODConfig:
    return DeepODConfig(
        d_s=32, d_t=16, d1_m=32, d2_m=16, d3_m=32, d4_m=16,
        d5_m=32, d6_m=16, d7_m=32, d9_m=32, d_h=32, d_traf=16,
        batch_size=64, epochs=epochs, seed=0, aux_weight=0.3,
        use_external_features=False)


def _phase_seconds(tracer: Tracer) -> dict:
    """Sum the aggregate forward/backward/optimizer spans of a trace."""
    totals = {phase: 0.0 for phase in PHASES}

    def walk(span):
        if span.name in totals:
            totals[span.name] += span.duration_s
        for child in span.children:
            walk(child)

    for root in tracer.roots:
        walk(root)
    return {f"{phase}_s": totals[phase] for phase in PHASES}


def _bench_engine(dataset, nn_engine: str, epochs: int,
                  repeats: int = 2) -> dict:
    """Best-of-``repeats`` fit timing for one engine.

    The bench box is a single loaded core, so individual fits jitter by
    10-20%; the minimum over identical same-seed runs is the stable
    estimate of the engine's true cost (the MAE is identical across
    repeats by construction, so only the clock varies).
    """
    best = None
    for _ in range(repeats):
        with (reference_engine() if nn_engine == "reference"
              else contextlib.nullcontext()):
            model = build_deepod(dataset, _fit_config(epochs))
            tracer = Tracer()
            trainer = DeepODTrainer(model, dataset, eval_every=0,
                                    tracer=tracer)
            t0 = time.perf_counter()
            trainer.fit(track_validation=False)
            fit_s = time.perf_counter() - t0
            stats = {"fit_s": fit_s}
            stats.update(_phase_seconds(tracer))
            stats["val_mae"] = trainer.validation_mae()
        if best is None or fit_s < best["fit_s"]:
            best = stats
    return best


def test_fit_engine_speedup():
    scale = bench_scale()
    trips = int(600 * min(scale, 4.0))
    # Four epochs amortise the one-off costs both engines share
    # (per-trajectory array caching, allocator warm-up) so the ratio
    # reflects steady-state step cost.
    epochs = 4
    floor = 3.0 if scale >= 1.0 else 2.0
    dataset = build(DatasetSpec("mini-chengdu", num_trips=trips, num_days=14))
    steps = epochs * -(-len(dataset.split.train) // 64)

    ref = _bench_engine(dataset, "reference", epochs)
    fast = _bench_engine(dataset, "fast", epochs)
    speedup = ref["fit_s"] / fast["fit_s"]

    print_header("nn engine — fused hot path vs per-op reference")
    print(f"{trips} trips, {steps} steps of batch 64 (scale {scale:g})")
    print(f"{'phase':12s}{'reference(s)':>14}{'fast(s)':>12}{'ratio':>8}")
    for key in ("forward_s", "backward_s", "optimizer_s", "fit_s"):
        r, f = ref[key], fast[key]
        print(f"{key[:-2]:12s}{r:14.3f}{f:12.3f}{r / max(f, 1e-9):8.1f}")
    print(f"val MAE: fast {fast['val_mae']:.3f}s vs reference "
          f"{ref['val_mae']:.3f}s")
    print(f"fit speedup: {speedup:.1f}x (floor {floor:.0f}x)")

    measurements = {"speedup": measure(speedup, "x", floor=floor)}
    for engine, stats in (("reference", ref), ("fast", fast)):
        for key, value in stats.items():
            measurements[f"{engine}.{key}"] = measure(value, "s")
    doc = new_bench(
        "fit_engine_speedup",
        {"trips": trips, "steps": steps, "batch_size": 64,
         "sequence_encoder": "lstm", "epochs": epochs, "scale": scale},
        measurements,
        checks={
            "phases_within_fit": all(
                sum(stats[f"{p}_s"] for p in PHASES) <= 1.5 * stats["fit_s"]
                for stats in (ref, fast)),
            # Same-seed runs through either engine land on one model.
            "same_seed_mae": abs(fast["val_mae"] - ref["val_mae"])
            <= 1e-4 * max(ref["val_mae"], 1.0),
        })
    write_bench(str(RESULTS_PATH), doc)
    assert not failed_gates(doc), failed_gates(doc)
