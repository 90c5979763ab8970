"""Per-layer measurement: the metric catalogue, span self times, and the
call-site counters of the traced run.

Layers are the ``src/repro`` packages that cost time.  Every span of a
trace belongs to one of them by name (the benchmark names its own spans
after the layer call they wrap), and a layer's self time is its spans'
durations minus what their children cover.  Shortest-path calls are too
many for a span each, so the traced run counts them: a wrapper bound in
place of ``dijkstra``/``dijkstra_sssp`` at every module that imported
them by name adds its call time as a counter to whatever span is open on
the calling thread, and self time subtracts those counters.  Untraced
runs never patch anything.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Tuple

# name -> (unit, better, the end-to-end metric @ workload it should move)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "datagen.generate.ms_per_trip": (
        "ms", "lower", "throughput_per_ref_s@train-mini (dominant share), "
        "throughput_per_ref_s@build-mega (minor)"),
    "datagen.speed_matrix.s": (
        "s", "lower", "throughput_per_ref_s@train-mini, @build-mega"),
    "datagen.storage.s": (
        "s", "lower", "throughput_per_ref_s@build-mega, @train-mini"),
    "roadnet.dijkstra.calls": (
        "count", "lower", "throughput_per_ref_s@build-mega, @train-mini; "
        "no change on serve-*"),
    "roadnet.dijkstra.s": (
        "s", "lower", "throughput_per_ref_s@build-mega, @train-mini; "
        "no change on serve-*"),
    "roadnet.sssp.calls": (
        "count", "lower", "throughput_per_ref_s@build-mega; "
        "no change on serve-*"),
    "roadnet.sssp.s": (
        "s", "lower",
        "throughput_per_ref_s@build-mega; no change on serve-*"),
    "mapmatching.match.ms_per_trip": (
        "ms", "lower", "throughput_per_ref_s@build-mega only"),
    "mapmatching.matched_ratio": (
        "ratio", "higher", "throughput_per_ref_s@build-mega only"),
    "mapmatching.pool.speedup": (
        "x", "higher", "throughput_per_ref_s@build-mega only"),
    "mapmatching.cache.sssp.hit_rate": (
        "ratio", "higher", "throughput_per_ref_s@build-mega only"),
    "mapmatching.cache.route.hit_rate": (
        "ratio", "higher", "throughput_per_ref_s@build-mega only"),
    "embedding.road.walks_s": (
        "s", "lower", "throughput_per_ref_s@train-mini only"),
    "embedding.road.sgns_s": (
        "s", "lower", "throughput_per_ref_s@train-mini only"),
    "embedding.slot_s": (
        "s", "lower", "throughput_per_ref_s@train-mini only"),
    "core.fit.s": ("s", "lower", "throughput_per_ref_s@train-mini"),
    "core.fit.steps_per_s": (
        "1/s", "higher", "throughput_per_ref_s@train-mini"),
    "nn.forward_s": ("s", "lower", "throughput_per_ref_s@train-mini"),
    "nn.backward_s": ("s", "lower", "throughput_per_ref_s@train-mini"),
    "nn.optimizer_s": ("s", "lower", "throughput_per_ref_s@train-mini"),
    "core.calibrate_s": ("s", "lower", "throughput_per_ref_s@train-mini"),
    "core.val_mae_s": (
        "s", "lower", "quality check @train-mini (drift between commits)"),
    "core.predict.ms_per_query": (
        "ms", "lower", "throughput_per_ref_s@serve-hot, @serve-live"),
    "serving.artifact.save_s": (
        "s", "lower", "throughput_per_ref_s@train-mini"),
    "serving.artifact.load_s": (
        "s", "lower", "throughput_per_ref_s@train-mini, setup_s@serve-*"),
    "serving.match.ms_per_query": (
        "ms", "lower", "throughput_per_ref_s@serve-live"),
    "serving.speed_slices.ms_per_query": (
        "ms", "lower", "throughput_per_ref_s@serve-live"),
    "serving.predict.ms_per_query": (
        "ms", "lower", "throughput_per_ref_s@serve-live, @serve-hot"),
    "serving.batch_size.mean": (
        "count", "higher", "throughput_per_ref_s@serve-live, @serve-hot"),
    "serving.queue_wait_ms.p50": ("ms", "lower", "serving.p50_ms@serve-live"),
    "serving.cache.od.hit_rate": (
        "ratio", "higher",
        "throughput_per_ref_s (near 1 @serve-hot, low @serve-live)"),
    "serving.cache.speed.hit_rate": (
        "ratio", "higher",
        "throughput_per_ref_s (near 1 @serve-hot, low @serve-live)"),
    "serving.cache.speed.invalidations": (
        "count", "lower", "throughput_per_ref_s@serve-live"),
    "serving.route.ms_per_query": (
        "ms", "lower", "none gated (route tier answers only on model "
        "failure)"),
    "cluster.overhead_ms_per_batch": (
        "ms", "lower", "throughput_per_ref_s, serving.p50_ms@serve-hot"),
    "cluster.shard_skew": (
        "ratio", "lower", "throughput_per_ref_s@serve-hot"),
    "cluster.restarts": ("count", "lower", "throughput_per_ref_s@serve-hot"),
    "streaming.observe.ms_per_trip": (
        "ms", "lower", "throughput_per_ref_s@serve-live"),
    "streaming.publish.ms_per_slice": (
        "ms", "lower", "throughput_per_ref_s@serve-live"),
    "streaming.update_p90_ms": (
        "ms", "lower", "serving.p99_ms@serve-live (write cost beside reads)"),
    "streaming.slices_published": (
        "count", "higher", "throughput_per_ref_s@serve-live"),
    "serving.p50_ms": (
        "ms", "lower", "serve_p50_ms@serve-* at the reference rate "
        "(reported, not gated: wake-up latency of the shared VM moves it "
        "2x between runs)"),
    "serving.p99_ms": (
        "ms", "lower", "serve_p99_ms@serve-* (reported, not gated: its "
        "run-to-run spread exceeds the largest bound on a shared VM)"),
    "obs.trace_overhead": (
        "ratio", "lower", "run validity (traced / untraced primary time)"),
    "obs.unattributed_share": (
        "ratio", "lower", "run validity (benchmark-own self time)"),
    "loadgen.late_ms_p99": (
        "ms", "lower", "run validity (generator lateness)"),
    "loadgen.backlog_end": (
        "count", "lower", "run validity (queries outstanding at rung end)"),
}

LAYERS = ("datagen", "roadnet", "mapmatching", "embedding", "core", "nn",
          "serving", "cluster", "streaming")
for _layer in LAYERS + ("unattributed",):
    PER_LAYER[f"share.{_layer}"] = (
        "ratio", "lower",
        "the layer's self-time share of the traced workload")

# Span-name prefixes -> layer.  ``bench.`` spans are the benchmark's own
# (loops, checks, waits) and stay unattributed.
_PREFIXES = (
    ("datagen.", "datagen"), ("mapmatching.", "mapmatching"),
    ("pretrain.", "embedding"), ("embed.", "embedding"),
    ("train.", "core"), ("core.", "core"),
    ("serve.", "serving"), ("serving.", "serving"),
    ("cluster.", "cluster"), ("streaming.", "streaming"),
)
_NN_PHASES = ("forward", "backward", "optimizer")


def layer_of(name: str) -> str:
    if name in _NN_PHASES:
        return "nn"
    for prefix, layer in _PREFIXES:
        if name.startswith(prefix):
            return layer
    return "unattributed"


def self_times(trace: Dict) -> Tuple[Dict[str, float], float, float]:
    """Per-layer self seconds over every root of an exported trace.

    Returns ``(by_layer, total, overlap)``: ``total`` is the summed root
    duration (thread time), ``overlap`` the seconds by which children
    exceeded their parent and were clamped, so ``sum(by_layer)`` equals
    ``total + overlap``.
    """
    by_layer: Dict[str, float] = defaultdict(float)
    overlap = 0.0

    def walk(span: Dict) -> None:
        nonlocal overlap
        counted = sum(v for k, v in span["counters"].items()
                      if k.startswith("roadnet.") and k.endswith(".s"))
        covered = sum(c["duration_s"] for c in span["children"]) + counted
        own = span["duration_s"] - covered
        if own < 0:
            overlap += -own
            own = 0.0
        by_layer[layer_of(span["name"])] += own
        by_layer["roadnet"] += counted
        for child in span["children"]:
            walk(child)

    total = 0.0
    for root in trace["spans"]:
        total += root["duration_s"]
        walk(root)
    return dict(by_layer), total, overlap


def iter_spans(trace: Dict) -> Iterable[Dict]:
    stack = list(trace["spans"])
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span["children"])


def span_total(trace: Dict, name: str, under: str = "") -> Tuple[float, int]:
    """Summed duration and count of spans called ``name`` (optionally
    only those below a span called ``under``)."""
    roots = ([s for s in iter_spans(trace) if s["name"] == under]
             if under else trace["spans"])
    seconds, count = 0.0, 0
    for span in iter_spans({"spans": roots}):
        if span["name"] == name:
            seconds += span["duration_s"]
            count += 1
    return seconds, count


def span_self(trace: Dict, name: str) -> float:
    """Summed self time (duration minus children) of spans ``name``."""
    return sum(s["duration_s"] - sum(c["duration_s"] for c in s["children"])
               for s in iter_spans(trace) if s["name"] == name)


# ----------------------------------------------------------------------
class CallCounter:
    """Counts and times the shortest-path kernels at their call sites."""

    KERNELS = (("dijkstra", "dijkstra"), ("dijkstra_sssp", "sssp"))

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)

    def _wrap(self, fn, key: str):
        tracer = self.tracer

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.calls[key] += 1
                self.seconds[key] += dt
                tracer.add(f"roadnet.{key}.s", dt)

        return counted

    @contextmanager
    def patched(self):
        """Rebind every ``repro`` module attribute that *is* one of the
        kernels (the defining module and each ``from ... import``
        binding) to a counting wrapper; restore on exit."""
        from repro.roadnet import shortest_path
        bindings: List[Tuple[object, str, object]] = []
        for fn_name, key in self.KERNELS:
            original = getattr(shortest_path, fn_name)
            wrapper = self._wrap(original, key)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "repro" or
                                          mod_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in bindings:
                setattr(module, attr, original)

    def metrics(self) -> Dict[str, float]:
        out = {}
        for _, key in self.KERNELS:
            out[f"roadnet.{key}.calls"] = float(self.calls[key])
            out[f"roadnet.{key}.s"] = self.seconds[key]
        return out


@contextmanager
def match_many_spans(tracer):
    """Open a ``mapmatching.match_many`` span around every call the
    dataset pipeline makes.  Its own ``datagen.match`` span opens only
    after ``match_many`` returns, so without this the matching time lands
    in ``datagen.trips`` self time."""
    from repro.mapmatching import batch
    original = batch.match_many

    def spanned(matcher, trajs, jobs=1):
        with tracer.span("mapmatching.match_many", trips=len(trajs),
                         jobs=jobs):
            return original(matcher, trajs, jobs=jobs)

    batch.match_many = spanned
    try:
        yield
    finally:
        batch.match_many = original
