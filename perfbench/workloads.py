"""The four workloads: set-up, untraced measurement, traced measurement.

Each workload has three entry points, each run in a fresh process by
``child.py``:

``ready``
    Set up from nothing until the workload could serve its first
    operation (``setup_s`` times this from process start).
``measure``
    The untraced run: end-to-end metrics plus correctness checks.
``traced``
    A traced pass of the workload between two untraced ones (the ratio
    is ``obs.trace_overhead``), then per-layer probes under a second
    tracer, so probe time never counts toward the workload's layer
    shares.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import hostspeed
import inputs
import layers
from openloop import OpenLoop

from repro.core import (
    DeepODConfig, DeepODTrainer, TravelTimePredictor, build_deepod,
)
from repro.datagen import (
    DatasetSpec, TaxiDataset, build, dataset_fingerprint,
)
from repro.mapmatching import HMMMapMatcher, match_many
from repro.obs import NULL_TRACER, Tracer
from repro.serving import (
    ClusterConfig, RouteTimeBaseline, ServiceConfig, ServingCluster,
    TravelTimeService, load_artifact, save_artifact,
)
from repro.streaming.estimator import StreamingSpeedEstimator
from repro.trajectory.model import Query

NPROC = len(os.sched_getaffinity(0))

# Throughput is per reference second (see hostspeed.py).
E2E_UNITS = {"peak_rss_mb": "MB", "throughput_per_ref_s": "1/ref_s"}

# Serving load.  Both serve workloads share one latency limit, one
# reference rate (far below capacity: latency there is the unloaded
# cost) and one saturation window; queues are unbounded
# (``max_pending=0``) so overload shows as latency and backlog, never as
# shed queries.  A measured serve run opens with one reference-rate
# rung of REF_RUNG_S (latency, reported), then runs saturated stretches
# of SEGMENT_S, each between two host probes, until the run's seconds
# are spent.
LIMIT_MS = 50.0
REF_RATE = 500.0
REF_RUNG_S = 2.0
SATURATION_WINDOW = 256
SEGMENT_S = 1.0
MIN_SEGMENTS = 5
WARM_S = 0.5
# One worker per CPU left over by the load generator's process: more
# processes than CPUs would measure the scheduler, not the cluster.
CLUSTER_WORKERS = max(1, NPROC - 1)
REL_TOL = 1e-9          # served vs direct estimate: float64 reassociation

# build-mega matches serially.  At 60 trips in 30-trip chunks a 2-job
# pool gave no speed-up (4.0-6.0 s per build serial, 4.1-7.1 s pooled on
# a 2-vCPU VM), and a pool's wall time also depends on the other vCPU,
# which the host probe does not see: pooled builds spread twice as wide.
# The traced run still measures the pool (``mapmatching.pool.speedup``).
MEGA_MATCHER_JOBS = 1

# serve-live event clock: one 300 s speed period per 0.1 s of wall time,
# with one publish per period.
PERIOD_WALL_S = 0.1


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (reaped) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _seconds(t0: float) -> float:
    return time.perf_counter() - t0


class Result:
    """What a measurement hands back to ``run.py``."""

    def __init__(self):
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.lines: List[str] = []
        self.traces: List[Dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def to_dict(self) -> Dict:
        return {"metrics": self.metrics, "attempted": self.attempted,
                "failed": self.failed,
                "checks": [list(c) for c in self.checks],
                "lines": self.lines}


def _measure_batch(result: Result, seconds: float, cities: List[str],
                   skipped: List[str], run_job, trips: int) -> None:
    """Runs ``run_job(city) -> (seconds, GPS points)`` over ``cities`` in
    turn, each job between two host probes, until ``seconds`` are spent
    and every city was built once.

    Throughput is GPS points per reference second over all jobs.  A
    seeded city is the input of a batch workload, and cities differ in
    work: the same 60 trips carry 11k-15k points, and per-point cost
    still varies from city to city.  Counting points and pooling three
    cities per run keeps one city from setting a run's figure.  ``rss``
    is the peak after the first job: later jobs grow the heap a little,
    and the metric must not depend on how many jobs fitted in the run.
    """
    clock = hostspeed.Bracketed()
    job_s: List[float] = []
    job_ref_s: List[float] = []
    points = 0
    rss = 0.0
    t0 = time.perf_counter()
    while len(job_s) < len(cities) or _seconds(t0) < seconds:
        elapsed, job_points = run_job(cities[len(job_s) % len(cities)])
        job_s.append(elapsed)
        job_ref_s.append(elapsed * clock.scale())
        points += job_points
        if len(job_s) == 1:
            rss = peak_rss_mb()
    result.metrics.update(throughput_per_ref_s=points / sum(job_ref_s),
                          peak_rss_mb=rss)
    result.lines.append(
        "jobs (wall s): " + ", ".join(f"{s:.3f}" for s in job_s))
    result.lines.append(
        "jobs (ref s):  " + ", ".join(f"{s:.3f}" for s in job_ref_s))
    result.lines.append(
        f"{len(job_s)} jobs of {trips} trips over {len(cities)} cities, "
        f"{points} GPS points; {len(job_s) * trips / sum(job_ref_s):.2f} "
        "trips/ref_s")
    result.lines.append(clock.speed_line())
    if skipped:
        result.lines.append("skipped unbuildable cities: "
                            + ", ".join(skipped))


def _repeat_check(result: Result, what: str, seen: Dict[str, List]) -> None:
    """Same output from every job of a city that ran more than once."""
    for city, values in seen.items():
        if len(values) > 1:
            result.check(f"{what} ({city})", len(set(values)) == 1,
                         ", ".join(str(v)[:16] for v in values))


def _fill_layers(result: Result, trace: Dict) -> None:
    """Layer shares of the workload trace (not of the probes)."""
    by_layer, total, overlap = layers.self_times(trace)
    for layer in layers.LAYERS + ("unattributed",):
        result.metrics[f"share.{layer}"] = by_layer.get(layer, 0.0) / total
    result.metrics["obs.unattributed_share"] = \
        by_layer.get("unattributed", 0.0) / total
    attributed = sum(by_layer.values())
    result.check("layer self times sum to traced time",
                 abs(attributed - overlap - total) <= 1e-6 * max(total, 1),
                 f"sum {attributed:.4f} s - overlap {overlap:.4f} s vs "
                 f"traced {total:.4f} s")
    result.lines.append("traced self time by layer (s): " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(by_layer.items(),
                                           key=lambda kv: -kv[1])))


# ----------------------------------------------------------------------
# build-mega
# ----------------------------------------------------------------------
class BuildMega:
    """Disk build of a mega city with HMM re-matching, then reopen."""

    one_cpu = True

    def __init__(self, seed: int, workdir: str):
        self.cities, self.skipped = inputs.seeded_cities(inputs.MEGA_CITY,
                                                         seed)
        self.workdir = workdir
        self.reps = 0
        self.net = None         # the city's network, once a job reopened it

    def spec(self, out_dir: str, city: str) -> DatasetSpec:
        return DatasetSpec(city, num_trips=inputs.MEGA_TRIPS,
                           chunk_size=inputs.MEGA_CHUNK, storage="disk",
                           out_dir=out_dir, rematch=True,
                           matcher_jobs=MEGA_MATCHER_JOBS)

    def ready(self):
        self.spec(os.path.join(self.workdir, "ready"), self.cities[0])
        return lambda: None

    def job(self, tracer=NULL_TRACER, raws: Optional[List] = None,
            city: str = "") -> Tuple[float, str, str]:
        """One build + reopen of ``city`` (default: the first):
        ``(seconds, built fp, reopened fp)``.  ``raws`` collects the
        reopened trips' raw GPS trajectories."""
        out_dir = os.path.join(self.workdir, f"mega-{self.reps}")
        self.reps += 1
        gc.collect()    # each job starts from the same heap, not the last
        t0 = time.perf_counter()
        built = build(self.spec(out_dir, city or self.cities[0]),
                      tracer=tracer)
        built.close()
        with tracer.span("datagen.reopen"):
            reopened = TaxiDataset.open(out_dir)
        elapsed = _seconds(t0)
        with built, reopened:
            fps = dataset_fingerprint(built), dataset_fingerprint(reopened)
            if raws is not None:
                raws.extend(t.raw for t in reopened.trips)
                self.net = reopened.net
        shutil.rmtree(out_dir)
        return (elapsed,) + fps

    def measure(self, seconds: float) -> Result:
        result = Result()
        prints: Dict[str, List[str]] = {}
        points: Dict[str, int] = {}

        def run_job(city: str) -> Tuple[float, int]:
            raws: Optional[List] = None if city in points else []
            elapsed, fp_built, fp_open = self.job(raws=raws, city=city)
            if raws is not None:
                points[city] = sum(len(raw) for raw in raws)
            prints.setdefault(city, []).append(fp_built)
            result.attempted += 1
            if not result.check(f"build {result.attempted}: reopened "
                                "fingerprint equals the build's",
                                fp_built == fp_open, fp_built[:16]):
                result.failed += 1
            return elapsed, points[city]

        _measure_batch(result, seconds, self.cities, self.skipped,
                       run_job, inputs.MEGA_TRIPS)
        _repeat_check(result, "a rebuilt city has the same fingerprint",
                      prints)
        for city in self.cities:
            result.lines.append(f"fingerprint {city} {prints[city][0]}")
        return result

    def traced(self, seconds: float) -> Result:
        result = Result()
        before_s, fp_a, _ = self.job()
        tracer = Tracer()
        counter = layers.CallCounter(tracer)
        raws: List = []
        with counter.patched(), layers.match_many_spans(tracer):
            with tracer.span("bench.build-mega"):
                traced_s, fp_b, fp_open = self.job(tracer, raws)
        plain_s = (before_s + self.job()[0]) / 2
        result.attempted = 3
        result.failed = int(not result.check(
            "traced build matches the untraced build and its reopen",
            fp_a == fp_b == fp_open, fp_b[:16]))
        trace = tracer.to_dict()
        result.traces.append(trace)
        _fill_layers(result, trace)
        m = result.metrics
        m["obs.trace_overhead"] = traced_s / plain_s

        trips_s, _ = layers.span_total(trace, "datagen.trips")
        match_s, _ = layers.span_total(trace, "mapmatching.match_many")
        m["datagen.generate.ms_per_trip"] = \
            (trips_s - match_s) / inputs.MEGA_TRIPS * 1e3
        m["datagen.speed_matrix.s"] = \
            layers.span_total(trace, "datagen.speed_matrix")[0]
        m["datagen.storage.s"] = (
            layers.span_total(trace, "datagen.split")[0]
            + layers.span_self(trace, "datagen.build")
            + layers.span_total(trace, "datagen.reopen")[0])

        # Matching probes on the build's own raw trajectories: a serial
        # pass (the only one whose shortest-path calls can be counted —
        # forked pool workers cannot report back) and a pooled pass.
        probes = Tracer()
        counter.tracer = probes
        net = self.net
        serial = HMMMapMatcher(net)
        with counter.patched():
            with probes.span("mapmatching.match_many", jobs=1):
                t0 = time.perf_counter()
                results = match_many(serial, raws, jobs=1)
                serial_s = _seconds(t0)
        with probes.span("mapmatching.match_many", jobs=NPROC):
            t0 = time.perf_counter()
            pooled = match_many(HMMMapMatcher(net), raws, jobs=NPROC)
            pool_s = _seconds(t0)
        result.traces.append(probes.to_dict())
        result.attempted += 2 * len(raws)
        same = all(a.ok == b.ok and (not a.ok or a.trajectory.edge_ids
                                     == b.trajectory.edge_ids)
                   for a, b in zip(results, pooled))
        result.failed += int(not result.check(
            "pooled matching equals serial matching", same))
        stats = serial.cache_stats()
        m.update(counter.metrics())
        m["mapmatching.match.ms_per_trip"] = serial_s / len(raws) * 1e3
        m["mapmatching.matched_ratio"] = \
            sum(r.ok for r in results) / len(results)
        m["mapmatching.pool.speedup"] = serial_s / pool_s
        m["mapmatching.cache.sssp.hit_rate"] = stats["sssp"]["hit_rate"]
        m["mapmatching.cache.route.hit_rate"] = stats["route"]["hit_rate"]
        result.lines.append(
            f"matching probe: serial {serial_s:.3f} s, {NPROC} jobs "
            f"{pool_s:.3f} s over {len(raws)} trips")
        return result


# ----------------------------------------------------------------------
# train-mini
# ----------------------------------------------------------------------
def train(city: str, path: str, tracer=NULL_TRACER):
    """Spec -> dataset -> pretrain -> fit -> predictor -> artifact (the
    ``cli train`` path with no matcher); returns the trainer and the
    in-memory predictor."""
    dataset = build(DatasetSpec(city, num_trips=inputs.MINI_TRIPS),
                    tracer=tracer)
    config = DeepODConfig(epochs=inputs.TRAIN_EPOCHS,
                          use_external_features=True)
    model = build_deepod(dataset, config, tracer=tracer)
    trainer = DeepODTrainer(model, dataset, eval_every=0, tracer=tracer)
    trainer.fit(epochs=inputs.TRAIN_EPOCHS, track_validation=False)
    with tracer.span("core.calibrate"):
        predictor = TravelTimePredictor(trainer)
    with tracer.span("serving.artifact.save"):
        save_artifact(path, predictor)
    return trainer, predictor


class TrainMini:
    """Spec to reloaded artifact on a mini city, no matcher."""

    one_cpu = True

    def __init__(self, seed: int, workdir: str):
        self.cities, self.skipped = inputs.seeded_cities(inputs.MINI_CITY,
                                                         seed)
        self.workdir = workdir
        self.reps = 0

    def ready(self):
        DatasetSpec(self.cities[0], num_trips=inputs.MINI_TRIPS)
        DeepODConfig(epochs=inputs.TRAIN_EPOCHS)
        return lambda: None

    def job(self, tracer=NULL_TRACER, city: str = ""):
        path = os.path.join(self.workdir, f"artifact-{self.reps}")
        self.reps += 1
        gc.collect()    # each job starts from the same heap, not the last
        t0 = time.perf_counter()
        trainer, predictor = train(city or self.cities[0], path, tracer)
        with tracer.span("serving.artifact.load"):
            reloaded = load_artifact(path)
        elapsed = _seconds(t0)
        shutil.rmtree(path)
        return elapsed, trainer, predictor, reloaded

    def check(self, result: Result, trainer, predictor, reloaded) -> float:
        """Reload parity and a finite validation MAE, which it returns.

        The MAE is also compared with predicting the training mean, and
        the comparison is printed, not checked: a 2-epoch model does not
        beat that baseline on every generated city (it lost on 1 of 30
        seeded mini cities, 255.8 s against 224.1 s), and model quality
        is not what this workload measures.  The quality check is the
        same MAE from the same city (``_repeat_check``)."""
        ods = [t.od for t in inputs.held_out(predictor.dataset)]
        a = [e.seconds for e in predictor.estimate_from_ods(ods)]
        b = [e.seconds for e in reloaded.estimate_from_ods(ods)]
        if not result.check("reloaded artifact answers bitwise equal the "
                            "in-memory predictor", a == b,
                            f"{len(ods)} held-out ODs"):
            result.failed += 1
        mae = trainer.validation_mae()
        val = trainer.dataset.split.validation
        mean = np.mean([t.travel_time for t in trainer.dataset.split.train])
        baseline = float(np.mean([abs(t.travel_time - mean) for t in val]))
        if not result.check("validation MAE is finite", math.isfinite(mae),
                            f"{mae:.3f} s"):
            result.failed += 1
        result.lines.append(
            f"validation MAE {mae:.3f} s, predicting the train mean "
            f"{baseline:.3f} s" + ("" if mae < baseline else " (not beaten)"))
        return mae

    def measure(self, seconds: float) -> Result:
        result = Result()
        maes: Dict[str, List[float]] = {}

        def run_job(city: str) -> Tuple[float, int]:
            elapsed, *models = self.job(city=city)
            points = sum(len(t.raw) for t in models[1].dataset.trips)
            result.attempted += 1
            maes.setdefault(city, []).append(self.check(result, *models))
            return elapsed, points

        _measure_batch(result, seconds, self.cities, self.skipped,
                       run_job, inputs.MINI_TRIPS)
        _repeat_check(result, "a retrained city has the same validation "
                      "MAE", maes)
        for city in self.cities:
            result.lines.append(f"val_mae_s {city} {maes[city][0]!r}")
        return result

    def traced(self, seconds: float) -> Result:
        result = Result()
        before_s, before, *_ = self.job()
        before_mae = before.validation_mae()
        del before
        tracer = Tracer()
        counter = layers.CallCounter(tracer)
        with counter.patched():
            with tracer.span("bench.train-mini"):
                traced_s, trainer, predictor, reloaded = self.job(tracer)
        after_s, after, *_ = self.job()
        plain_s = (before_s + after_s) / 2
        result.attempted = 3
        mae = self.check(result, trainer, predictor, reloaded)
        maes = [before_mae, mae, after.validation_mae()]
        del after
        result.failed += int(not result.check(
            "the same city trained three times gives the same validation "
            "MAE", len(set(maes)) == 1, ", ".join(f"{v!r}" for v in maes)))
        trace = tracer.to_dict()
        result.traces.append(trace)
        _fill_layers(result, trace)
        m = result.metrics
        m.update(counter.metrics())
        m["obs.trace_overhead"] = traced_s / plain_s
        m["core.val_mae_s"] = mae

        total = layers.span_total
        trips_s = total(trace, "datagen.trips")[0]
        m["datagen.generate.ms_per_trip"] = \
            trips_s / inputs.MINI_TRIPS * 1e3
        m["datagen.speed_matrix.s"] = total(trace, "datagen.speed_matrix")[0]
        m["datagen.storage.s"] = (total(trace, "datagen.split")[0]
                                  + layers.span_self(trace, "datagen.build"))
        road = "pretrain.road_embedding"
        m["embedding.road.walks_s"] = total(trace, "embed.walks", road)[0]
        m["embedding.road.sgns_s"] = total(trace, "embed.sgns", road)[0]
        m["embedding.slot_s"] = total(trace, "pretrain.slot_embedding")[0]
        fit_s = total(trace, "train.fit")[0]
        steps = sum(s["attrs"].get("steps", 0)
                    for s in layers.iter_spans(trace)
                    if s["name"] == "forward")
        m["core.fit.s"] = fit_s
        m["core.fit.steps_per_s"] = steps / fit_s
        for phase in ("forward", "backward", "optimizer"):
            m[f"nn.{phase}_s"] = total(trace, phase)[0]
        m["core.calibrate_s"] = total(trace, "core.calibrate")[0]
        m["serving.artifact.save_s"] = total(trace,
                                             "serving.artifact.save")[0]
        m["serving.artifact.load_s"] = total(trace,
                                             "serving.artifact.load")[0]
        ods = [t.od for t in predictor.dataset.split.test]
        m["core.predict.ms_per_query"] = _predict_ms(predictor, ods)
        return result


def _predict_ms(predictor, ods, batch: int = 64, rounds: int = 5) -> float:
    """Model cost per query on pre-matched ODs (median of rounds)."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for lo in range(0, len(ods), batch):
            predictor.estimate_from_ods(ods[lo:lo + batch])
        times.append(_seconds(t0))
    return float(np.median(times)) / len(ods) * 1e3


def _route_ms(dataset, ods) -> float:
    baseline = RouteTimeBaseline(dataset.net, lambda: dataset.speed_store)
    t0 = time.perf_counter()
    baseline.estimate_from_ods(ods)
    return _seconds(t0) / len(ods) * 1e3


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class _Serve:
    """Shared open-loop measurement of the two serve workloads."""

    name = ""
    one_cpu = False

    def __init__(self, seed: int, workdir: str, artifact: str):
        self.seed = seed
        self.workdir = workdir
        self.artifact = artifact

    # -- per-workload hooks ---------------------------------------------
    def start(self):
        """Start the target; returns it."""
        raise NotImplementedError

    def make_loop(self, target) -> OpenLoop:
        raise NotImplementedError

    def check_answers(self, result: Result, loop: OpenLoop) -> None:
        raise NotImplementedError

    # -- shared ---------------------------------------------------------
    def ready(self):
        target = self.start()
        loop = self.make_loop(target)
        query = loop.make_query(time.perf_counter())
        answer = target.submit(query).result(timeout=60)
        if answer.degraded or not math.isfinite(answer.seconds):
            target.stop()
            raise RuntimeError(f"first answer unhealthy: {answer}")
        return target.stop

    def measure(self, seconds: float) -> Result:
        result = Result()
        target = self.start()
        rates: List[float] = []
        try:
            loop = self.make_loop(target)
            loop.rung(REF_RATE, WARM_S)
            loop.saturate(WARM_S, SATURATION_WINDOW)
            t0 = time.perf_counter()
            ref = loop.rung(REF_RATE, REF_RUNG_S)
            clock = hostspeed.Bracketed()
            while len(rates) < MIN_SEGMENTS or _seconds(t0) < seconds:
                rate = loop.saturate(SEGMENT_S, SATURATION_WINDOW)
                rates.append(rate / clock.scale())
            self.after_load(result, target, loop)
        finally:
            target.stop()
        rss = peak_rss_mb()     # before the checks load a second model
        result.attempted = len(loop.records)
        result.failed = loop.failed
        for error in loop.errors[:5]:
            result.lines.append(f"error: {error}")
        self.check_answers(result, loop)
        result.metrics.update(throughput_per_ref_s=float(np.median(rates)),
                              peak_rss_mb=rss)
        result.lines.append(f"reference rung {ref.row()}")
        result.lines.append("saturated (q/ref_s): " + ", ".join(
            f"{rate:.1f}" for rate in rates))
        result.lines.append(clock.speed_line())
        return result

    def after_load(self, result, target, loop) -> None:
        """Hook run while the target is still up (serve-live stats)."""

    def trace_on(self, target, tracer) -> None:
        target.tracer = tracer

    def traced(self, seconds: float) -> Result:
        """Untraced then traced reference rung; the workload trace holds
        the start-up and the traced rung (plus the threads it drove)."""
        result = Result()
        tracer = Tracer()
        probes = Tracer()
        with tracer.span("serving.start"):
            target = self.start()
        try:
            loop = self.make_loop(target)
            loop.rung(REF_RATE, WARM_S)
            ref_s = 0.4 * seconds
            plain = loop.rung(REF_RATE, ref_s)
            self.trace_on(target, tracer)
            with tracer.span("bench." + self.name):
                traced = loop.rung(REF_RATE, ref_s)
            self.trace_on(target, None)
            self.probe(result, target, loop, traced, tracer, probes)
        finally:
            target.stop()
        result.attempted = len(loop.records)
        result.failed = loop.failed
        self.check_answers(result, loop)
        trace = tracer.to_dict()
        result.traces += [trace, probes.to_dict()]
        _fill_layers(result, trace)
        m = result.metrics
        m["obs.trace_overhead"] = traced.p50_ms / plain.p50_ms
        m["serving.p50_ms"] = plain.p50_ms
        m["serving.p99_ms"] = plain.p99_ms
        m["loadgen.late_ms_p99"] = plain.late_p99_ms
        m["loadgen.backlog_end"] = float(plain.backlog_end)
        result.lines.append(f"untraced rung {plain.row()}")
        result.lines.append(f"traced rung   {traced.row()}")
        return result

    def probe(self, result, target, loop, traced_rung, tracer, probes):
        raise NotImplementedError


def _queries(records: np.ndarray) -> List[Query]:
    return [Query((r[0], r[1]), (r[2], r[3]), r[4]) for r in records]


def _serving_phase_metrics(m: Dict, trace: Dict, queries: int) -> None:
    for phase in ("match", "speed_slices", "predict"):
        seconds = layers.span_total(trace, f"serve.{phase}")[0]
        m[f"serving.{phase}.ms_per_query"] = seconds / queries * 1e3


class ServeHot(_Serve):
    """2-worker cluster, region routing, repeated held-out ODs."""

    name = "serve-hot"

    def start(self):
        config = ClusterConfig(num_workers=CLUSTER_WORKERS,
                               routing="region", max_pending=0)
        return ServingCluster(self.artifact, config=config).start()

    def make_loop(self, target) -> OpenLoop:
        stream = inputs.hot_queries(target.dataset, self.seed)
        return OpenLoop(target, lambda due: next(stream), LIMIT_MS)

    def check_answers(self, result: Result, loop: OpenLoop) -> None:
        """Every cluster answer equals the predictor's
        ``estimate_from_ods`` for the same query, as one local process
        computes it (the worker-count determinism invariant), up to
        float64 reassociation: the batches are composed differently."""
        predictor = load_artifact(self.artifact, dataset=loop.target.dataset)
        local = TravelTimeService(predictor)
        records = loop.records
        bad = 0
        for lo in range(0, len(records), 512):
            chunk = records[lo:lo + 512]
            want = local.query_batch(_queries(chunk))
            for row, exp in zip(chunk, want):
                if row[6] != 0 or not math.isclose(
                        row[5], exp.seconds, rel_tol=REL_TOL, abs_tol=0.0):
                    bad += 1
        result.failed += bad
        result.check("every cluster answer equals the predictor's "
                     "estimate_from_ods in one process", bad == 0,
                     f"{bad} of {len(records)} differ")

    def probe(self, result, target, loop, traced_rung, tracer, probes):
        m = result.metrics
        dataset = target.dataset
        health = target.health()
        per_shard = [h.get("queries", 0) for h in health]
        m["cluster.shard_skew"] = max(per_shard) / (np.mean(per_shard)
                                                    or 1.0)
        m["cluster.restarts"] = float(sum(h["restarts"] for h in health))
        batch = target.metrics.histogram("cluster.batch_size").summary()
        m["serving.batch_size.mean"] = batch["mean"]

        # Local replay of the workload's own queries through a traced
        # single-process service, in batches of the cluster's mean size:
        # the per-phase costs the workers pay, and their cache hit rates.
        predictor = load_artifact(self.artifact, dataset=dataset)
        local = TravelTimeService(predictor, tracer=probes)
        queries = _queries(loop.records)
        size = max(1, int(round(batch["mean"])))
        with probes.span("bench.local_replay"):
            for lo in range(0, len(queries), size):
                local.query_batch(queries[lo:lo + size])
        replay = probes.to_dict()
        _serving_phase_metrics(m, replay, len(queries))
        m["serving.cache.od.hit_rate"] = local.od_cache.hit_rate
        m["serving.cache.speed.hit_rate"] = local.slice_cache.hit_rate
        m["serving.cache.speed.invalidations"] = float(
            local.slice_cache.invalidations)

        # Cluster overhead: one fixed batch through the cluster minus the
        # same batch through the local service (medians of 20).
        fixed = queries[:64]
        spans = {}
        for name, runner in (("cluster", target), ("local", local)):
            runner.query_batch(fixed)
            times = []
            with probes.span(f"bench.fixed_batch.{name}"):
                for _ in range(20):
                    t0 = time.perf_counter()
                    runner.query_batch(fixed)
                    times.append(_seconds(t0))
            spans[name] = float(np.median(times))
        m["cluster.overhead_ms_per_batch"] = \
            (spans["cluster"] - spans["local"]) * 1e3
        ods = [predictor.match_query(*q) for q in queries[:512]]
        with probes.span("core.predict"):
            m["core.predict.ms_per_query"] = _predict_ms(predictor, ods)
        with probes.span("serving.route"):
            m["serving.route.ms_per_query"] = _route_ms(dataset, ods)


class _LiveFeed:
    """serve-live's event clock and speed publisher.

    Event time runs ``period / PERIOD_WALL_S`` times faster than wall
    time from the first held-out departure.  On every period boundary
    the generator thread replays the trips completed since the last
    tick through ``observe``, then publishes (``advance_to`` +
    ``apply_live_speeds``).
    """

    def __init__(self, service, dataset):
        self.service = service
        self.tracer = NULL_TRACER
        self.estimator = StreamingSpeedEstimator(dataset.net,
                                                 dataset.speed_store)
        self.done, self.trips = inputs.trip_tail(dataset)
        self.t0 = float(dataset.split.test[0].od.depart_time)
        self.horizon = dataset.horizon_seconds
        period = dataset.speed_store.config.period_seconds
        self.speed = period / PERIOD_WALL_S
        self.estimator.advance_to(self.t0)
        self.wall0 = time.perf_counter()
        self.next_tick = self.wall0 + PERIOD_WALL_S
        self.cursor = 0
        self.observe_s = 0.0
        self.observed = 0
        self.update_s: List[float] = []
        self.slices = 0

    def event_time(self, wall: float) -> float:
        return min(self.t0 + (wall - self.wall0) * self.speed,
                   self.horizon - 1.0)

    def tick(self, now: float) -> None:
        if now < self.next_tick:
            return
        self.next_tick += PERIOD_WALL_S * math.ceil(
            (now - self.next_tick) / PERIOD_WALL_S + 1e-9)
        t = self.event_time(now)
        end = int(np.searchsorted(self.done, t, side="right"))
        batch = self.trips[self.cursor:end]
        self.cursor = end
        t0 = time.perf_counter()
        with self.tracer.span("streaming.observe", trips=len(batch)):
            self.estimator.observe(batch)
        t1 = time.perf_counter()
        with self.tracer.span("streaming.publish"):
            published = self.estimator.advance_to(t)
            self.service.apply_live_speeds(dict(published))
        t2 = time.perf_counter()
        self.observe_s += t1 - t0
        self.observed += len(batch)
        self.update_s.append(t2 - t1)
        self.slices += len(published)


class ServeLive(_Serve):
    """Single-process service, never-repeating ODs, live speed writes."""

    name = "serve-live"
    one_cpu = True

    def start(self):
        predictor = load_artifact(self.artifact)
        return TravelTimeService(predictor,
                                 config=ServiceConfig(max_pending=0)).start()

    def make_loop(self, target) -> OpenLoop:
        self.feed = feed = _LiveFeed(target, target.dataset)
        points = inputs.random_points(target.dataset, self.seed, 1 << 17)
        counter = iter(range(len(points)))

        def make_query(due: float) -> Query:
            o, d = points[next(counter)]
            return Query(tuple(o), tuple(d), feed.event_time(due))

        return OpenLoop(target, make_query, LIMIT_MS, on_tick=feed.tick)

    def trace_on(self, target, tracer) -> None:
        target.tracer = tracer
        self.feed.tracer = tracer or NULL_TRACER

    def check_answers(self, result: Result, loop: OpenLoop) -> None:
        records = loop.records
        bad = int(np.sum((records[:, 6] != 0) | ~np.isfinite(records[:, 5])))
        result.failed += bad
        result.check("every answer is finite and from the model tier",
                     bad == 0, f"{bad} of {len(records)} not")
        result.check("live speed slices were published",
                     self.feed.slices > 0, f"{self.feed.slices} slices")

    def after_load(self, result, target, loop) -> None:
        feed = self.feed
        result.lines.append(
            f"publishes {len(feed.update_s)}, slices {feed.slices}, "
            f"update p90 {np.percentile(feed.update_s, 90) * 1e3:.3f} ms")

    def probe(self, result, target, loop, traced_rung, tracer, probes):
        m = result.metrics
        trace = tracer.to_dict()
        served = traced_rung.sent
        _serving_phase_metrics(m, trace, served)
        requests = [s for s in trace["spans"] if s["name"] == "serve.request"]
        batch_sizes = [s["attrs"]["queries"] for s in requests]
        m["serving.batch_size.mean"] = float(np.mean(batch_sizes))
        service_ms = float(np.mean([s["duration_s"] for s in requests])) * 1e3
        m["serving.queue_wait_ms.p50"] = traced_rung.p50_ms - service_ms
        m["serving.cache.od.hit_rate"] = target.od_cache.hit_rate
        m["serving.cache.speed.hit_rate"] = target.slice_cache.hit_rate
        m["serving.cache.speed.invalidations"] = float(
            target.metrics.counter("serve.cache.speed.invalidations").value)
        feed = self.feed
        m["streaming.observe.ms_per_trip"] = \
            feed.observe_s / max(feed.observed, 1) * 1e3
        m["streaming.publish.ms_per_slice"] = \
            sum(feed.update_s) / max(feed.slices, 1) * 1e3
        m["streaming.update_p90_ms"] = \
            float(np.percentile(feed.update_s, 90)) * 1e3
        m["streaming.slices_published"] = float(feed.slices)
        predictor = target.predictor
        ods = [predictor.match_query(*q)
               for q in _queries(loop.records[:512])]
        with probes.span("core.predict"):
            m["core.predict.ms_per_query"] = _predict_ms(predictor, ods)
        with probes.span("serving.route"):
            m["serving.route.ms_per_query"] = _route_ms(target.dataset, ods)


WORKLOADS = {"build-mega": BuildMega, "train-mini": TrainMini,
             "serve-hot": ServeHot, "serve-live": ServeLive}
