"""Open-loop harness: every answered query's latency is in the summary."""

import threading
import time
from concurrent.futures import Future
from types import SimpleNamespace

from repro.obs import MetricsRegistry
from repro.serving.cluster import run_open_loop


class SlowCallbackTarget:
    """Futures that resolve 10 ms after ``submit`` on a timer thread and
    carry a slow done-callback registered before the harness's own — the
    order a ``ServingCluster`` future has (its latency histogram's
    callback comes first).  ``set_result`` wakes ``result()`` waiters
    before it runs either callback."""

    def __init__(self):
        self.timers = []

    def submit(self, query):
        future = Future()
        future.add_done_callback(lambda f: time.sleep(0.2))
        timer = threading.Timer(0.01, future.set_result,
                                args=(SimpleNamespace(degraded=False),))
        self.timers.append(timer)
        timer.start()
        return future


def test_latencies_recorded_before_summary():
    target = SlowCallbackTarget()
    registry = MetricsRegistry()
    try:
        report = run_open_loop(target, [object()] * 8, rps=1000.0,
                               metrics=registry, timeout_s=10.0)
        hist = registry.histogram("loadtest.latency_ms")
        assert report["answered"] == 8
        assert hist.count == 8
        assert report["latency_ms"]["count"] == 8
        # The slow callback ran first, so each latency includes it.
        assert report["latency_ms"]["p50"] >= 200.0
    finally:
        for timer in target.timers:
            timer.join(timeout=10.0)
    assert not any(timer.is_alive() for timer in target.timers)
