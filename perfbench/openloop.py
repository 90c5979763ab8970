"""Open-loop load driver: requests sent on a schedule, timed from when due.

Independent map-service users make an open loop: query ``i`` of a rung
is due at ``start + i / rate`` whether or not earlier ones have
finished.  One generator thread sleeps until each due instant and calls
``target.submit``; a completion callback stamps the answer.  Latency
runs from the *due* instant, so a stall also charges the queries that
had to wait behind it, and the generator's own lateness (send minus
due) is reported separately: a rung where the generator fell behind
while the system kept up is invalid, not a system failure.

A rung passes when it is valid, no query failed, p99 stays within the
latency limit and the backlog did not grow.

Capacity comes from ``saturate``, a closed loop that keeps a fixed
number of queries outstanding and counts completions per second.  (A
search for the highest open-loop rate whose p99 meets the limit turns a
10 % change in host speed into a 2-6x change of the rate found, so it
cannot be compared between runs on a shared machine.)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

# A rung stops sending once more than this many seconds of offered load
# are outstanding: the backlog is growing without bound.
ABORT_BACKLOG_S = 0.2
DRAIN_TIMEOUT_S = 60.0
# A rung's p99 is the median of the p99s of this many consecutive
# windows (each of at least MIN_WINDOW queries): one stall of the shared
# machine then moves one window, while a stall that recurs in most
# windows still counts.
P99_WINDOWS = 4
MIN_WINDOW = 100
# Upper bound on the rate ``saturate`` can reach (sizes its arrays).
MAX_RATE = 50000


@dataclass
class Rung:
    """What one fixed-rate stretch of the open loop measured."""

    rate: float
    limit_ms: float
    sent: int
    latency_ms: np.ndarray           # completed queries, in send order
    late_ms: np.ndarray              # generator lateness per send
    backlog_end: int                 # outstanding when sending stopped
    failed: int
    aborted: bool
    seconds: float

    @property
    def p50_ms(self) -> float:
        return float(np.percentile(self.latency_ms, 50))

    @property
    def p99_ms(self) -> float:
        """Windowed p99 (see ``P99_WINDOWS``)."""
        windows = min(P99_WINDOWS, len(self.latency_ms) // MIN_WINDOW)
        if windows < 2:
            return self.p99_all_ms
        return float(np.median([np.percentile(w, 99) for w in
                                np.array_split(self.latency_ms, windows)]))

    @property
    def p99_all_ms(self) -> float:
        return float(np.percentile(self.latency_ms, 99))

    @property
    def late_p99_ms(self) -> float:
        return float(np.percentile(self.late_ms, 99))

    @property
    def backlog_grew(self) -> bool:
        """More queued at the end than the limit lets the system
        answer in time, or the rung had to stop sending."""
        return self.aborted or \
            self.backlog_end > self.rate * self.limit_ms / 1e3 + 1

    @property
    def valid(self) -> bool:
        return self.backlog_grew or self.late_p99_ms <= self.limit_ms

    @property
    def ok(self) -> bool:
        return (self.valid and self.failed == 0 and not self.backlog_grew
                and self.p99_ms <= self.limit_ms)

    def row(self) -> str:
        verdict = ("pass" if self.ok else
                   "invalid (generator behind)" if not self.valid else
                   "fail")
        return (f"{self.rate:9.1f} q/s  sent {self.sent:6d}  "
                f"p50 {self.p50_ms:8.2f} ms  p99 {self.p99_ms:8.2f} ms "
                f"(all {self.p99_all_ms:8.2f})  "
                f"late p99 {self.late_p99_ms:7.2f} ms  "
                f"backlog {self.backlog_end:5d}  failed {self.failed}  "
                f"{verdict}")


class OpenLoop:
    """Drives ``target.submit`` on a schedule.

    ``make_query(due)`` builds the query due at ``due`` (perf_counter
    seconds).  ``on_tick(now)`` runs on the generator thread before each
    send — serve-live publishes speed slices from it, so writes delay
    reads exactly as they would in a single-threaded feeder.

    Every query and its answer are recorded for the correctness checks,
    but only into numpy arrays: retained Python objects would be promoted
    to the oldest GC generation and trigger full collections (pauses of
    ~100 ms over a loaded dataset) that the program alone would not.
    """

    def __init__(self, target, make_query: Callable[[float], object],
                 limit_ms: float,
                 on_tick: Optional[Callable[[float], None]] = None):
        self.target = target
        self.make_query = make_query
        self.limit_ms = limit_ms
        self.on_tick = on_tick
        self.errors: List[str] = []
        self.failed = 0
        self._records: List[np.ndarray] = []

    @property
    def records(self) -> np.ndarray:
        """One row per query sent: ``ox, oy, dx, dy, depart, seconds,
        degraded_tier`` (seconds NaN and tier -1 when unanswered)."""
        return np.concatenate(self._records) if self._records \
            else np.zeros((0, 7))

    def rung(self, rate: float, seconds: float) -> Rung:
        n = max(1, int(round(rate * seconds)))
        latency = np.full(n, np.nan)
        late = np.zeros(n)
        record = np.full((n, 7), np.nan)
        record[:, 6] = -1
        done = threading.Condition()
        outstanding = [0]
        errors: List[str] = []
        abort_at = rate * ABORT_BACKLOG_S + 64
        aborted = False

        def completed(future, i, due):
            latency[i] = time.perf_counter() - due
            exc = future.exception()
            if exc is None:
                response = future.result()
                record[i, 5] = response.seconds
                record[i, 6] = response.degraded_tier
            else:                        # the system failed this query
                errors.append(f"query {i} at {rate:.0f} q/s: {exc!r}")
            with done:
                outstanding[0] -= 1
                done.notify()

        start = time.perf_counter() + 0.005
        sent = 0
        for i in range(n):
            due = start + i / rate
            now = time.perf_counter()
            if self.on_tick is not None:
                self.on_tick(now)
                now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
                now = time.perf_counter()
            late[i] = now - due
            query = self.make_query(due)
            record[i, :2] = query.origin_xy
            record[i, 2:4] = query.destination_xy
            record[i, 4] = query.depart_time
            with done:
                outstanding[0] += 1
            self.target.submit(query).add_done_callback(
                lambda f, i=i, due=due: completed(f, i, due))
            sent += 1
            if outstanding[0] > abort_at:
                aborted = True
                break
        with done:
            backlog_end = outstanding[0]
            elapsed = time.perf_counter() - start
            done.wait_for(lambda: outstanding[0] == 0,
                          timeout=DRAIN_TIMEOUT_S)
            unanswered = outstanding[0]
        failed = len(errors) + unanswered
        self.failed += failed
        self.errors += errors
        if unanswered:
            self.errors.append(f"{unanswered} queries at {rate:.0f} q/s "
                               f"unanswered after {DRAIN_TIMEOUT_S:.0f} s")
        self._records.append(record[:sent])
        lat = latency[:sent]
        return Rung(rate=rate, limit_ms=self.limit_ms, sent=sent,
                    latency_ms=lat[~np.isnan(lat)] * 1e3,
                    late_ms=late[:sent] * 1e3, backlog_end=backlog_end,
                    failed=failed, aborted=aborted, seconds=elapsed)


    def saturate(self, seconds: float, window: int) -> float:
        """Closed loop for ``seconds``: a new query is sent whenever fewer
        than ``window`` are outstanding.  Returns completed queries per
        second while sending (the queries still outstanding at the end
        are answered and checked, not counted)."""
        cap = int(seconds * MAX_RATE) + window
        record = np.full((cap, 7), np.nan)
        record[:, 6] = -1
        done = threading.Condition()
        state = {"outstanding": 0, "completed": 0}
        errors: List[str] = []

        def completed(future, i):
            exc = future.exception()
            if exc is None:
                response = future.result()
                record[i, 5] = response.seconds
                record[i, 6] = response.degraded_tier
            else:
                errors.append(f"saturated query {i}: {exc!r}")
            with done:
                state["outstanding"] -= 1
                state["completed"] += 1
                done.notify()

        def has_room():
            return state["outstanding"] < window

        start = time.perf_counter()
        end = start + seconds
        sent = 0
        while sent < cap:
            now = time.perf_counter()
            if now >= end:
                break
            if self.on_tick is not None:
                self.on_tick(now)
            with done:
                if not done.wait_for(has_room, timeout=end - now):
                    continue
                state["outstanding"] += 1
            query = self.make_query(time.perf_counter())
            record[sent, :2] = query.origin_xy
            record[sent, 2:4] = query.destination_xy
            record[sent, 4] = query.depart_time
            self.target.submit(query).add_done_callback(
                lambda f, i=sent: completed(f, i))
            sent += 1
        with done:
            rate = state["completed"] / (time.perf_counter() - start)
            done.wait_for(lambda: state["outstanding"] == 0,
                          timeout=DRAIN_TIMEOUT_S)
            unanswered = state["outstanding"]
        self.failed += len(errors) + unanswered
        self.errors += errors
        if unanswered:
            self.errors.append(f"{unanswered} saturated queries unanswered "
                               f"after {DRAIN_TIMEOUT_S:.0f} s")
        self._records.append(record[:sent])
        return rate
