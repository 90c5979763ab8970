"""Host-speed reference: timings in reference units instead of raw seconds.

The benchmark runs on shared virtual machines whose CPU speed drifts by
±25 % over a few seconds (a fixed pure-Python loop took 19-30 ms in
consecutive 5 s windows on a 2-vCPU Xeon VM, with CPU time equal to wall
time, so the drift is not hypervisor steal).  A median over a run cannot
remove drift that lasts longer than the run, so runs made a minute apart
disagree by more than any useful bound.

Every gated timing is therefore bracketed by probes of a fixed unit of
benchmark-owned work (interpreter loops, a heap, a dict, a cache-missing
gather and small numpy kernels: the mix the program runs) and reported
as ``raw * NOMINAL_S / probe``: the time the program would have taken
had the host run the probe in exactly ``NOMINAL_S``.  On the same VM the
ratio of a serving batch to a probe stayed within ±3 % across 5 s
windows while both raw timings moved ±14 %.  The program never runs the
probe's code, so a change to the program moves the normalised figure
exactly as it moves the raw one.

Time the hypervisor ran other guests (steal, up to 15 % of a run on that
VM) is not the program's either: each step's wall time loses the steal
its CPUs accrued meanwhile (``/proc/stat``), and the probe is timed in
thread CPU time, which excludes steal.

The probe times the CPU it runs on; the two vCPUs of that VM drift
independently (their speeds did not correlate), so single-process
workloads run pinned to one CPU with their probes.
"""

from __future__ import annotations

import heapq
import os
import statistics
import time

import numpy as np

# One probe = the median of UNITS runs of ``_unit``.  NOMINAL_S is the
# unit's median on the VM above, so one reference second is about one
# second of that VM.
UNITS = 9
NOMINAL_S = 0.0066
_HZ = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100

_RNG = np.random.default_rng(7)
_SORT = _RNG.random(20000)
_MAT = _RNG.random((48, 48))
_BIG = _RNG.random(2_000_000)            # 16 MB: gathers miss the caches
_GATHER = _RNG.integers(0, len(_BIG), 60000)
_KEYS = [float(x) for x in _RNG.random(3000)]


def _unit() -> int:
    """Interpreter arithmetic, a heap and a dict (the shape of the
    program's shortest-path and matching loops), a cache-missing gather
    and small dense kernels."""
    s = 0
    for i in range(10000):
        s += i * i
    heap: list = []
    for i, key in enumerate(_KEYS):
        heapq.heappush(heap, (key, i))
    seen = {}
    while heap:
        key, i = heapq.heappop(heap)
        seen[i] = key
    _BIG[_GATHER].sum()
    np.sort(_SORT)
    m = _MAT
    for _ in range(15):
        m = np.tanh(m @ _MAT)
    return s


def probe() -> float:
    """CPU seconds one reference unit takes on the host right now (CPU
    time of this thread, so time the hypervisor gave to other guests
    does not count)."""
    times = []
    for _ in range(UNITS):
        t0 = time.thread_time()
        _unit()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def stolen_seconds(cpus) -> float:
    """Steal time of ``cpus`` since boot, averaged over them: how long
    the hypervisor ran other guests while these vCPUs had work.  0 where
    ``/proc/stat`` does not exist."""
    try:
        with open("/proc/stat") as handle:
            ticks = [int(line.split()[8]) for line in handle
                     if line.startswith("cpu") and line[3].isdigit()
                     and int(line.split()[0][3:]) in cpus]
    except OSError:
        return 0.0
    return sum(ticks) / _HZ / max(len(ticks), 1)


class Bracketed:
    """Times steps between probes.  ``scale()`` after each step gives the
    factor that turns its wall seconds into reference seconds: the time
    the hypervisor held the process's CPUs back during the step comes
    off, and the rest is scaled by the probes just before and after."""

    def __init__(self):
        self.cpus = os.sched_getaffinity(0)
        self.last = probe()
        self.probes = [self.last]
        self.steal_shares: list = []
        self._start()

    def _start(self) -> None:
        self.t0 = time.perf_counter()
        self.steal0 = stolen_seconds(self.cpus)

    def scale(self) -> float:
        wall = time.perf_counter() - self.t0
        stolen = stolen_seconds(self.cpus) - self.steal0
        share = min(max(stolen / wall, 0.0), 0.9) if wall > 0 else 0.0
        before, self.last = self.last, probe()
        self.probes.append(self.last)
        self.steal_shares.append(share)
        self._start()
        return NOMINAL_S / ((before + self.last) / 2) * (1.0 - share)

    def speed_line(self) -> str:
        """Human-readable summary: how fast the host ran in this run."""
        ms = [p * 1e3 for p in self.probes]
        steal = self.steal_shares or [0.0]
        return (f"host probe {statistics.median(ms):.3f} ms median "
                f"(min {min(ms):.3f}, max {max(ms):.3f}, {len(ms)} probes; "
                f"nominal {NOMINAL_S * 1e3:.3f} ms); steal share "
                f"{statistics.mean(steal):.3f} mean, {max(steal):.3f} max "
                f"over {len(self.steal_shares)} steps")
