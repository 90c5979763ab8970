"""Incremental lint cache: warm re-lints must be >= 5x faster than cold.

A cold ``lint_project`` over ``src/repro`` parses every file and runs
the full rule set; a warm run only re-hashes file contents, rebuilds
the project graph from cached :class:`~repro.analysis.graph.ModuleRecord`
entries, and re-runs the (parse-free) A-series rules.  The wall-time
ratio is the whole point of the cache, so it is asserted, not just
reported.

Results land in ``BENCH_lint.json`` at the repo root (``repro.obs.bench``
format).  Its checks: the cold run parsed every file
(``cold_all_misses``), the warm run parsed none
(``warm_fully_cached``), and both found the same findings
(``same_findings``).
"""

import time
from pathlib import Path

from repro.analysis import lint_project
from repro.obs import failed_gates, measure, new_bench, write_bench

from .conftest import print_header

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
RESULTS_PATH = REPO_ROOT / "BENCH_lint.json"

FLOOR = 5.0


def _timed_lint(cache_path: str):
    t0 = time.perf_counter()
    result = lint_project([SRC_REPRO], cache_path=cache_path)
    return time.perf_counter() - t0, result


def test_lint_cache_speedup(tmp_path):
    cache_path = str(tmp_path / ".reprolint-cache.json")

    cold_s, cold = _timed_lint(cache_path)

    # Best of three warm runs: the warm path is pure hashing + cached
    # record replay, short enough that scheduler jitter matters.
    warm_s, warm = _timed_lint(cache_path)
    for _ in range(2):
        again_s, again = _timed_lint(cache_path)
        if again_s < warm_s:
            warm_s, warm = again_s, again

    speedup = cold_s / max(warm_s, 1e-9)

    print_header("reprolint — incremental cache, cold vs warm")
    print(f"{cold.stats['files']} files under src/repro")
    print(f"cold: {cold_s * 1e3:8.1f} ms  (parse + all rules)")
    print(f"warm: {warm_s * 1e3:8.1f} ms  (hash + cached records)")
    print(f"speedup: {speedup:.1f}x (floor {FLOOR:.0f}x)")

    measurements = {
        "cold_s": measure(cold_s, "s"),
        "warm_s": measure(warm_s, "s"),
        "speedup": measure(speedup, "x", floor=FLOOR),
        "findings": measure(len(cold.findings), "count"),
    }
    for phase, result in (("cold", cold), ("warm", warm)):
        for key in ("cache_hits", "cache_misses"):
            measurements[f"{phase}.{key}"] = measure(result.stats[key],
                                                     "count")
    files = cold.stats["files"]
    doc = new_bench(
        "lint_cache_speedup", {"files": files, "root": "src/repro"},
        measurements,
        checks={
            "cold_all_misses": (cold.stats["cache_hits"] == 0
                                and cold.stats["cache_misses"] == files > 0),
            "warm_fully_cached": (warm.stats["cache_hits"] == files
                                  and warm.stats["cache_misses"] == 0),
            # The cache is an accelerator, not a source of truth.
            "same_findings": ([f.to_dict() for f in warm.findings]
                              == [f.to_dict() for f in cold.findings]),
        })
    write_bench(str(RESULTS_PATH), doc)
    assert not failed_gates(doc), failed_gates(doc)
