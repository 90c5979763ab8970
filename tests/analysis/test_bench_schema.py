"""BENCH_lint.json in the ``repro.bench/v1`` envelope: a document shaped
like the lint cache bench's passes the CI verdict (``load_bench`` then
``failed_gates``), and each lint rule that fails makes the verdict fail.

``lint_checks`` derives the bench's parity checks from its counters the
way ``benchmarks/test_lint_speed.py`` does, so a broken counter shows up
as a false check.
"""

import json

import pytest

from repro.obs import failed_gates, load_bench, measure, new_bench
from tests.obs.test_bench import ci_verdict


def lint_checks(doc):
    value = {name: entry["value"]
             for name, entry in doc["measurements"].items()}
    files = doc["workload"]["files"]
    return {
        "cold_all_misses": (value["cold.cache_hits"] == 0
                            and value["cold.cache_misses"] == files > 0),
        "warm_fully_cached": (value["warm.cache_hits"] == files
                              and value["warm.cache_misses"] == 0),
        "same_findings": True,
    }


def good_payload():
    doc = new_bench(
        "lint_cache_speedup", {"files": 120, "root": "src/repro"},
        {"cold_s": measure(2.1, "s"), "warm_s": measure(0.03, "s"),
         "speedup": measure(70.0, "x", floor=5.0),
         "findings": measure(0, "count"),
         "cold.cache_hits": measure(0, "count"),
         "cold.cache_misses": measure(120, "count"),
         "warm.cache_hits": measure(120, "count"),
         "warm.cache_misses": measure(0, "count")})
    doc["checks"] = lint_checks(doc)
    return doc


def test_good_payload_validates():
    payload = good_payload()
    assert all(payload["checks"].values())
    assert failed_gates(payload) == []


def test_file_entry_point(tmp_path):
    path = tmp_path / "BENCH_lint.json"
    path.write_text(json.dumps(good_payload()))
    assert load_bench(str(path))["workload"]["files"] == 120
    assert ci_verdict(path) == []


def _set(name, value):
    return lambda p: p["measurements"][name].update(value=value)


@pytest.mark.parametrize("label,mutate", [
    ("wrong schema", lambda p: p.update(schema="repro.bench.lint/v0")),
    ("files zero", lambda p: p["workload"].update(files=0)),
    ("negative time", _set("warm_s", -1)),
    ("cold had hits", _set("cold.cache_hits", 1)),
    ("warm not fully cached", _set("warm.cache_hits", 2)),
    ("speedup below floor", _set("speedup", 4.9)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_rejects(tmp_path, label, mutate):
    payload = good_payload()
    mutate(payload)
    payload["checks"] = lint_checks(payload)
    path = tmp_path / "BENCH_lint.json"
    path.write_text(json.dumps(payload))
    assert ci_verdict(path) != []
