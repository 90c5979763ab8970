"""The one bench-document format: shape check, gates, committed files.

``ci_verdict`` is exactly what each CI validation step runs on a
``BENCH_*.json`` file (``load_bench`` then ``failed_gates``); an empty
verdict passes.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    BENCH_SCHEMA, failed_gates, load_bench, measure, new_bench,
    validate_bench, write_bench,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def ci_verdict(path):
    try:
        return failed_gates(load_bench(str(path)))
    except ValueError as exc:
        return [str(exc)]


def good_doc():
    return new_bench(
        "lint_cache_speedup", {"files": 120},
        {"cold_s": measure(2.1, "s"), "warm_s": measure(0.03, "s"),
         "speedup": measure(70.0, "x", floor=5.0),
         "memory.ratio": measure(0.33, "ratio", ceiling=0.5),
         "findings": measure(0, "count")},
        checks={"warm_fully_cached": True, "fingerprint_equal": True})


def test_valid_document_round_trips(tmp_path):
    doc = good_doc()
    assert doc["schema"] == BENCH_SCHEMA
    assert validate_bench(doc) is doc
    path = write_bench(str(tmp_path / "BENCH_x.json"), doc)
    assert load_bench(path) == doc
    assert ci_verdict(path) == []


def test_host_and_measure_fields():
    doc = good_doc()
    assert doc["host"]["cpus"] >= 1
    assert isinstance(doc["host"]["python"], str)
    assert doc["host"]["numpy"] == np.__version__
    assert measure(3) == {"value": 3}
    entry = measure(np.float64(1.5), "s", floor=1.0)
    assert entry == {"value": 1.5, "unit": "s", "floor": 1.0}
    assert type(entry["value"]) is float


def _set_value(name, value):
    return lambda d: d["measurements"][name].update(value=value)


def _drop_gates(d):
    for entry in d["measurements"].values():
        entry.pop("floor", None)
        entry.pop("ceiling", None)
    d["checks"].clear()


@pytest.mark.parametrize("mutate,expected", [
    pytest.param(lambda d: d.update(schema="repro.bench.lint/v1"),
                 "schema must be", id="wrong schema"),
    pytest.param(lambda d: d.update(bench=""), "bench must be",
                 id="bench name missing"),
    pytest.param(lambda d: d["host"].pop("cpus"), "host.cpus",
                 id="host cpus missing"),
    pytest.param(lambda d: d["host"].update(cpus=0), "host.cpus",
                 id="host cpus zero"),
    pytest.param(_set_value("cold_s", "2.1"), "numeric value",
                 id="non-number value"),
    pytest.param(_set_value("cold_s", True), "numeric value",
                 id="boolean value"),
    pytest.param(_set_value("cold_s", math.nan), "numeric value",
                 id="non-finite value"),
    pytest.param(lambda d: d["measurements"]["findings"].pop("value"),
                 "numeric value", id="value missing"),
    pytest.param(_set_value("warm_s", -1.0), "negative",
                 id="negative value"),
    pytest.param(lambda d: d["measurements"]["speedup"].update(ceiling=9.0),
                 "allowed", id="floor and ceiling"),
    pytest.param(lambda d: d["measurements"]["speedup"].update(best=1),
                 "allowed", id="unknown measurement key"),
    pytest.param(lambda d: d["checks"].update(warm_fully_cached=1),
                 "true or false", id="non-boolean check"),
    pytest.param(_drop_gates, "no floor, ceiling or check", id="no gate"),
    pytest.param(_set_value("speedup", 4.9), "speedup 4.9 below floor 5",
                 id="floor breach"),
    pytest.param(_set_value("memory.ratio", 0.9),
                 "memory.ratio 0.9 above ceiling 0.5", id="ceiling breach"),
    pytest.param(lambda d: d["checks"].update(warm_fully_cached=False),
                 "check warm_fully_cached is false", id="false check"),
])
def test_rejects(tmp_path, mutate, expected):
    doc = good_doc()
    mutate(doc)
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(doc))
    verdict = ci_verdict(path)
    assert len(verdict) == 1 and expected in verdict[0], verdict


def test_every_failed_gate_is_listed():
    doc = good_doc()
    doc["measurements"]["speedup"]["value"] = 1.0
    doc["measurements"]["memory.ratio"]["value"] = 0.7
    doc["checks"].update(warm_fully_cached=False, fingerprint_equal=False)
    assert len(failed_gates(doc)) == 4


def test_write_refuses_an_invalid_document(tmp_path):
    doc = good_doc()
    del doc["host"]
    path = tmp_path / "BENCH_x.json"
    with pytest.raises(ValueError, match="host"):
        write_bench(str(path), doc)
    assert not path.exists()


# ----------------------------------------------------------------------
# The committed BENCH files.  Gate values are the full-scale ones every
# committed file is produced at; none of them may move.
COMMITTED = {
    "BENCH_datagen.json": ("datagen_pipeline", {
        "throughput.trips_per_s": ("floor", 40.0),
        "memory.ratio": ("ceiling", 0.5),
        "viterbi.speedup": ("floor", 3.0),
        "parallel.speedup": ("floor", 2.0),
    }, {"paths_identical", "fingerprint_equal"}),
    "BENCH_embedding.json": ("embedding_engine_speedup", {
        "speedup": ("floor", 10.0),
    }, {"same_walk_count"}),
    "BENCH_fit.json": ("fit_engine_speedup", {
        "speedup": ("floor", 3.0),
    }, {"phases_within_fit", "same_seed_mae"}),
    "BENCH_lint.json": ("lint_cache_speedup", {
        "speedup": ("floor", 5.0),
    }, {"cold_all_misses", "warm_fully_cached", "same_findings"}),
    "BENCH_serving.json": ("serving_load", {
        "overlap.speedup": ("floor", 2.0),
    }, set()),
}


def test_every_committed_bench_file_is_covered():
    assert sorted(p.name for p in REPO_ROOT.glob("BENCH_*.json")) \
        == sorted(COMMITTED)


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_committed_bench_file(name):
    doc = load_bench(str(REPO_ROOT / name))
    assert failed_gates(doc) == []
    bench, gates, checks = COMMITTED[name]
    assert doc["bench"] == bench
    if name == "BENCH_serving.json" and doc["host"]["cpus"] >= 4:
        gates = dict(gates, **{"model.speedup": ("floor", 2.0)})
    carried = {m: (kind, entry[kind])
               for m, entry in doc["measurements"].items()
               for kind in ("floor", "ceiling") if kind in entry}
    assert carried == gates
    assert set(doc["checks"]) == checks
