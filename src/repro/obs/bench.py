"""The one ``BENCH_*.json`` document format (schema ``repro.bench/v1``).

Envelope: ``schema``, ``bench`` (name), ``created_unix``, ``host``
(``cpus``, ``python``, ``numpy``), a free-form ``workload``,
``measurements`` (name -> ``{"value", "unit"?, "floor" | "ceiling"?}``)
and ``checks`` (name -> parity bit).  A floor, a ceiling or a check is a
*gate*; a document must carry at least one.  :func:`validate_bench` is
the fail-closed shape check and :func:`failed_gates` lists the gates a
document misses; CI runs both on every bench file.  Stdlib only.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from typing import Dict, List, Optional

BENCH_SCHEMA = "repro.bench/v1"

__all__ = ["BENCH_SCHEMA", "failed_gates", "load_bench", "measure",
           "new_bench", "validate_bench", "write_bench"]

_GATES = ("floor", "ceiling")
_MEASUREMENT_KEYS = {"value", "unit", *_GATES}


def measure(value, unit: Optional[str] = None, *,
            floor: Optional[float] = None,
            ceiling: Optional[float] = None) -> Dict:
    """One measurement entry; ``floor``/``ceiling`` make it a gate."""
    entry = {"value": value if isinstance(value, int) else float(value),
             "unit": unit, "floor": floor, "ceiling": ceiling}
    return {key: item for key, item in entry.items() if item is not None}


def new_bench(bench: str, workload: Dict, measurements: Dict,
              checks: Optional[Dict] = None) -> Dict:
    """A validated document stamped with the time and this host."""
    from importlib.metadata import version  # ~2 MB: only benches pay it
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return validate_bench({
        "schema": BENCH_SCHEMA,
        "bench": bench,
        "created_unix": time.time(),  # repro: allow[D003] benchmark-result timestamp for cross-run trend reading, not a deterministic code path
        "host": {"cpus": cpus, "python": platform.python_version(),
                 "numpy": version("numpy")},
        "workload": dict(workload),
        "measurements": dict(measurements),
        "checks": {name: bool(bit) for name, bit in (checks or {}).items()},
    })


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def validate_bench(doc: Dict) -> Dict:
    """Fail-closed shape check; returns ``doc`` or raises ``ValueError``."""
    _require(isinstance(doc, dict), "bench document must be a JSON object")
    _require(doc.get("schema") == BENCH_SCHEMA,
             f"schema must be {BENCH_SCHEMA!r} (got {doc.get('schema')!r})")
    _require(isinstance(doc.get("bench"), str) and doc["bench"] != "",
             "bench must be a non-empty string")
    _require(_is_number(doc.get("created_unix")),
             "created_unix must be a number")
    host = doc.get("host")
    _require(isinstance(host, dict) and _is_number(host.get("cpus"))
             and isinstance(host["cpus"], int) and host["cpus"] >= 1,
             f"host.cpus must be a positive integer (host: {host!r})")
    _require(all(isinstance(host.get(k), str) for k in ("python", "numpy")),
             "host.python and host.numpy must be version strings")
    for key in ("workload", "measurements", "checks"):
        _require(isinstance(doc.get(key), dict), f"{key} must be an object")
    for name, entry in doc["measurements"].items():
        _require(isinstance(entry, dict) and _is_number(entry.get("value")),
                 f"measurement {name!r} needs a numeric value")
        _require(entry["value"] >= 0, f"measurement {name!r} is negative")
        _require(set(entry) <= _MEASUREMENT_KEYS
                 and not set(_GATES) <= set(entry)
                 and isinstance(entry.get("unit", ""), str)
                 and all(_is_number(entry[g]) for g in _GATES if g in entry),
                 f"measurement {name!r} has keys {sorted(entry)}; allowed: "
                 "value, unit (string), floor or ceiling (number)")
    for name, bit in doc["checks"].items():
        _require(isinstance(bit, bool),
                 f"check {name!r} must be true or false")
    gates = sum(g in entry for entry in doc["measurements"].values()
                for g in _GATES)
    _require(gates + len(doc["checks"]) > 0,
             "bench document carries no floor, ceiling or check")
    return doc


def failed_gates(doc: Dict) -> List[str]:
    """Every floor missed, ceiling broken or check false in ``doc``."""
    failures = []
    for name, entry in validate_bench(doc)["measurements"].items():
        value = entry["value"]
        if value < entry.get("floor", value):
            failures.append(f"{name} {value:g} below floor {entry['floor']:g}")
        if value > entry.get("ceiling", value):
            failures.append(
                f"{name} {value:g} above ceiling {entry['ceiling']:g}")
    return failures + [f"check {name} is false"
                       for name, bit in doc["checks"].items() if not bit]


def write_bench(path: str, doc: Dict) -> str:
    """Validate and write ``doc`` as indented JSON; returns ``path``."""
    validate_bench(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return path


def load_bench(path: str) -> Dict:
    """Read and validate a bench document (the CI entry point)."""
    with open(path) as handle:
        return validate_bench(json.load(handle))
