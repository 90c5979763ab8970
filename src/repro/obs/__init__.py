"""Unified observability layer: tracing spans, shared metrics, hooks.

The measurement substrate behind the paper's efficiency claims
(Section 6.5, Table 5: per-query estimation time, per-epoch training
time) and behind every later perf PR.  Three pieces:

``tracing``
    :class:`Tracer` — nestable, thread-safe ``span(name, **attrs)``
    context managers producing a structured span tree, exportable as
    JSON and as a flame-style text summary.  The shared
    :data:`NULL_TRACER` keeps uninstrumented runs at zero cost.
``metrics``
    :class:`Counter` / :class:`Histogram` / :class:`MetricsRegistry`,
    shared by serving, the trainer and the sweep executor so they feed
    one registry; ``global_registry()`` is the process-wide default.
``instrument``
    The :class:`Instrumented` mixin and :func:`traced` decorator that
    wire spans into hot paths without per-class plumbing.

``schema`` validates both export formats fail-closed (the CI obs-smoke
job and the golden tests call it).  ``bench`` owns the one
``BENCH_*.json`` document format (``repro.bench/v1``) every benchmark
writes and CI re-checks.  Everything is stdlib + numpy.
"""

from .bench import (
    BENCH_SCHEMA, failed_gates, load_bench, measure, new_bench,
    validate_bench, write_bench,
)
from .instrument import Instrumented, traced
from .metrics import (
    Counter, Histogram, MetricsRegistry, global_registry,
    reset_global_registry,
)
from .schema import (
    validate_metrics_file, validate_metrics_snapshot, validate_trace,
    validate_trace_file,
)
from .tracing import NULL_TRACER, TRACE_SCHEMA, Span, Tracer

__all__ = [
    "BENCH_SCHEMA", "failed_gates", "load_bench", "measure", "new_bench",
    "validate_bench", "write_bench",
    "Instrumented", "traced",
    "Counter", "Histogram", "MetricsRegistry",
    "global_registry", "reset_global_registry",
    "validate_metrics_file", "validate_metrics_snapshot",
    "validate_trace", "validate_trace_file",
    "NULL_TRACER", "TRACE_SCHEMA", "Span", "Tracer",
]
