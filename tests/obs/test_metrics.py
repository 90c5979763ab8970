"""Promoted metrics registry and the global default."""

import sys

from repro.obs import (
    Instrumented, NULL_TRACER, Tracer, global_registry,
    reset_global_registry, traced,
)


class TestGlobalRegistry:
    def test_global_registry_is_process_shared(self):
        registry = reset_global_registry()
        assert global_registry() is registry
        global_registry().counter("shared").inc(2)
        assert registry.counter("shared").value == 2

    def test_reset_swaps_in_a_fresh_registry(self):
        old = global_registry()
        old.counter("stale").inc()
        new = reset_global_registry()
        assert new is not old
        assert "stale" not in new.snapshot()["counters"]
        # The old registry is untouched, just no longer the default.
        assert old.counter("stale").value == 1


class TestDeprecationShim:
    def test_serving_package_import_does_not_warn(self):
        # Importing the serving package must stay quiet.
        import warnings

        for name in [m for m in sys.modules
                     if m == "repro.serving"
                     or m.startswith("repro.serving.")]:
            sys.modules.pop(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro.serving  # noqa: F401


class _Widget(Instrumented):
    @traced()
    def ping(self):
        return "pong"

    @traced("widget.custom", flavour="x")
    def custom(self):
        return self.tracer.current()


class TestInstrumented:
    def test_tracer_defaults_to_null(self):
        widget = _Widget()
        assert widget.tracer is NULL_TRACER
        assert widget.ping() == "pong"

    def test_setting_none_restores_null(self):
        widget = _Widget()
        widget.tracer = Tracer()
        widget.tracer = None
        assert widget.tracer is NULL_TRACER

    def test_set_tracer_is_fluent(self):
        tracer = Tracer()
        widget = _Widget().set_tracer(tracer)
        assert widget.tracer is tracer

    def test_traced_opens_named_spans(self):
        tracer = Tracer()
        widget = _Widget().set_tracer(tracer)
        assert widget.ping() == "pong"
        span = widget.custom()
        assert span.name == "widget.custom"
        assert span.attrs == {"flavour": "x"}
        assert [r.name for r in tracer.roots] == [
            "_Widget.ping", "widget.custom"]
