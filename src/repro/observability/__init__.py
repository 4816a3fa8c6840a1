"""Runtime observability for the JANUS reproduction.

Structured event tracing, one metrics registry, and exporters that make
the speculate → guard → fallback → relax lifecycle visible:

* :mod:`repro.observability.tracer` — ring-buffered :class:`TraceEvent`
  recorder with level gating (``JANUS_TRACE`` / ``set_trace_level``),
* :mod:`repro.observability.metrics` — the one registry
  (:data:`METRICS`) of typed, labelled instruments: counters
  (:data:`COUNTERS` is its ``janus_counter_total{name}`` family),
  gauges, log-bucket histograms with p50/p95/p99 and windowed
  histograms; it owns the only snapshot / restore / clear
  (``JANUS_METRICS`` / ``set_metrics_enabled`` gate the latency and
  health sites),
* :mod:`repro.observability.reqtrace` — request-scoped tracing: a
  contextvar-carried :class:`RequestContext` links every event a
  served request touches under one trace id, and the
  :class:`FlightRecorder` retains slowest/failed request exemplars,
* :mod:`repro.observability.health`, :mod:`~repro.observability.serving`,
  :mod:`~repro.observability.diskcache` — *views* over the registry:
  per-``janus.function``, per-assumption-site speculation health
  (state, hit ratio, failure and relax chains, measured
  fallback/recompile cost), serving SLOs, disk-cache traffic,
* :mod:`repro.observability.export` — ``chrome://tracing`` JSON and a
  plain-text summary,
* :mod:`repro.observability.cli` / ``python -m repro.observability.stats``
  — the ``janus-stats`` diagnostics report + Prometheus text exporter,
* :mod:`repro.observability.httpstat` — a live HTTP scrape endpoint
  (``/metrics``, ``/health``, ``/requests``) for serving workers,
* :mod:`repro.observability.demo` — ``python -m repro.observability.demo``
  runs a small training loop with tracing on and writes ``trace.json``.

Quick use::

    JANUS_TRACE=1 python examples/quickstart.py   # writes trace.json on exit

or programmatically::

    from repro import observability as obs
    obs.set_trace_level(2)
    train_step(x, y)
    print(obs.text_summary())
    obs.write_chrome_trace("trace.json")

See ``docs/observability.md`` for the full guide and
``docs/architecture.md`` for where each event category is emitted.
"""

from .tracer import (TRACER, CATEGORIES, TraceEvent, Tracer, get_tracer,
                     override_level, set_trace_level, trace_level)
from .metrics import (COUNTERS, METRICS, Histogram, Registry,
                      WindowedHistogram, counter_values,
                      set_metrics_enabled)
from .health import HEALTH, HealthRegistry
from .serving import SERVING, ServingStats
from .diskcache import DISKCACHE, DiskCacheStats
from . import reqtrace
from .reqtrace import (RECORDER, FlightRecorder, RequestContext,
                       get_flight_recorder)
from .export import (chrome_trace_events, install_atexit_dump, text_summary,
                     write_chrome_trace)
from .cli import (StatsBundle, load_stats, prometheus_text, render_report,
                  write_stats_json)

__all__ = [
    "TRACER", "CATEGORIES", "TraceEvent", "Tracer", "get_tracer",
    "override_level", "set_trace_level", "trace_level",
    "COUNTERS", "METRICS", "Histogram", "Registry", "WindowedHistogram",
    "counter_values", "set_metrics_enabled",
    "HEALTH", "HealthRegistry",
    "SERVING", "ServingStats",
    "DISKCACHE", "DiskCacheStats",
    "RECORDER", "FlightRecorder", "RequestContext", "get_flight_recorder",
    "reqtrace",
    "chrome_trace_events", "install_atexit_dump", "text_summary",
    "write_chrome_trace",
    "StatsBundle", "load_stats", "prometheus_text", "render_report",
    "write_stats_json",
    "clear",
]


def clear():
    """Reset the tracer buffer, every instrument of the metrics registry
    (in place: bound handles keep recording) and the flight recorder."""
    TRACER.clear()
    METRICS.clear()
    RECORDER.clear()


# Env-var-enabled tracing dumps the trace at interpreter exit.
if TRACER.level > 0:
    install_atexit_dump()
