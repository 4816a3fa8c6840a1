"""Trace exporters: Chrome trace-event JSON and a plain-text summary.

The JSON exporter emits the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_:
a top-level object with a ``traceEvents`` list whose entries carry
``name``/``cat``/``ph``/``ts`` (µs) and, for complete events, ``dur``.

The text summary is the quick look: event counts per category, the
hottest ops by cumulative time, the health and histogram tables, and
counter totals.
"""

import json
import os
import threading

from .cli import stats_payload
from .health import HealthRegistry, format_health_table
from .metrics import METRICS, counter_values, format_histograms
from .tracer import TRACER

_PID = os.getpid()


def chrome_trace_events(tracer=None):
    """The ``traceEvents`` list for the buffered events."""
    tracer = tracer or TRACER
    tid_alias = {}
    out = [{
        "name": "process_name", "ph": "M", "ts": 0, "pid": _PID, "tid": 0,
        "args": {"name": "janus-repro"},
    }]
    for event in tracer.events:
        tid = tid_alias.setdefault(event.tid, len(tid_alias))
        record = {
            "name": event.name,
            "cat": event.category,
            "ph": event.ph,
            "ts": event.ts * 1e6,
            "pid": _PID,
            "tid": tid,
        }
        if event.ph == "X":
            record["dur"] = event.dur * 1e6
        elif event.ph == "i":
            record["s"] = "t"   # instant scope: thread
        if event.args:
            record["args"] = {k: _jsonable(v)
                              for k, v in event.args.items()}
        out.append(record)
    return out


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def write_chrome_trace(path, tracer=None, registry=None, recorder=None):
    """Write a ``chrome://tracing``-loadable JSON file; returns ``path``.

    ``otherData`` is the stats bundle of *registry* and *recorder*
    (:func:`repro.observability.cli.stats_payload`: the registry's
    snapshot, the health log, the flight recorder's exemplars), so a
    single trace file preserves the percentile and per-request data
    alongside the events.  Events emitted inside a request carry
    ``trace_id``/``span_id``/``parent_span`` args, so one serving
    request renders as a causally linked flow across threads.
    """
    payload = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": dict(stats_payload(registry, recorder),
                          tool="repro.observability"),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    _mark_written()
    return path


def text_summary(tracer=None, top=12, registry=None):
    """A human-readable digest of the buffered trace + counters.

    When latency histograms or speculation-health models were recorded
    (``JANUS_METRICS=1`` / ``set_metrics_enabled``), the summary also
    renders their tables; ``janus-stats`` renders the full post-mortem.
    """
    tracer = tracer or TRACER
    registry = METRICS if registry is None else registry
    events = tracer.events
    lines = ["== janus trace summary (level %d, %d buffered events) =="
             % (tracer.level, len(events))]

    by_category = {}
    for event in events:
        by_category.setdefault(event.category, []).append(event)
    if by_category:
        lines.append("-- events by category --")
        for category in sorted(by_category):
            members = by_category[category]
            total = sum(e.dur for e in members)
            lines.append("  %-18s %6d events  %9.3f ms total"
                         % (category, len(members), total * 1e3))

    ops = {}
    for event in events:
        if event.category in ("op", "pass", "level") and event.ph == "X":
            entry = ops.setdefault((event.category, event.name), [0, 0.0])
            entry[0] += 1
            entry[1] += event.dur
    if ops:
        lines.append("-- hottest timed spans (by cumulative time) --")
        ranked = sorted(ops.items(), key=lambda kv: -kv[1][1])[:top]
        for (category, name), (count, total) in ranked:
            lines.append("  %-28s %6d calls  %9.3f ms  (%8.2f us/call)"
                         % ("%s:%s" % (category, name), count, total * 1e3,
                            total / count * 1e6))

    health_lines = format_health_table(registry.view(HealthRegistry))
    if health_lines:
        lines.append("-- speculation health --")
        lines.extend(health_lines)
    hist_lines = format_histograms(registry)
    if hist_lines:
        lines.append("-- latency histograms --")
        lines.extend(hist_lines)

    counters = counter_values(registry)
    # Heap-read memo / write-barrier health is always reported (zeros
    # included): a zero memo_hit row on a tensor-attr workload is itself
    # the signal that the barrier is off or tracking is refusing.
    barrier = ("executor.memo_hit", "executor.memo_stale",
               "tensor.cow_copies")
    lines.append("-- heap-read memo / write barrier --")
    for name in barrier:
        lines.append("  %-40s %d" % (name, counters.get(name, 0)))
    generic = sorted(set(counters).difference(barrier))
    if generic:
        lines.append("-- counters --")
        for name in generic:
            lines.append("  %-40s %d" % (name, counters[name]))
    return "\n".join(lines)


# -- atexit auto-dump --------------------------------------------------------
#
# When tracing was enabled through the JANUS_TRACE environment variable,
# dump the trace on interpreter exit unless the program already exported
# one explicitly.  This is what makes
#   JANUS_TRACE=1 python examples/quickstart.py
# produce trace.json with no example-side code.

_written = False
_written_lock = threading.Lock()


def _mark_written():
    global _written
    with _written_lock:
        _written = True


def _atexit_dump():
    if _written or TRACER.level <= 0 or len(TRACER) == 0:
        return
    path = os.environ.get("JANUS_TRACE_FILE", "trace.json")
    try:
        write_chrome_trace(path)
    except OSError:
        return
    import sys
    print(text_summary(), file=sys.stderr)
    print("[janus-trace] wrote %s (load in chrome://tracing or "
          "https://ui.perfetto.dev)" % path, file=sys.stderr)


def install_atexit_dump():
    """Register the exit-time trace dump (idempotent)."""
    import atexit
    if not getattr(install_atexit_dump, "_installed", False):
        atexit.register(_atexit_dump)
        install_atexit_dump._installed = True
