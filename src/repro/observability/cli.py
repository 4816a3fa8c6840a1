"""``janus-stats`` — the speculation-health diagnostics report.

Run as ``python -m repro.observability.stats``.  The report answers the
questions flat counters cannot: per-function graph-hit ratio and
convergence state, per-site assumption-failure counts with their relax
chains and measured fallback/recompile cost (from the health view's
event log), the flight recorder's slowest/failed request exemplars —
then every sample of the registry, by kind: counters, gauges, and
histograms with their p50/p95/p99 and, for a windowed family, the
trailing window.

Input is either the **live registry** (rendered in-process — useful from
a REPL or when a training script calls :func:`render_report` directly)
or a **saved stats JSON** produced by :func:`write_stats_json` (the demo
writes one; any program can).  The ``--prometheus`` flag instead emits
the registry in the Prometheus text exposition format; ``--requests``
dumps the flight recorder's post-mortem exemplars.

:func:`load_stats` returns a :class:`StatsBundle` — the restored
registry plus its views by name (``bundle.serving.rejection_rate``).

Typical uses::

    # post-mortem on a saved run
    python -m repro.observability.stats --input stats.json

    # one function's "why is this not converged" detail
    python -m repro.observability.stats --input stats.json --function step

    # scrape-format metrics
    python -m repro.observability.stats --input stats.json --prometheus

    # flight-recorder exemplars (slowest + failed/fallback requests)
    python -m repro.observability.stats --input stats.json --requests

    # CI smoke: exit non-zero unless health + histograms are populated
    python -m repro.observability.stats --input stats.json --check

For a *live* scrape target (no JSON hop), run the serving process with
``python -m repro.observability.httpstat`` — it serves ``/metrics``
(this module's Prometheus text), ``/health``, and ``/requests``.
"""

import argparse
import json
import sys

from .diskcache import DiskCacheStats
from .health import HealthRegistry, format_health_table
from .metrics import (COUNTER, GAUGE, HISTOGRAM, METRICS, WINDOWED,
                      Registry, sample_name)
from .reqtrace import RECORDER, FlightRecorder
from .serving import ServingStats

#: Saved-stats file format tag (bump on incompatible change).
STATS_FORMAT = "janus-stats/2"


class StatsBundle:
    """A metrics registry, its views by name, and the flight recorder.

    The views are the ones over ``bundle.registry`` — live
    (:meth:`live`) or restored from a saved bundle (:func:`load_stats`)
    — so derived signals read the same way on both:
    ``bundle.serving.rejection_rate``.
    """

    def __init__(self, registry, requests):
        self.registry = registry
        self.health = registry.view(HealthRegistry)
        self.serving = registry.view(ServingStats)
        self.diskcache = registry.view(DiskCacheStats)
        self.requests = requests

    @classmethod
    def live(cls):
        """The process-wide registry and recorder as one bundle."""
        return cls(METRICS, RECORDER)


# -- persistence -------------------------------------------------------------

def stats_payload(registry=None, recorder=None):
    """The JSON-serializable stats bundle for *registry* (default: the
    live one) and *recorder*."""
    registry = METRICS if registry is None else registry
    recorder = RECORDER if recorder is None else recorder
    return {
        "format": STATS_FORMAT,
        "registry": registry.snapshot(),
        "health_log": registry.view(HealthRegistry).snapshot(),
        "requests": recorder.snapshot(),
    }


def write_stats_json(path, registry=None, recorder=None):
    """Save the registry for later ``janus-stats`` analysis."""
    with open(path, "w") as fh:
        json.dump(stats_payload(registry, recorder), fh, indent=1)
    return path


def load_stats(path):
    """Load a saved stats JSON into a :class:`StatsBundle`.

    Raises ``ValueError`` on a file that is not a bundle of
    :data:`STATS_FORMAT` — a raw chrome trace, or a bundle of the
    format before the one-registry change; the message names the
    format found — and on a bundle missing a key, naming the key.
    """
    with open(path) as fh:
        payload = json.load(fh)
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != STATS_FORMAT:
        raise ValueError(
            "%s is not a janus-stats file (expected a %r bundle, found "
            "%s; older bundles and chrome traces are not convertible — "
            "save stats with observability.cli.write_stats_json)"
            % (path, STATS_FORMAT,
               "format %r" % found if found else "no format tag"))
    for key in ("registry", "requests", "health_log"):
        if key not in payload:
            raise ValueError("%s is a truncated janus-stats file (no %r)"
                             % (path, key))
    bundle = StatsBundle(Registry.from_snapshot(payload["registry"]),
                         FlightRecorder.from_snapshot(payload["requests"]))
    bundle.health.restore_log(payload["health_log"])
    return bundle


# -- report rendering --------------------------------------------------------

def post_mortem(health, name=None):
    """Per-function "why did this fall back / why not converged" detail.

    Returns report lines for every function (or just *name*): the state
    diagnosis, each assumption site's failures with its relax chain, and
    the measured fallback + recompile cost per failure.
    """
    lines = []
    functions = health.functions()
    if name is not None:
        functions = [f for f in functions if f.name == name]
        if not functions:
            return ["  (no health recorded for function %r)" % name]
    for fn in functions:
        lines.append("%s [%s]" % (fn.name, fn.state))
        lines.append("  %s" % fn.diagnosis())
        lines.append(
            "  calls %d | graph runs %d (%.1f%% hit) | profile runs %d | "
            "fallbacks %d | graphs built %d (%d recompiles)"
            % (fn.calls, fn.graph_runs, fn.graph_hit_ratio * 100.0,
               fn.profile_runs, fn.fallbacks, fn.graphs_generated,
               fn.recompiles))
        if fn.cache_evictions or fn.cache_invalidations:
            lines.append("  cache churn: %d evictions, %d invalidations"
                         % (fn.cache_evictions, fn.cache_invalidations))
        for key in sorted(fn.sites):
            sh = fn.sites[key]
            if not (sh.failures or sh.relaxations or sh.fragments_reused
                    or sh.fragments_reconverted):
                continue
            lines.append("  site %s (%s):" % (key, sh.kind or "fragment"))
            if sh.failures:
                lines.append(
                    "    %d assumption failure%s%s" % (
                        sh.failures, "s" if sh.failures != 1 else "",
                        " — guard: %s" % sh.last_guard
                        if sh.last_guard else ""))
            for label, noun, cost in (("fallback", "run", sh.fallback),
                                      ("recompile", "build", sh.recompile)):
                if cost.count:
                    lines.append(
                        "    %s cost: %d %s%s, %.3f ms total (%.3f ms avg)"
                        % (label, cost.count, noun,
                           "s" if cost.count != 1 else "",
                           cost.total * 1e3, cost.mean * 1e3))
            for step in sh.relax_chain:
                detail = step.get("detail")
                lines.append("    relax: %s%s" % (
                    step.get("action"),
                    " (%s)" % detail if detail else ""))
            ratio = sh.fragment_reuse_ratio
            if ratio is not None:
                lines.append(
                    "    fragment reuse: %d/%d splices accepted (%.0f%%)"
                    % (sh.fragments_reused,
                       sh.fragments_reused + sh.fragments_reconverted,
                       ratio * 100.0))
    return lines


def _exemplar_line(summary):
    duration = summary.get("duration_s")
    flags = summary.get("flags") or []
    return "  %s %-20s %8.3f ms  [%s]%s" % (
        summary.get("trace_id", "?" * 16),
        summary.get("name") or "?",
        (duration or 0.0) * 1e3,
        summary.get("outcome") or "?",
        " " + ",".join(flags) if flags else "")


def format_requests_table(recorder):
    """Text lines for the flight-recorder section ([] when idle)."""
    snap = recorder.snapshot()
    if not snap["completed"]:
        return []
    lines = ["  %d requests recorded, %d retained as failed/fallback "
             "exemplars" % (snap["completed"], snap["failures"])]
    if snap["slowest"]:
        lines.append("  slowest:")
        lines.extend("  " + _exemplar_line(s) for s in snap["slowest"])
    if snap["failed"]:
        lines.append("  failed / flagged:")
        lines.extend("  " + _exemplar_line(s) for s in snap["failed"])
    return lines


def _number(value):
    return ("%g" if isinstance(value, float) else "%d") % value


def _histogram_rows(name, family, hist):
    """count / mean / p50 / p95 / p99 / max of one histogram (seconds
    shown as ms, other units as is), and a windowed one's trailing-window
    p50 / p95 / count when the window holds observations."""
    scale, unit = (1e3, "ms") if family.unit == "seconds" \
        else (1.0, family.unit)
    pct = hist.percentiles()
    rows = ["  %-44s %7d obs  mean %9.3f  p50 %9.3f  p95 %9.3f  "
            "p99 %9.3f  max %9.3f %s"
            % (name, hist.count, hist.mean * scale, pct["p50"] * scale,
               pct["p95"] * scale, pct["p99"] * scale,
               (hist.max or 0.0) * scale, unit)]
    if family.kind == WINDOWED:
        window = hist.window_percentiles()
        if window["count"]:
            rows.append("    %-42s %7d obs  p50 %9.3f  p95 %9.3f %s"
                        % ("last %gs" % hist.window_s, window["count"],
                           window["p50"] * scale, window["p95"] * scale,
                           unit))
    return rows


#: The registry section's headings, in report order.
_KIND_HEADINGS = ((COUNTER, "-- counters --"), (GAUGE, "-- gauges --"),
                  (HISTOGRAM, "-- latency histograms --"))


def registry_lines(registry, skip=()):
    """The report's registry section: one walk over
    ``registry.families()`` — the walk :func:`prometheus_text` does —
    with every sample under its exposition name (:func:`sample_name`),
    except those named in *skip*.  A counter or gauge sample is one
    ``name value`` row, a histogram the rows of :func:`_histogram_rows`;
    each kind under its heading, left out when it has no rows."""
    rows = {kind: [] for kind, _ in _KIND_HEADINGS}
    for family in registry.families():
        for values, value in family.samples():
            name = sample_name(family, values)
            if name in skip:
                continue
            if family.kind in (COUNTER, GAUGE):
                rows[family.kind].append("  %-52s %s"
                                         % (name, _number(value)))
            else:
                rows[HISTOGRAM].extend(_histogram_rows(name, family, value))
    lines = []
    for kind, heading in _KIND_HEADINGS:
        if rows[kind]:
            lines.append(heading)
            lines.extend(rows[kind])
    return lines


def report_lines(registry, recorder, function=None, skip=()):
    """Every section of the report: the speculation-health table and
    the post-mortem (from the health view's event log), the flight
    recorder's exemplars, then :func:`registry_lines`."""
    health = registry.view(HealthRegistry)
    lines = ["-- speculation health --"]
    lines.extend(format_health_table(health) or [
        "  (no functions recorded — enable metrics with "
        "JANUS_METRICS=1 or set_metrics_enabled(True))"])
    mortem = post_mortem(health, function)
    if mortem:
        lines.append("-- post-mortem --")
        lines.extend("  " + line if line and not line.startswith(" ")
                     else line for line in mortem)
    requests = format_requests_table(recorder)
    if requests:
        lines.append("-- flight recorder --")
        lines.extend(requests)
    return lines + registry_lines(registry, skip)


def render_report(registry=None, function=None, recorder=None):
    """The full ``janus-stats`` text report."""
    return "\n".join(["== janus-stats =="] + report_lines(
        METRICS if registry is None else registry,
        RECORDER if recorder is None else recorder, function))


# -- Prometheus text exposition ----------------------------------------------

def _prom_escape(value):
    return str(value).replace("\\", "\\\\").replace('"', '\\"') \
                     .replace("\n", "\\n")


def _sample(lines, name, value, labels=None):
    label_text = ""
    if labels:
        label_text = "{%s}" % ",".join(
            '%s="%s"' % (k, _prom_escape(v)) for k, v in labels.items())
    lines.append("%s%s %s" % (name, label_text, _number(value)))


def _histogram(lines, base, hist, labels):
    """Standard ``_bucket``/``_sum``/``_count`` triple with cumulative
    ``le`` labels (monotonic, ``+Inf`` last)."""
    snap = hist.snapshot()
    cumulative = 0
    for bound, count in zip(hist.BOUNDS, snap["counts"]):
        cumulative += count
        _sample(lines, base + "_bucket", cumulative,
                dict(labels, le="%g" % bound))
    _sample(lines, base + "_bucket", cumulative + snap["counts"][-1],
            dict(labels, le="+Inf"))
    _sample(lines, base + "_sum", float(snap["sum"]), labels)
    _sample(lines, base + "_count", snap["count"], labels)


_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def prometheus_text(registry=None, recorder=None):
    """The registry in Prometheus text exposition format.

    A walk over ``registry.families()``: the declared kind is the
    ``# TYPE``, the help text the ``# HELP``, label names the labels.
    Histograms map to the standard ``_bucket``/``_sum``/``_count``
    triple with cumulative ``le`` labels; a windowed family ``X_seconds``
    additionally exposes its trailing-window p50/p95/p99 as the
    ``X_window_seconds{quantile=...}`` gauge.  The flight recorder —
    not a metric — contributes its two ``janus_requests_*`` totals.

    Every line is valid exposition format — HELP/TYPE once per family,
    escaped label values, monotonic cumulative buckets — and the lint
    test in ``tests/test_prometheus_lint.py`` holds it to that.
    """
    registry = METRICS if registry is None else registry
    recorder = RECORDER if recorder is None else recorder
    lines = []

    def header(name, kind, help_text):
        lines.append("# HELP %s %s" % (name, help_text))
        lines.append("# TYPE %s %s" % (name, kind))

    for family in registry.families():
        samples = [(dict(zip(family.labelnames, values)), value)
                   for values, value in family.samples()]
        if not samples:
            continue
        if family.kind in (COUNTER, GAUGE):
            header(family.name, family.kind, family.help)
            for labels, value in samples:
                _sample(lines, family.name, value, labels)
            continue
        header(family.name, HISTOGRAM, family.help)
        for labels, hist in samples:
            _histogram(lines, family.name, hist, labels)
        if family.kind != WINDOWED:
            continue
        windows = [(labels, hist.window_percentiles())
                   for labels, hist in samples]
        windows = [(labels, stats) for labels, stats in windows
                   if stats["count"]]
        if not windows:
            continue
        window_name = family.name[:-len("_seconds")] + "_window_seconds"
        header(window_name, GAUGE,
               "Trailing-window percentiles of %s." % family.name)
        for labels, stats in windows:
            for quantile, key in _QUANTILES:
                _sample(lines, window_name, float(stats[key]),
                        dict(labels, quantile=quantile))
    if recorder.completed:
        for name, value, help_text in (
                ("janus_requests_recorded_total", recorder.completed,
                 "Requests seen by the flight recorder."),
                ("janus_requests_failed_total", recorder.failures,
                 "Requests retained as failed/fallback exemplars.")):
            header(name, COUNTER, help_text)
            _sample(lines, name, value)
    return "".join(line + "\n" for line in lines)


# -- CLI entry point ---------------------------------------------------------

def _selfcheck(registry):
    """CI smoke gate: both the health table and histograms must be live."""
    problems = []
    if not registry.view(HealthRegistry).functions():
        problems.append("health table is empty (no functions recorded)")
    if not registry.histograms():
        problems.append("no histogram has a non-zero observation count")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="janus-stats",
        description="Speculation-health report for JANUS runs.")
    parser.add_argument(
        "--input", "-i", metavar="STATS_JSON", default=None,
        help="saved stats bundle (from write_stats_json / the demo); "
             "defaults to the live in-process registry")
    parser.add_argument(
        "--function", "-f", default=None,
        help="restrict the post-mortem to one janus.function name")
    parser.add_argument(
        "--prometheus", action="store_true",
        help="emit the Prometheus text exposition format instead of the "
             "report")
    parser.add_argument(
        "--requests", action="store_true",
        help="dump the flight recorder's request exemplars as JSON "
             "(slowest + failed/fallback, with their captured spans)")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the health table and histogram counts "
             "are populated (CI smoke gate)")
    args = parser.parse_args(argv)

    if args.input:
        try:
            bundle = load_stats(args.input)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print("janus-stats: %s" % exc, file=sys.stderr)
            return 2
    else:
        bundle = StatsBundle.live()

    if args.prometheus:
        sys.stdout.write(prometheus_text(bundle.registry, bundle.requests))
    elif args.requests:
        json.dump(bundle.requests.snapshot(), sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        print(render_report(bundle.registry, args.function,
                            bundle.requests))

    if args.check:
        problems = _selfcheck(bundle.registry)
        if problems:
            for problem in problems:
                print("janus-stats --check FAILED: %s" % problem,
                      file=sys.stderr)
            return 1
        print("janus-stats --check ok", file=sys.stderr)
    return 0
