"""Serving-layer metrics: admission, queueing, batching, and SLO signals.

The multi-tenant server (:mod:`repro.serving`) multiplexes N client
threads over shared ``janus.function`` endpoints.  The runtime-side
registries answer "is speculation healthy?"; this module answers the
capacity questions a serving deployment adds on top:

* **admission** — requests accepted vs rejected at the queue bound,
* **queueing** — queue depth seen by each arriving request and the wall
  time it waited before execution,
* **batching** — how many shape-compatible requests each dispatch
  coalesced (the dynamic-batching win is exactly this histogram's mean),
* **tenancy** — active / peak concurrent client threads,
* **recompiles in flight** — compile tickets currently owned, sampled
  from the live servers' endpoints when the gauge is *read* (the §4.3
  recovery machinery under load),
* **end-to-end latency** — per-outcome (``ok`` / ``error`` /
  ``rejected``) submit → resolve latency over a trailing window,
  stamped where the request is resolved.

Queue-wait and request-latency histograms are *windowed*
(:class:`~repro.observability.metrics.WindowedHistogram`): cumulative
since start *and* answering "what was p95 over the last minute" — the
observed-percentile signal an adaptive ``batch_linger_s`` would trade
against.  Queue depth and batch size are unitless counts in
second-valued buckets, which is fine: percentile estimates clamp to the
observed min/max.

:class:`ServingStats` is a *view* over the metrics registry
(:mod:`repro.observability.metrics`): every number lives in a
``janus_serving_*`` instrument, declared with the view's one lock, so
the server folds a whole dispatch — batch size, queue waits,
per-outcome latencies — in one :meth:`ServingStats.record_batch` call
under one acquisition, and the registry's snapshot, bundle and
exposition carry the section without serving-specific code.
``ServingStats(registry)`` over a restored registry answers the same
derived questions (``rejection_rate``, ``recompiles_in_flight``) the
live view does.

Rejected requests are first-class: ``ServerOverloaded`` leaves no
queue-wait trace (it never enqueued), so admission control shows up
only in ``request_latency{outcome="rejected"}`` and the
:attr:`ServingStats.rejection_rate` — an overload you can alert on even
though the rejected work consumed almost no time.

The process-wide view is :data:`SERVING`, populated by the serving
layer regardless of ``METRICS.enabled`` — a server that is up wants its
admission stats even with latency histograms off.
"""

import threading
import weakref

from .metrics import METRICS, Registry, View

__all__ = ["SERVING", "ServingStats", "format_serving_table"]

#: Request outcomes tracked by the per-outcome latency histograms.
OUTCOMES = ("ok", "error", "rejected")


class ServingStats(View):
    """Serving-layer signals: a view over one metrics registry.

    Every instrument is declared with this view's lock, so a
    ``record_*`` call takes it once and folds the counters and the
    histograms it touches under that one acquisition.
    """

    PREFIX = "janus_serving_"
    SCALARS = (
        ("janus_serving_requests_total",
         "Requests accepted into an endpoint queue.", "requests"),
        ("janus_serving_rejected_total",
         "Requests refused at the admission bound.", "requests"),
        ("janus_serving_batches_total",
         "Dispatches (each coalescing >= 1 request).", "dispatches"),
        ("janus_serving_batched_requests_total",
         "Requests that shared a dynamic batch.", "requests"),
        ("janus_serving_active_clients",
         "Client threads currently blocked in Server.call.", "threads"),
        ("janus_serving_peak_clients",
         "Peak concurrent client threads.", "threads"),
    )

    def __init__(self, registry=None):
        registry = Registry() if registry is None else registry
        self._lock = lock = threading.Lock()
        #: Live servers, asked for their compile tickets on read.
        self._servers = weakref.WeakSet()
        self._bind(self.declare(registry, lock))
        #: Bound once: the per-request path skips the table lookup.
        scalars = self._scalars
        self._requests = scalars["requests"]
        self._batches = scalars["batches"]
        self._batched = scalars["batched_requests"]
        self._active = scalars["active_clients"]
        self._peak = scalars["peak_clients"]
        self.queue_depth = registry.histogram(
            "janus_serving_queue_depth",
            "Queue depth seen by each accepted request.",
            unit="requests", lock=lock).labels()
        self.batch_size = registry.histogram(
            "janus_serving_batch_size", "Requests coalesced per dispatch.",
            unit="requests", lock=lock).labels()
        self.queue_wait = registry.windowed(
            "janus_serving_queue_wait_seconds",
            "Seconds each request waited before dispatch.",
            lock=lock).labels()
        latency = registry.windowed(
            "janus_serving_request_latency_seconds",
            "End-to-end request latency by outcome "
            "(ok / error / rejected).", labels=("outcome",), lock=lock)
        #: End-to-end submit -> resolve latency, split by outcome.
        self.request_latency = {outcome: latency.labels(outcome)
                                for outcome in OUTCOMES}
        self._recompiles = registry.gauge(
            "janus_serving_recompiles_in_flight",
            "Compile tickets currently owned across endpoints.",
            unit="tickets", sample=self._sample_recompiles)
        registry.gauge(
            "janus_serving_rejection_rate",
            "Rejected / offered requests since start.", unit="ratio",
            sample=lambda: {(): self.rejection_rate})

    # -- recording (driven by repro.serving) --------------------------------

    def client_started(self):
        active, peak = self._active, self._peak
        with self._lock:
            active.value += 1
            if active.value > peak.value:
                peak.value = active.value

    def client_finished(self):
        with self._lock:
            self._active.value -= 1

    def record_enqueue(self, depth):
        """One request accepted; *depth* is the queue depth it saw."""
        with self._lock:
            self._requests.value += 1
            self.queue_depth._observe(depth)

    def record_reject(self, duration=0.0):
        """One request refused at the queue bound.

        The (near-zero) *duration* still lands in
        ``request_latency["rejected"]`` so rejection *rate* is visible
        in the same windowed family operators alert on.
        """
        with self._lock:
            self._add("rejected")
            self.request_latency["rejected"]._observe(duration)

    def record_batch(self, size, waits=(), latencies=()):
        """One dispatch of *size* coalesced requests, folded at once.

        *waits* are the per-request queue-wait seconds (enqueue →
        dispatch); *latencies* are ``(outcome, seconds)`` pairs, the
        end-to-end latency of each request the dispatch resolved.
        """
        with self._lock:
            self._batches.value += 1
            if size > 1:
                self._batched.value += size
            self.batch_size._observe(size)
            observe = self.queue_wait._observe
            for wait in waits:
                observe(wait)
            by_outcome = self.request_latency
            for outcome, duration in latencies:
                (by_outcome.get(outcome)
                 or by_outcome["error"])._observe(duration)

    def record_request(self, duration, outcome="ok"):
        """One request resolved outside a dispatch (failed at close)."""
        with self._lock:
            (self.request_latency.get(outcome)
             or self.request_latency["error"])._observe(duration)

    # -- recompiles in flight: sampled on read -------------------------------

    def watch(self, server):
        """Sample *server*'s ``recompiles_in_flight()`` on every read of
        the gauge, until :meth:`unwatch` (or the server is collected)."""
        with self._lock:
            self._servers.add(server)

    def unwatch(self, server):
        with self._lock:
            self._servers.discard(server)

    def _sample_recompiles(self):
        with self._lock:
            servers = list(self._servers)
        return {(): sum(server.recompiles_in_flight()
                        for server in servers)}

    @property
    def recompiles_in_flight(self):
        """Compile tickets owned across the live servers' endpoints (the
        value a restored registry carried, for a restored view)."""
        return dict(self._recompiles.samples()).get((), 0)

    # -- derived -------------------------------------------------------------

    @property
    def rejection_rate(self):
        """Rejected / offered (0.0 with no traffic)."""
        offered = self.requests + self.rejected
        return self.rejected / offered if offered else 0.0

    def summary(self):
        """The serving half of ``/health``: admission totals plus the
        trailing-window SLO percentiles."""
        summary = {key: getattr(self, key) for key in (
            "requests", "rejected", "rejection_rate", "batches",
            "active_clients", "recompiles_in_flight")}
        for name, hist in (
                ("queue_wait", self.queue_wait),
                ("request_latency_ok", self.request_latency["ok"]),
                ("request_latency_rejected",
                 self.request_latency["rejected"])):
            summary["%s_window" % name] = hist.window_percentiles()
        return summary

    def __repr__(self):
        return ("ServingStats(requests=%d, batches=%d, active=%d)"
                % (self.requests, self.batches, self.active_clients))


def _fmt_window(hist, unit_scale=1e3):
    """``p50/p95 (n)`` triple over the trailing window, or None if idle."""
    stats = hist.window_percentiles()
    if not stats["count"]:
        return None
    return (stats["p50"] * unit_scale, stats["p95"] * unit_scale,
            stats["count"])


def format_serving_table(stats):
    """Text lines for the ``janus-stats`` serving section.

    Returns [] when the server never saw a request (section omitted).
    """
    if not (stats.requests or stats.rejected or stats.active_clients):
        return []
    lines = [
        "  clients: %d active (peak %d) | requests: %d accepted, "
        "%d rejected (%.1f%% rejection) | recompiles in flight: %d"
        % (stats.active_clients, stats.peak_clients, stats.requests,
           stats.rejected, stats.rejection_rate * 100.0,
           stats.recompiles_in_flight)]
    depth = stats.queue_depth
    if depth.count:
        pct = depth.percentiles()
        lines.append(
            "  queue depth: p50 %.1f  p95 %.1f  max %.0f   queue wait: "
            "p50 %.3f ms  p95 %.3f ms"
            % (pct["p50"], pct["p95"], depth.max or 0.0,
               stats.queue_wait.percentile(50) * 1e3,
               stats.queue_wait.percentile(95) * 1e3))
    size = stats.batch_size
    if size.count:
        pct = size.percentiles()
        lines.append(
            "  batch size: %d dispatches, mean %.2f  p50 %.1f  p95 %.1f  "
            "max %.0f  (%d requests rode a shared batch)"
            % (size.count, size.mean, pct["p50"], pct["p95"],
               size.max or 0.0, stats.batched_requests))
    for outcome in OUTCOMES:
        hist = stats.request_latency[outcome]
        if not hist.count:
            continue
        pct = hist.percentiles()
        line = ("  request latency[%s]: %d obs  p50 %.3f ms  p95 %.3f ms  "
                "p99 %.3f ms"
                % (outcome, hist.count, pct["p50"] * 1e3,
                   pct["p95"] * 1e3, pct["p99"] * 1e3))
        recent = _fmt_window(hist)
        if recent is not None:
            line += ("   window: p50 %.3f ms  p95 %.3f ms (%d obs)"
                     % recent)
        lines.append(line)
    wait_recent = _fmt_window(stats.queue_wait)
    if wait_recent is not None:
        lines.append(
            "  windowed queue wait: p50 %.3f ms  p95 %.3f ms (%d obs)"
            % wait_recent)
    return lines


#: The process-wide serving view; populated by :mod:`repro.serving`.
SERVING = METRICS.view(ServingStats)
