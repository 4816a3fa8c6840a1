"""Serving-layer metrics: admission, queueing, batching, and SLO signals.

The multi-tenant server (:mod:`repro.serving`) multiplexes N client
threads over shared ``janus.function`` endpoints.  The runtime-side
registries answer "is speculation healthy?"; this module answers the
capacity questions a serving deployment adds on top:

* **admission** — requests accepted vs rejected at the queue bound,
* **queueing** — queue depth seen by each arriving request and the wall
  time it waited before execution,
* **batching** — how many shape-compatible requests each dispatch
  coalesced (the dynamic-batching win is exactly this histogram's
  mean), and how many batches had to be re-run request by request,
* **tenancy** — active / peak concurrent client threads,
* **recompiles in flight** — endpoint functions whose compile lock is
  held, sampled from the live servers' endpoints when the gauge is
  *read*,
* **end-to-end latency** — per-outcome (``ok`` / ``error`` /
  ``rejected``) submit → resolve latency over a trailing window,
  stamped where the request is resolved.

Queue-wait and request-latency histograms are *windowed*
(:class:`~repro.observability.metrics.WindowedHistogram`): cumulative
since start *and* answering "what was p95 over the last minute".
Queue depth and batch size are unitless counts in second-valued
buckets, which is fine: percentile estimates clamp to the observed
min/max.

:class:`ServingStats` is a *view* over the metrics registry
(:mod:`repro.observability.metrics`): every number lives in a
``janus_serving_*`` instrument, declared with the view's one lock, so
the server folds a whole dispatch (:meth:`~ServingStats.record_batch`)
or a whole uncontended call (:meth:`~ServingStats.record_solo`) under
one acquisition, and the registry's snapshot, bundle and exposition
carry the section without serving-specific code.  Whatever is read —
through :data:`SERVING`, a registry snapshot, ``/metrics`` or
``/health`` — reflects every request resolved before the read.
``ServingStats(registry)`` over a restored registry answers the same
derived questions the live view does.

Rejected requests are first-class: ``ServerOverloaded`` never
enqueued, so admission control shows up only in
``request_latency{outcome="rejected"}`` and
:attr:`ServingStats.rejection_rate` — an overload you can alert on.

The process-wide view is :data:`SERVING`, populated by the serving
layer regardless of ``METRICS.enabled``.
"""

import threading
import weakref
from collections import deque

from .metrics import METRICS, Registry, View

__all__ = ["SERVING", "ServingStats"]

#: Request outcomes tracked by the per-outcome latency histograms.
OUTCOMES = ("ok", "error", "rejected")

#: Logged solo requests that trigger their replay on the recording
#: path: fewer than one call in a hundred pays for it.
_REPLAY_AT = 256


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
         "Requests answered from a run they shared.", "requests"),
        ("janus_serving_batch_fallbacks_total",
         "Batches re-run request by request: the stacked call raised "
         "or its result did not split.", "dispatches"),
    )

    def __init__(self, registry=None):
        registry = Registry() if registry is None else registry
        self._lock = lock = threading.Lock()
        #: Live servers, asked for their compiles in flight on read.
        self._servers = weakref.WeakSet()
        #: One entry per thread inside ``Server.call``: entering is one
        #: (thread-safe) append and no lock.  The peak is taken, under
        #: the lock, when a client leaves or the gauge is read — the
        #: count falls only at a departure, so no peak is missed.
        self._clients = deque()
        self._peak = 0
        #: ``(now, latency, outcome)`` of solo requests not yet observed:
        #: replayed before any histogram is read (its ``feed``), or when
        #: `_REPLAY_AT` of them have piled up.
        self._solo = []
        self._bind(self.declare(registry, lock))
        #: Bound once: the per-request path skips the table lookup.
        scalars = self._scalars
        self._requests = scalars["requests"]
        self._batches = scalars["batches"]
        self._batched = scalars["batched_requests"]
        self._fallbacks = scalars["batch_fallbacks"]
        self.queue_depth = registry.histogram(
            "janus_serving_queue_depth",
            "Queue depth seen by each accepted request.",
            unit="requests", lock=lock, feed=self._replay).labels()
        self.batch_size = registry.histogram(
            "janus_serving_batch_size", "Requests coalesced per dispatch.",
            unit="requests", lock=lock, feed=self._replay).labels()
        self.queue_wait = registry.windowed(
            "janus_serving_queue_wait_seconds",
            "Seconds each request waited before dispatch.",
            lock=lock, feed=self._replay).labels()
        latency = registry.windowed(
            "janus_serving_request_latency_seconds",
            "End-to-end request latency by outcome "
            "(ok / error / rejected).", labels=("outcome",), lock=lock,
            feed=self._replay)
        #: End-to-end submit -> resolve latency, split by outcome.
        self.request_latency = {outcome: latency.labels(outcome)
                                for outcome in OUTCOMES}
        #: Gauges computed when read (stored, in a restored registry).
        self._sampled = {attr: registry.gauge(
            self.PREFIX + attr, help, unit=unit,
            sample=lambda sample=sample: {(): sample()})
            for attr, help, unit, sample in (
                ("active_clients",
                 "Client threads currently blocked in Server.call.",
                 "threads", self._clients.__len__),
                ("peak_clients", "Peak concurrent client threads.",
                 "threads", self._sample_peak),
                ("recompiles_in_flight",
                 "Endpoint functions whose compile lock is held.",
                 "compiles", self._sample_recompiles),
                ("rejection_rate",
                 "Rejected / offered requests since start.", "ratio",
                 lambda: self.rejection_rate))}

    def __getattr__(self, attr):
        sampled = self.__dict__.get("_sampled", ())
        if attr in sampled:
            return dict(sampled[attr].samples()).get((), 0)
        return super().__getattr__(attr)

    def reset_log(self):
        with self._lock:
            self._peak = 0
            self._solo = []

    # -- recording (driven by repro.serving) --------------------------------

    def client_started(self):
        self._clients.append(None)

    def client_finished(self):
        with self._lock:
            self._client_gone()

    def _client_gone(self):
        clients = self._clients
        if len(clients) > self._peak:
            self._peak = len(clients)
        clients.pop()

    def _sample_peak(self):
        with self._lock:
            return max(self._peak, len(self._clients))

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

    def record_batch(self, size, waits=(), latencies=None, now=None,
                     fallback=False):
        """One dispatch of *size* coalesced requests, folded at once:
        one bulk observe per histogram it touches.

        *waits* are the per-request queue-wait seconds (enqueue →
        dispatch); *latencies* maps an outcome to the end-to-end
        latencies of the requests the dispatch resolved with it at
        ``perf_counter`` *now*.  *fallback*: the batch did not run as
        one and was re-run request by request.
        """
        with self._lock:
            self._batches.value += 1
            if fallback:
                self._fallbacks.value += 1
            elif size > 1:
                self._batched.value += size
            self.batch_size._observe(size)
            self.queue_wait._observe_all(waits, now)
            by_outcome = self.request_latency
            for outcome, durations in (latencies or {}).items():
                (by_outcome.get(outcome)
                 or by_outcome["error"])._observe_all(durations, now)

    def record_solo(self, latency, outcome, now):
        """One uncontended ``Server.call`` in one fold: accepted at
        depth 0, dispatched alone after no wait, resolved after
        *latency* seconds at ``perf_counter`` *now*, its client gone."""
        with self._lock:
            self._requests.value += 1
            self._batches.value += 1
            solo = self._solo
            solo.append((now, latency, outcome))
            if len(solo) >= _REPLAY_AT:
                self._replay()
            self._client_gone()

    def _replay(self):
        """Observe the logged solo requests, one bulk observe per
        histogram, each at its own stamp; the caller holds the lock."""
        solo = self._solo
        if solo:
            self._solo = []
            zeros = [0.0] * len(solo)
            self.queue_depth._observe_all(zeros)
            self.batch_size._observe_all([1.0] * len(solo))
            self.queue_wait._observe_all(zeros, [entry[0] for entry in solo])
            for outcome, hist in self.request_latency.items():
                logged = [entry for entry in solo if entry[2] == outcome]
                hist._observe_all([entry[1] for entry in logged],
                                  [entry[0] for entry in logged])

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
        return sum(server.recompiles_in_flight() for server in servers)

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


#: The process-wide serving view; populated by :mod:`repro.serving`.
SERVING = METRICS.view(ServingStats)
