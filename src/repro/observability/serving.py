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

Queue-wait, batch-size, and request-latency histograms are
:class:`~repro.observability.metrics.WindowedHistogram`\\ s: cumulative
since start *and* answering "what was p95 over the last minute" — the
observed-percentile signal the ROADMAP's adaptive-linger rung trades
``batch_linger_s`` against.  Queue depth and batch size are unitless
counts in second-valued buckets, which is fine: percentile estimates
clamp to the observed min/max and the fixed buckets keep snapshots
mergeable.  Everything is thread-safe (the whole point of the layer):
one lock guards the counters *and* every histogram, so the server folds
a whole dispatch — batch size, queue waits, per-outcome latencies — in
one :meth:`ServingStats.record_batch` call under one acquisition.
Snapshot/restore round-trips through the ``janus-stats`` bundle like
the other registries.

Rejected requests are first-class: ``ServerOverloaded`` leaves no
queue-wait trace (it never enqueued), so admission control shows up
only in ``request_latency{outcome="rejected"}`` and the
:attr:`ServingStats.rejection_rate` — an overload you can alert on even
though the rejected work consumed almost no time.

The process-wide singleton is :data:`SERVING`; like the health registry
it is populated by the serving layer regardless of ``METRICS.enabled``
— a server that is up wants its admission stats even with latency
histograms off.
"""

import threading
import weakref

from .metrics import Histogram, WindowedHistogram

__all__ = ["SERVING", "ServingStats", "format_serving_table",
           "get_serving"]

#: Request outcomes tracked by the per-outcome latency histograms.
OUTCOMES = ("ok", "error", "rejected")

#: Trailing-window geometry for the serving SLO histograms.
WINDOW_S = 60.0
WINDOW_SLICES = 6


def _windowed():
    return WindowedHistogram(window_s=WINDOW_S, slices=WINDOW_SLICES)


class ServingStats:
    """Aggregated serving-layer signals for one process."""

    def __init__(self):
        self._lock = threading.Lock()
        #: Live servers, asked for their compile tickets on read.
        self._servers = weakref.WeakSet()
        self._reset()

    def _reset(self):
        self.active_clients = 0      # gauge: blocked in Server.call
        self.peak_clients = 0
        self._recompiles_restored = 0
        self.requests = 0            # accepted into the queue
        self.rejected = 0            # refused at the queue bound
        self.batches = 0             # dispatches (1 batch >= 1 request)
        self.batched_requests = 0    # requests that shared their batch
        self.queue_depth = self._own(Histogram())   # depth at enqueue
        self.batch_size = self._own(_windowed())    # requests/dispatch
        self.queue_wait = self._own(_windowed())    # seconds queued
        #: End-to-end submit → resolve latency, split by outcome.
        self.request_latency = {outcome: self._own(_windowed())
                                for outcome in OUTCOMES}

    def _own(self, hist):
        """Guard *hist* with this object's lock: one acquisition then
        covers the counters and every histogram a record_* call
        touches, and readers of the histogram serialize with it."""
        hist._lock = self._lock
        return hist

    # -- recording (driven by repro.serving) --------------------------------

    def client_started(self):
        with self._lock:
            self.active_clients += 1
            if self.active_clients > self.peak_clients:
                self.peak_clients = self.active_clients

    def client_finished(self):
        with self._lock:
            self.active_clients -= 1

    def record_enqueue(self, depth):
        """One request accepted; *depth* is the queue depth it saw."""
        with self._lock:
            self.requests += 1
            self.queue_depth._observe(depth)

    def record_reject(self, duration=0.0):
        """One request refused at the queue bound.

        The (near-zero) *duration* still lands in
        ``request_latency["rejected"]`` so rejection *rate* is visible
        in the same windowed family operators alert on.
        """
        with self._lock:
            self.rejected += 1
            self.request_latency["rejected"]._observe(duration)

    def record_batch(self, size, waits=(), latencies=()):
        """One dispatch of *size* coalesced requests, folded at once.

        *waits* are the per-request queue-wait seconds (enqueue →
        dispatch); *latencies* are ``(outcome, seconds)`` pairs, the
        end-to-end latency of each request the dispatch resolved.
        """
        with self._lock:
            self.batches += 1
            if size > 1:
                self.batched_requests += size
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

    @property
    def recompiles_in_flight(self):
        """Compile tickets owned across the live servers' endpoints
        (plus the value a restored snapshot carried)."""
        with self._lock:
            servers = list(self._servers)
        return self._recompiles_restored + sum(
            server.recompiles_in_flight() for server in servers)

    def set_recompiles_in_flight(self, value):
        """The gauge of a stats object restored from a snapshot."""
        self._recompiles_restored = int(value)

    # -- derived -------------------------------------------------------------

    @property
    def rejection_rate(self):
        """Rejected / offered (0.0 with no traffic)."""
        offered = self.requests + self.rejected
        return self.rejected / offered if offered else 0.0

    # -- serialization -------------------------------------------------------

    def snapshot(self):
        recompiles = self.recompiles_in_flight
        with self._lock:
            snap = {
                "requests": self.requests,
                "rejected": self.rejected,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "active_clients": self.active_clients,
                "peak_clients": self.peak_clients,
                "recompiles_in_flight": recompiles,
            }
        snap["queue_depth"] = self.queue_depth.snapshot()
        snap["batch_size"] = self.batch_size.snapshot()
        snap["queue_wait"] = self.queue_wait.snapshot()
        snap["request_latency"] = {
            outcome: hist.snapshot()
            for outcome, hist in self.request_latency.items()}
        return snap

    @classmethod
    def from_snapshot(cls, snap):
        stats = cls()
        snap = snap or {}
        for field in ("requests", "rejected", "batches",
                      "batched_requests", "active_clients", "peak_clients"):
            setattr(stats, field, int(snap.get(field, 0)))
        stats.set_recompiles_in_flight(snap.get("recompiles_in_flight", 0))
        for field in ("queue_depth", "batch_size", "queue_wait"):
            if snap.get(field):
                setattr(stats, field,
                        stats._own(_hist_from_snapshot(snap[field])))
        # Legacy janus-stats/1 bundles predate request_latency: the
        # per-outcome histograms stay empty.
        for outcome, hist_snap in (snap.get("request_latency")
                                   or {}).items():
            if outcome in stats.request_latency and hist_snap:
                stats.request_latency[outcome] = stats._own(
                    _hist_from_snapshot(hist_snap))
        return stats

    def clear(self):
        """Zero everything recorded; live servers stay watched."""
        with self._lock:
            self._reset()

    def __repr__(self):
        return ("ServingStats(requests=%d, batches=%d, active=%d)"
                % (self.requests, self.batches, self.active_clients))


def _hist_from_snapshot(snap):
    """Windowed when the snapshot carries a window; legacy plain else."""
    if isinstance(snap, dict) and "window" in snap:
        return WindowedHistogram.from_snapshot(snap)
    return Histogram.from_snapshot(snap)


def _fmt_window(hist, unit_scale=1e3):
    """``p50/p95 (n)`` triple over the trailing window, or None if idle."""
    if not isinstance(hist, WindowedHistogram):
        return None
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
        hist = stats.request_latency.get(outcome)
        if hist is None or not hist.count:
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


#: The process-wide serving stats; populated by :mod:`repro.serving`.
SERVING = ServingStats()


def get_serving():
    return SERVING
