"""Request-scoped causal tracing and the flight recorder.

The tracer answers "what happened, in order"; this module answers "what
happened *to this request*".  The serving layer gives every request a
:class:`RequestContext` that travels with it through queueing, batch
dispatch, ``janus.function`` dispatch (warm hit / stampede loss /
ticket win / background recompile / imperative fallback), disk-cache
probes, and co-execution fragment/gap handoffs — Dapper-style causal
propagation with the *request*, not the process, as the unit of
observability.

**Stamps first.**  A context is born as a name and ``started``;
resolving it (:meth:`RequestContext.close`) adds when it was dispatched,
with how many companions, how it ended and how long it took — clock
readings the serving layer takes anyway, and all an uneventful request
ever holds.  The capture list and the flag set are allocated by the
first site that records into the context (:func:`note`, :func:`flag`,
:func:`span`, the tracer hook), and the ``serve_queue`` /
``serve_dispatch`` spans are never recorded: they are rebuilt from the
stamps when a summary is read, or streamed into the tracer, when it is
on, as the request resolves.

1. **Trace-event annotation.**  :func:`_annotate` is installed as the
   tracer's request hook and runs once per *recorded* event — never on
   the ``JANUS_TRACE=0`` path.  While a context is active on the
   emitting thread it stamps ``trace_id``/``span_id``/``parent_span``
   into the event args and mirrors the event into the request's bounded
   capture, so every existing instrumentation site (``cache_hit``,
   ``assumption_fail``, ``diskcache_*``, …) joins the request's flow
   unchanged.  Contexts cross threads explicitly: whichever client
   thread dispatches a request activates its context around the
   endpoint function (:func:`activate`; :func:`using` as a ``with``).

2. **The flight recorder.**  Every finished request hands its context
   to :data:`RECORDER`, which retains the N slowest, *all*
   failed/flagged/rejected ones and the last 32 of any kind, dumpable
   via ``janus-stats --requests`` and ``/requests`` of
   ``python -m repro.observability.httpstat``.  It keeps the contexts;
   a JSON summary is built when read, not when the request finishes.

Cost: with ``JANUS_TRACE=0`` and the recorder disabled
:func:`new_request` returns None and a site is one contextvar read.
With the recorder on (the serving default) a request is one small
object, one contextvar set/reset around its dispatch and one recorder
append; only a request that falls back, co-executes or is noted pays
for a capture — one tuple per event, rendered when read, at most
:attr:`RequestContext.MAX_EVENTS`.  Standard library only.
"""

import contextvars
import itertools
import os
import threading
import time
from bisect import insort
from collections import deque
from contextlib import contextmanager

from . import tracer as tracer_mod
from .tracer import TRACER, TraceEvent

__all__ = ["RECORDER", "FlightRecorder", "RequestContext", "activate",
           "current", "deactivate", "new_request", "note", "span", "using",
           "get_flight_recorder"]

_perf_counter = time.perf_counter

#: Trace ids are a per-process random prefix plus a counter: unique
#: across the processes of a fleet without a system call per request.
_TRACE_IDS = itertools.count()
_TRACE_PREFIX = os.urandom(4).hex()


def _reseed_trace_prefix():
    global _TRACE_PREFIX
    _TRACE_PREFIX = os.urandom(4).hex()


if hasattr(os, "register_at_fork"):
    # A forked child inherits the prefix and the counter position.
    os.register_at_fork(after_in_child=_reseed_trace_prefix)

#: The active request context for this thread/task (None = no request).
_CURRENT = contextvars.ContextVar("janus_request", default=None)

#: Span ids of a served request's queue wait and of its dispatch — the
#: parent of everything captured while the endpoint function runs.
_QUEUE_SPAN, _DISPATCH_SPAN = 1, 2


class RequestContext:
    """One request's causal trace: stamps, and a capture on demand."""

    #: Per-request capture bound; events beyond it are counted, not kept.
    MAX_EVENTS = 200

    # A served request nobody looks at holds its name, ``started`` and
    # its number; the rest reads these defaults until `close` or a
    # recording site writes the instance's own.
    #: [(category, name, ph, ts, dur, args, span_id, parent_span)]; the
    #: ids are None when *args* already carries them (tracer events).
    _captured = None
    dropped = 0
    _flags = None
    outcome = detail = duration = None
    #: Pickup by the dispatching thread (None: it never ran) and the
    #: requests that dispatch coalesced (None: not a served request).
    dispatched = None
    batch = 1
    #: Last span id handed out, and the innermost span still open: the
    #: parent of whatever is recorded next (spans nest as ``with``
    #: blocks, each restoring its own parent on exit).
    _last_id = _open = _DISPATCH_SPAN

    def __init__(self, name, started=None):
        """*started*: the ``perf_counter`` reading at which the serving
        layer accepted the request; None for a free-standing context,
        which has no serving spans."""
        self.name = name
        self._seq = next(_TRACE_IDS)
        if started is None:
            started = _perf_counter()
            self.batch = self._open = None
            self._last_id = 0
        self.started = started

    @property
    def trace_id(self):
        """16 hex digits: the process prefix, then this request's
        number."""
        return "%s%08x" % (_TRACE_PREFIX, self._seq & 0xffffffff)

    @property
    def flags(self):
        """Dispatch-path markers ("fallback", "stampede_loss", ...) set
        via :func:`note`; a flagged request is retained by the recorder
        even when its outcome is "ok"."""
        if self._flags is None:
            self._flags = set()
        return self._flags

    # -- capture -------------------------------------------------------------

    def _next_id(self):
        self._last_id = span_id = self._last_id + 1
        return span_id

    def _capture(self, *event):
        """Keep one event tuple in the bounded capture.  Its *args* is
        kept, not copied: callers hand over a dict nobody mutates
        afterwards."""
        if self._captured is None:
            self._captured = []
        if len(self._captured) >= self.MAX_EVENTS:
            self.dropped += 1
        else:
            self._captured.append(event)

    def close(self, outcome, now, detail=None, dispatched=None, batch=1):
        """Stamp how and when (``perf_counter`` *now*) the request
        ended, and for a served one the dispatch that ran it."""
        self.outcome = outcome
        self.detail = detail
        self.duration = now - self.started
        if self.batch is not None:
            self.dispatched = dispatched
            self.batch = batch
            if TRACER.level:
                for event in self._serving_spans():
                    _trace(self, *event)

    def _serving_spans(self):
        """The queue wait and the dispatch of a served request, as
        capture tuples rebuilt from its stamps."""
        if self.batch is None:
            return []
        name = self.name.partition(".")[2] or self.name
        args = {"batch": self.batch}
        start = self.started
        end = start + (self.duration or 0.0)
        picked = end if self.dispatched is None else self.dispatched
        spans = [("serve_queue", name, "X", start, picked - start, args,
                  _QUEUE_SPAN, None)]
        if picked is not end:
            spans.append(("serve_dispatch", name, "X", picked,
                          end - picked, args, _DISPATCH_SPAN, None))
        return spans

    @property
    def events(self):
        """The serving spans and the captured events as
        JSON-serializable dicts."""
        events = []
        trace_id = self.trace_id
        for category, name, ph, ts, dur, args, span_id, parent \
                in self._serving_spans() + (self._captured or []):
            args = dict(args) if args else {}
            if span_id is not None:
                args["trace_id"] = trace_id
                args["span_id"] = span_id
                if parent is not None:
                    args["parent_span"] = parent
            events.append({"cat": category, "name": name, "ph": ph,
                           "rel_s": ts - self.started, "dur_s": dur,
                           "args": args})
        return events

    def summary(self):
        """JSON-serializable post-mortem record for the recorder."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "outcome": self.outcome,
            "detail": self.detail,
            "flags": sorted(self._flags or ()),
            "duration_s": self.duration,
            "started_unix": TRACER.epoch + self.started,
            "events": self.events,
            "dropped_events": self.dropped,
        }

    def __repr__(self):
        return "RequestContext(%s, %s, %d events)" % (
            self.trace_id, self.name, len(self._captured or ()))


def _annotate(event):
    """The tracer's request hook: stamp causal ids + mirror to capture.
    Runs only when an event is actually recorded (trace level > 0);
    events that already carry a ``trace_id`` (:func:`_trace`) are
    captured without re-stamping."""
    ctx = _CURRENT.get()
    if ctx is None:
        return
    args = event.args
    if args is None:
        args = {}
        event.args = args
    if "trace_id" not in args:
        args["trace_id"] = ctx.trace_id
        args["span_id"] = ctx._next_id()
        if ctx._open is not None:
            args["parent_span"] = ctx._open
    ctx._capture(event.category, event.name, event.ph, event.ts,
                 event.dur, args, None, None)


tracer_mod.set_request_hook(_annotate)


# -- request lifecycle -------------------------------------------------------

def new_request(name, started=None):
    """A fresh :class:`RequestContext`, or None when request tracing is
    fully off (``JANUS_TRACE=0`` and the flight recorder disabled)."""
    if TRACER.level > 0 or RECORDER.enabled:
        return RequestContext(name, started)
    return None


def current():
    """The request context active on this thread, or None."""
    return _CURRENT.get()


#: ``token = activate(ctx)`` makes *ctx* the current request of this
#: thread until ``deactivate(token)``: what the serving layer does
#: around an endpoint function to continue, on the dispatching thread,
#: the trace the submitter started.
activate = _CURRENT.set
deactivate = _CURRENT.reset


@contextmanager
def using(ctx):
    """:func:`activate` *ctx* (None: no request) for the ``with`` body."""
    token = activate(ctx)
    try:
        yield ctx
    finally:
        deactivate(token)


# -- span recording ----------------------------------------------------------

@contextmanager
def _req_span(ctx, category, name, args):
    """Timed span inside a request, parented on the span open around
    it."""
    span_id = ctx._next_id()
    parent, ctx._open = ctx._open, span_id
    start = _perf_counter()
    try:
        yield
    except BaseException as exc:
        args = dict(args, error=type(exc).__name__)
        raise
    finally:
        ctx._open = parent
        _emit(ctx, category, name, "X", start, _perf_counter() - start,
              args, span_id, parent)


def _trace(ctx, category, name, ph, ts, dur, args, span_id, parent):
    """One request-scoped event into the tracer, ids in its args (its
    hook mirrors the event into whichever context is current)."""
    args = dict(args, trace_id=ctx.trace_id, span_id=span_id)
    if parent is not None:
        args["parent_span"] = parent
    TRACER._append(TraceEvent(category, name, ph, ts, dur,
                              threading.get_ident(), args))


def _emit(ctx, *event):
    """One event recorded inside *ctx*: into the tracer when it is on,
    else straight into the capture, where the ids ride beside the args
    instead of in a copy."""
    if TRACER.level:
        _trace(ctx, *event)
    else:
        ctx._capture(*event)


def span(category, name, **args):
    """Context manager for a request-scoped span: with an active
    request context it joins that flow (and its bounded capture, even at
    ``JANUS_TRACE=0``); without one it is a plain ``TRACER.span`` —
    visible in ordinary traces, free when tracing is off."""
    ctx = _CURRENT.get()
    if ctx is None:
        return TRACER.span(category, name, **args)
    return _req_span(ctx, category, name, args)


def note(category, name, flag=None, **args):
    """Mark an instant: on the active request (captured even at
    ``JANUS_TRACE=0``), or without one as a plain ``TRACER.instant`` —
    like :func:`span`, so a site reports an event once whoever is
    listening.  *flag* also tags the request itself ("fallback",
    "stampede_loss", …) so the flight recorder retains it whatever its
    outcome."""
    ctx = _CURRENT.get()
    if ctx is None:
        return TRACER.instant(category, name, **args)
    if flag is not None:
        ctx.flags.add(flag)
    _emit(ctx, category, name, "i", _perf_counter(), 0.0, args,
          ctx._next_id(), ctx._open)


# -- the flight recorder -----------------------------------------------------

class FlightRecorder:
    """Bounded retention of post-mortem request exemplars.

    Three views, all bounded:

    * **slowest** — the ``keep_slowest`` highest-latency requests seen,
    * **failed** — the most recent ``keep_failed`` requests whose
      outcome was not "ok" *or* that carry a dispatch flag (fallback,
      stampede loss, …),
    * **recent** — the last ``keep_recent`` requests regardless.

    :meth:`record` only files the finished context — no summary dict,
    and an ``insort`` into *slowest* only for a request slower than the
    fastest one kept there.  The views build the summaries when read.
    Thread-safe; snapshot/restore round-trips through the
    ``janus-stats`` bundle.
    """

    def __init__(self, keep_slowest=8, keep_failed=32, keep_recent=32):
        #: Plain attribute read by the request-creation gate.
        self.enabled = _env_enabled()
        self.keep_slowest = int(keep_slowest)
        self._lock = threading.Lock()
        self._slowest = []          # [(duration, seq, ctx)] ascending
        self._seq = itertools.count()
        self._failed = deque(maxlen=int(keep_failed))
        self._recent = deque(maxlen=int(keep_recent))
        self.completed = 0
        self.failures = 0

    def record(self, ctx):
        self.record_all((ctx,))

    def record_all(self, contexts):
        """File finished contexts (one dispatch's worth) under one lock."""
        if not self.enabled:
            return
        with self._lock:
            slowest = self._slowest
            for ctx in contexts:
                self.completed += 1
                self._recent.append(ctx)
                if ctx.outcome != "ok" or ctx._flags:
                    self.failures += 1
                    self._failed.append(ctx)
                duration = ctx.duration or 0.0
                if len(slowest) < self.keep_slowest \
                        or (slowest and duration > slowest[0][0]):
                    insort(slowest, (duration, next(self._seq), ctx))
                    if len(slowest) > self.keep_slowest:
                        slowest.pop(0)

    # -- inspection and serialization ----------------------------------------

    def snapshot(self):
        """Counts and the three views as summaries (JSON-serializable):
        slowest first, failed and recent oldest first."""
        with self._lock:
            snap = {"completed": self.completed, "failures": self.failures}
            kept = (("slowest", [item[2] for item in reversed(self._slowest)]),
                    ("failed", list(self._failed)),
                    ("recent", list(self._recent)))
        # Finished contexts, or the summary dicts a restored one holds.
        snap.update((view, [item.summary()
                            if isinstance(item, RequestContext) else item
                            for item in items]) for view, items in kept)
        return snap

    def slowest(self):
        return self.snapshot()["slowest"]

    def failed(self):
        return self.snapshot()["failed"]

    def recent(self):
        return self.snapshot()["recent"]

    @classmethod
    def from_snapshot(cls, snap):
        recorder = cls()
        recorder.enabled = False     # restored recorders are read-only
        snap = snap or {}
        recorder.completed = int(snap.get("completed", 0))
        recorder.failures = int(snap.get("failures", 0))
        recorder._slowest = sorted(
            ((summary.get("duration_s") or 0.0, next(recorder._seq), summary)
             for summary in reversed(snap.get("slowest") or ())),
            key=lambda item: item[:2])
        recorder._failed.extend(snap.get("failed") or ())
        recorder._recent.extend(snap.get("recent") or ())
        return recorder

    def set_enabled(self, enabled):
        self.enabled = bool(enabled)

    def clear(self):
        with self._lock:
            self._slowest = []
            self._failed.clear()
            self._recent.clear()
            self.completed = 0
            self.failures = 0

    def __repr__(self):
        return "FlightRecorder(%s, %d completed, %d failures)" % (
            "enabled" if self.enabled else "disabled", self.completed,
            self.failures)


def _env_enabled():
    raw = os.environ.get("JANUS_FLIGHT_RECORDER", "").strip().lower()
    return raw not in ("0", "false", "off", "no")


#: The process-wide flight recorder; populated by the serving layer.
#: Default on (like SERVING, a server that is up wants its post-mortem
#: exemplars); disable with ``JANUS_FLIGHT_RECORDER=0``.
RECORDER = FlightRecorder()


def get_flight_recorder():
    return RECORDER


def disabled_request_cost(iterations=200_000):
    """Measured per-site cost (seconds) of an *inactive* request gate:
    what every request-scoped site does with no request in flight — one
    contextvar read returning None — minus empty-loop overhead.
    Reported by ``benchmarks/bench_observability_overhead.py``."""
    get = _CURRENT.get
    r = range(iterations)
    start = _perf_counter()
    for _ in r:
        if get() is not None:
            raise AssertionError("unreachable")
    gated = _perf_counter() - start
    start = _perf_counter()
    for _ in r:
        pass
    empty = _perf_counter() - start
    return max(gated - empty, 0.0) / iterations
