"""Request-scoped causal tracing and the flight recorder.

The tracer answers "what happened, in order"; this module answers "what
happened *to this request*".  A :class:`RequestContext` is created when
a request enters the serving layer (``Endpoint.submit``, which
``Server.call`` goes through) and
travels with it through queueing, batch dispatch, ``janus.function``
dispatch (warm hit / stampede loss / ticket win / background recompile /
imperative fallback), disk-cache probes, and co-execution fragment/gap
handoffs — Dapper-style causal propagation with the *request*, not the
process, as the unit of observability.

Two cooperating mechanisms:

1. **Trace-event annotation.**  :func:`_annotate` is installed as the
   tracer's request hook (:func:`repro.observability.tracer.set_request_hook`)
   and runs once per *recorded* event — never on the ``JANUS_TRACE=0``
   path.  While a request context is active on the emitting thread it
   stamps ``trace_id``/``span_id``/``parent_span`` into the event args
   and mirrors the event into the request's bounded capture, so every
   existing instrumentation site (``cache_hit``, ``assumption_fail``,
   ``diskcache_*``, …) joins the request's causal flow without being
   rewritten.  Request contexts cross threads explicitly: whichever
   client thread dispatches a request re-activates the context it
   pulled off the queue with :func:`using`.

2. **The flight recorder.**  Every finished request hands its context
   (trace id, outcome, duration, captured spans) to :data:`RECORDER`,
   which retains the N slowest plus *all* failed/fallback/rejected
   requests as post-mortem exemplars, dumpable via ``janus-stats
   --requests`` and the ``/requests`` endpoint of
   ``python -m repro.observability.httpstat``.  The recorder keeps the
   contexts themselves; the JSON summary of one is built when somebody
   reads it, not when the request finishes.

Cost model, mirroring the tracer's:

* ``JANUS_TRACE=0`` and recorder disabled → :func:`new_request` returns
  None and every site degenerates to one attribute load / contextvar
  read; no allocation, no timestamps.
* Recorder enabled (the default for the serving layer) → one small
  context object per request plus one tuple per captured span (turned
  into JSON-ready dicts when read); captures are bounded by
  :attr:`RequestContext.MAX_EVENTS`.

Standard library only, importable from any subsystem without cycles.
"""

import contextvars
import itertools
import os
import threading
import time
from bisect import insort
from collections import deque

from . import tracer as tracer_mod
from .tracer import TRACER, TraceEvent

__all__ = ["RECORDER", "FlightRecorder", "RequestContext", "current",
           "finish", "flag", "new_request", "note", "record_span",
           "span", "span_in", "using", "get_flight_recorder"]

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


class RequestContext:
    """One request's causal trace: id, open span, bounded capture."""

    __slots__ = ("name", "started", "_seq", "_captured", "dropped",
                 "_flags", "outcome", "detail", "duration", "_ids",
                 "_open")

    #: Per-request capture bound; events beyond it are counted, not kept.
    MAX_EVENTS = 200

    def __init__(self, name):
        # What a request that nobody looks at pays for is kept small:
        # the id is formatted, the flag set allocated and the captured
        # events rendered only when read.
        self.name = name
        self.started = _perf_counter()
        self._seq = next(_TRACE_IDS)
        #: (category, name, ph, ts, dur, args, span_id, parent_span)
        #: per captured event; the ids are None when *args* already
        #: carries them (events mirrored from the tracer).
        self._captured = []
        self.dropped = 0
        self._flags = None
        self.outcome = None
        self.detail = None
        self.duration = None
        self._ids = itertools.count(1)
        #: Id of the innermost span still open (None outside any span):
        #: the parent of whatever is recorded next.  Spans nest as
        #: ``with`` blocks, so each restores its own parent on exit.
        self._open = None

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

    def _capture(self, category, name, ph, ts, dur, args, span_id=None,
                 parent=None):
        """Keep one event in the bounded capture.  *args* is kept, not
        copied: callers hand over a dict nobody mutates afterwards."""
        if len(self._captured) >= self.MAX_EVENTS:
            self.dropped += 1
            return
        self._captured.append((category, name, ph, ts, dur, args,
                               span_id, parent))

    def close(self, outcome, now, detail=None):
        """Stamp how and when (``perf_counter`` *now*) the request ended."""
        self.outcome = outcome
        self.detail = detail
        self.duration = now - self.started

    @property
    def events(self):
        """The captured events as JSON-serializable dicts."""
        events = []
        trace_id = self.trace_id
        for category, name, ph, ts, dur, args, span_id, parent \
                in self._captured:
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
            self.trace_id, self.name, len(self._captured))


def _annotate(event):
    """The tracer's request hook: stamp causal ids + mirror to capture.

    Runs only when an event is actually recorded (trace level > 0), so
    the disabled path never reaches it.  Events that already carry a
    ``trace_id`` (pre-stamped by :func:`record_span` / :class:`_ReqSpan`)
    are captured without re-stamping.
    """
    ctx = _CURRENT.get()
    if ctx is None:
        return
    args = event.args
    if args is None:
        args = {}
        event.args = args
    if "trace_id" not in args:
        args["trace_id"] = ctx.trace_id
        args["span_id"] = next(ctx._ids)
        if ctx._open is not None:
            args["parent_span"] = ctx._open
    ctx._capture(event.category, event.name, event.ph, event.ts,
                 event.dur, args)


tracer_mod.set_request_hook(_annotate)


# -- request lifecycle -------------------------------------------------------

def _active():
    return TRACER.level > 0 or RECORDER.enabled


def new_request(name):
    """A fresh :class:`RequestContext`, or None when request tracing is
    fully off (``JANUS_TRACE=0`` and the flight recorder disabled)."""
    if not _active():
        return None
    return RequestContext(name)


def current():
    """The request context active on this thread, or None."""
    return _CURRENT.get()


class using:
    """Activate *ctx* on the current thread for the ``with`` body.

    The serving layer uses this to continue, on the thread that
    dispatches a request, the trace its submitter started;
    ``using(None)`` is a no-op context manager.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx):
        self._ctx = ctx

    def __enter__(self):
        self._token = _CURRENT.set(self._ctx) \
            if self._ctx is not None else None
        return self._ctx

    def __exit__(self, exc_type, exc, tb):
        if self._token is not None:
            _CURRENT.reset(self._token)
        return False


def finish(ctx, outcome, detail=None):
    """Close out a request: stamp outcome + duration, feed the recorder."""
    if ctx is None:
        return
    ctx.close(outcome, _perf_counter(), detail)
    RECORDER.record(ctx)


# -- span recording ----------------------------------------------------------

class _ReqSpan:
    """Timed span inside a request (parented on the span open around
    it); with *activate* the request is also made current for the body.
    """

    __slots__ = ("_ctx", "_category", "_name", "_args", "_span_id",
                 "_parent", "_start", "_token")

    def __init__(self, ctx, category, name, args, activate=False):
        self._ctx = ctx
        self._category = category
        self._name = name
        self._args = args
        #: False: leave the current request alone.  True: make *ctx*
        #: current on enter, when this becomes the token to reset with.
        self._token = activate

    def __enter__(self):
        ctx = self._ctx
        if self._token:
            self._token = _CURRENT.set(ctx)
        self._span_id = next(ctx._ids)
        self._parent = ctx._open
        ctx._open = self._span_id
        self._start = _perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = _perf_counter()
        ctx = self._ctx
        if self._token:
            _CURRENT.reset(self._token)
        ctx._open = self._parent
        args = self._args
        if exc_type is not None:
            args = dict(args, error=exc_type.__name__)
        _emit(ctx, self._category, self._name, "X", self._start,
              end - self._start, args, self._span_id, self._parent)
        return False


def _emit(ctx, category, name, ph, ts, dur, args, span_id, parent):
    """One request-scoped event: into the tracer when it is on (its
    hook mirrors the event into *ctx*), else straight into *ctx*'s
    capture, where the ids ride beside *args* instead of in a copy."""
    if TRACER.level:
        args = dict(args, trace_id=ctx.trace_id, span_id=span_id)
        if parent is not None:
            args["parent_span"] = parent
        TRACER._append(TraceEvent(category, name, ph, ts, dur,
                                  threading.get_ident(), args))
    else:
        ctx._capture(category, name, ph, ts, dur, args, span_id, parent)


def span(category, name, **args):
    """Context manager for a request-scoped span.

    With an active request context the span joins its causal flow (and
    its bounded capture, even at ``JANUS_TRACE=0``).  Without one it
    degrades to a plain ``TRACER.span`` — visible in ordinary traces,
    free when tracing is off.
    """
    ctx = _CURRENT.get()
    if ctx is None:
        return TRACER.span(category, name, **args)
    return _ReqSpan(ctx, category, name, args)


def span_in(ctx, category, name, args):
    """:func:`using` and :func:`span` in one context manager: activate
    *ctx* on this thread for the body and time a span in it.  The
    serving layer enters one per dispatch; *args* is a dict it may
    share between the spans of a batch (never mutated here)."""
    if ctx is None:
        return TRACER.span(category, name, **args)
    return _ReqSpan(ctx, category, name, args, activate=True)


def record_span(ctx, category, name, start, duration, args):
    """Record an externally-timed span into *ctx* (no activation needed).

    Used for spans measured on another thread's clock — e.g. the queue
    wait, timed from the submitting thread's enqueue to the dispatching
    thread's pickup.  *args* may be shared between calls (never mutated
    here).
    """
    if ctx is not None:
        _emit(ctx, category, name, "X", start, duration, args,
              next(ctx._ids), None)


def flag(name):
    """Tag the active request (no event) so the recorder retains it.

    Used next to pre-existing ``TRACER.instant`` sites whose events the
    hook already captures — the tag adds retention without a duplicate
    event.
    """
    ctx = _CURRENT.get()
    if ctx is not None:
        ctx.flags.add(name)


def note(category, name, flag=None, **args):
    """Mark an instant on the active request (no-op without one).

    *flag* additionally tags the request itself ("fallback",
    "stampede_loss", …) so the flight recorder retains it as an
    exemplar regardless of outcome.
    """
    ctx = _CURRENT.get()
    if ctx is None:
        return
    if flag is not None:
        ctx.flags.add(flag)
    _emit(ctx, category, name, "i", _perf_counter(), 0.0, args,
          next(ctx._ids), ctx._open)


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
    ``janus-stats`` bundle like the other registries.
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

    # -- inspection ----------------------------------------------------------

    def slowest(self):
        """Summaries, slowest first."""
        with self._lock:
            kept = [item[2] for item in reversed(self._slowest)]
        return _summaries(kept)

    def failed(self):
        """Failed/flagged summaries, oldest first."""
        with self._lock:
            kept = list(self._failed)
        return _summaries(kept)

    def recent(self):
        with self._lock:
            kept = list(self._recent)
        return _summaries(kept)

    # -- serialization -------------------------------------------------------

    def snapshot(self):
        with self._lock:
            completed, failures = self.completed, self.failures
            slowest = [item[2] for item in reversed(self._slowest)]
            failed = list(self._failed)
            recent = list(self._recent)
        return {
            "completed": completed,
            "failures": failures,
            "slowest": _summaries(slowest),
            "failed": _summaries(failed),
            "recent": _summaries(recent),
        }

    @classmethod
    def from_snapshot(cls, snap):
        recorder = cls()
        recorder.enabled = False     # restored recorders are read-only
        snap = snap or {}
        recorder.completed = int(snap.get("completed", 0))
        recorder.failures = int(snap.get("failures", 0))
        for summary in reversed(snap.get("slowest") or ()):
            recorder._slowest.append(
                (summary.get("duration_s") or 0.0,
                 next(recorder._seq), summary))
        recorder._slowest.sort(key=lambda item: (item[0], item[1]))
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


def _summaries(kept):
    """Summaries of what a recorder keeps: finished contexts, or the
    summary dicts a restored snapshot holds."""
    return [item.summary() if isinstance(item, RequestContext) else item
            for item in kept]


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
    """Measured per-site cost (seconds) of an *inactive* request gate.

    Times the exact operation every request-scoped site performs with no
    request in flight — one contextvar read returning None — minus empty
    loop overhead.  Reported (informationally) by
    ``benchmarks/bench_observability_overhead.py``.
    """
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
