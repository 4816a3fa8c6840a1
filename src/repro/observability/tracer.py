"""Low-overhead structured event tracing for the JANUS runtime.

A :class:`Tracer` holds a bounded ring buffer of :class:`TraceEvent`
records emitted from the hot paths of the system: graph generation,
cache retrieval, assumption failures/fallbacks, optimization passes,
and (at the detailed level) per-op execution timing.

Design constraints, in order:

1. **Near-zero overhead when off.**  Every instrumentation site first
   reads ``TRACER.level`` (a plain attribute) and only then builds an
   event.  With the default level 0 the cost per site is one attribute
   load and one integer compare.
2. **Bounded memory.**  Events go into a ``collections.deque`` with a
   fixed ``maxlen``; a long benchmark run keeps the most recent window
   instead of growing without bound.
3. **No dependencies on the rest of the runtime.**  This module imports
   only the standard library, so any subsystem (eager executor, graph
   executor, janus core) may import it without cycles.

Levels:

* ``0`` — tracing off (the default),
* ``1`` — lifecycle events: ``graphgen``, ``cache_*``, ``pass``,
  ``assumption_fail``, ``fallback``, ``relax``, per-graph-run ``op``
  spans, eager dispatch counters,
* ``2`` — everything above plus per-op and per-level timing inside the
  graph executor.

The process-wide singleton is :data:`TRACER`; the initial level comes
from the ``JANUS_TRACE`` environment variable.
"""

import os
import threading
import time
from collections import deque

#: Event categories emitted by the runtime (docs/observability.md).
CATEGORIES = (
    "graphgen",          # speculative graph generation / regeneration
    "cache_hit",         # graph cache retrieval: prechecks passed
    "cache_miss",        # graph cache retrieval: absent or precheck failed
    "cache_store",       # a compiled graph entered the cache
    "cache_evict",       # LRU bound exceeded: oldest entry dropped
    "cache_invalidate",  # an entry was dropped (relaxation pending)
    "assumption_fail",   # a runtime guard (AssertOp) fired
    "fallback",          # execution fell back to the imperative executor
    "relax",             # a profiled assumption moved down the lattice
    "pass",              # one optimization pass over one graph
    "op",                # graph-executor timing (per run; per node at level 2)
    "level",             # parallel-schedule level timing (level 2)
    "bench",             # benchmark-harness measurement windows
    "distributed",       # cluster simulation / ring all-reduce (figure 8)
    "serve_queue",       # request time spent queued in the serving layer
    "serve_dispatch",    # serving-layer batch execution span
    "coexec_fragment",   # one symbolic fragment run of a co-execution plan
    "coexec_gap",        # one imperative gap run of a co-execution plan
    "diskcache_probe",   # persistent-cache load attempt on the warm path
)

_perf_counter = time.perf_counter

#: Request-context annotator installed by :mod:`.reqtrace`.  Called for
#: every recorded event (so never on the disabled path) to stamp
#: ``trace_id``/``span_id`` args and mirror the event into the active
#: request's bounded capture.  A plain module global: one load + None
#: test per recorded event.
_REQUEST_HOOK = None


def set_request_hook(hook):
    """Install (or clear, with None) the per-event request annotator."""
    global _REQUEST_HOOK
    _REQUEST_HOOK = hook


class TraceEvent:
    """One structured runtime event.

    ``ph`` follows the Chrome trace-event phase vocabulary: ``"i"`` for
    instant events, ``"X"`` for complete (timed span) events.  ``ts``
    and ``dur`` are in seconds (converted to microseconds on export).
    """

    __slots__ = ("category", "name", "ph", "ts", "dur", "tid", "args")

    def __init__(self, category, name, ph, ts, dur=0.0, tid=0, args=None):
        self.category = category
        self.name = name
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.tid = tid
        self.args = args

    def __repr__(self):
        return "TraceEvent(%s/%s ph=%s ts=%.6f dur=%.6f %r)" % (
            self.category, self.name, self.ph, self.ts, self.dur,
            self.args or {})


class _Span:
    """Context manager that records one complete ("X") event on exit."""

    __slots__ = ("_tracer", "_category", "_name", "_args", "_start")

    def __init__(self, tracer, category, name, args):
        self._tracer = tracer
        self._category = category
        self._name = name
        self._args = args

    def __enter__(self):
        self._start = _perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = _perf_counter()
        if exc_type is not None:
            args = dict(self._args or {})
            args["error"] = exc_type.__name__
            self._args = args
        self._tracer._append(TraceEvent(
            self._category, self._name, "X", self._start,
            end - self._start, threading.get_ident(), self._args))
        return False


class _NullSpan:
    """Shared no-op context manager for disabled trace levels."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """A ring-buffered structured event recorder.

    Instrumentation sites call :meth:`instant` / :meth:`complete` /
    :meth:`span` guarded by a ``tracer.level`` check; nothing is
    allocated when the requested level exceeds the current one.
    """

    def __init__(self, level=0, capacity=65536):
        self.level = level
        self.capacity = capacity
        self._events = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Wall-clock epoch paired with the perf_counter origin, so
        #: exported timestamps can be correlated across processes.
        self.epoch = time.time() - _perf_counter()

    # -- recording ---------------------------------------------------------

    def _append(self, event):
        # deque.append is atomic under the GIL; the lock only guards
        # clear-vs-append races from drain().
        hook = _REQUEST_HOOK
        if hook is not None:
            hook(event)
        self._events.append(event)

    def instant(self, category, name, level=1, **args):
        """Record a point-in-time event if tracing is at ``level``."""
        if self.level < level:
            return
        self._append(TraceEvent(category, name, "i", _perf_counter(),
                                0.0, threading.get_ident(), args or None))

    def complete(self, category, name, start, duration, level=1, **args):
        """Record an externally-timed span (caller took the timestamps)."""
        if self.level < level:
            return
        self._append(TraceEvent(category, name, "X", start, duration,
                                threading.get_ident(), args or None))

    def span(self, category, name, level=1, **args):
        """Context manager timing a block as a complete event."""
        if self.level < level:
            return _NULL_SPAN
        return _Span(self, category, name, args or None)

    # -- inspection / control ----------------------------------------------

    @property
    def events(self):
        """Snapshot list of buffered events (oldest first)."""
        with self._lock:
            return list(self._events)

    def drain(self):
        """Return and remove all buffered events."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
        return events

    def clear(self):
        with self._lock:
            self._events.clear()

    def set_level(self, level):
        self.level = int(level)

    def category_counts(self):
        """``{category: number of buffered events}``."""
        counts = {}
        for event in self.events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

    def __len__(self):
        return len(self._events)


def _env_level():
    raw = os.environ.get("JANUS_TRACE", "").strip()
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        # Any non-integer truthy value ("on", "chrome", ...) means level 1.
        return 1


#: The process-wide tracer.  Hot paths hold a module-level reference to
#: this object; it is never replaced, only re-leveled or cleared.
TRACER = Tracer(level=_env_level())


def get_tracer():
    return TRACER


def trace_level():
    return TRACER.level


def set_trace_level(level):
    """Set the global trace level (0 = off, 1 = lifecycle, 2 = per-op)."""
    TRACER.set_level(level)


class override_level:
    """Temporarily run the global tracer at a different level.

    A single-threaded scoped helper (tests use it): it writes the
    *process-global* level, so every thread traces at the override for
    the duration and overlapping overrides restore out of order.  The
    runtime never calls it; ``JANUS_TRACE`` / :func:`set_trace_level`
    are the way to set a level.
    """

    __slots__ = ("_level", "_saved")

    def __init__(self, level):
        self._level = level

    def __enter__(self):
        self._saved = TRACER.level
        TRACER.level = int(self._level)
        return TRACER

    def __exit__(self, exc_type, exc, tb):
        TRACER.level = self._saved
        return False
