"""Histogram/percentile metrics for the JANUS runtime.

The :class:`CounterRegistry` answers "how many / how much total"; this
module answers the fleet-health questions the speculate → guard →
fallback → relax loop raises in production: *what is the p99 graph-run
latency, how expensive is a fallback, how long does a recompile take?*

A :class:`Histogram` is a fixed set of log-spaced buckets (factor-2
growth from 1 µs to ~2 minutes) plus exact count/sum/min/max, so
percentile estimates interpolate within one bucket and are always
clamped to the observed range.  Fixed buckets make histograms from
independent runs (worker subprocesses, per-function registries)
**mergeable** the same way :class:`CounterRegistry` is — bucket counts
just add.

Design constraints mirror the tracer's:

1. **Near-zero overhead when disabled.**  Every instrumentation site
   first reads ``METRICS.enabled`` (a plain attribute) and only then
   takes timestamps or builds values; with the default (disabled) the
   cost per site is one attribute load and one truth test.
   :func:`disabled_site_cost` measures exactly that cost, and
   ``benchmarks/bench_observability_overhead.py`` gates it against the
   quickstart model's step time.
2. **Bounded memory.**  A histogram is ~30 integers regardless of how
   many observations it absorbs.
3. **Standard library only** — importable from any subsystem without
   cycles.

The process-wide singleton is :data:`METRICS`; the initial enablement
comes from the ``JANUS_METRICS`` environment variable.  Histogram names
used by the runtime (seconds unless noted):

* ``graph.run`` — top-level compiled-graph executions,
* ``graphgen.initial`` / ``graphgen.recompile`` — speculative graph
  generation + compilation, first build vs post-relaxation rebuilds,
* ``fallback.imperative`` — imperative runs forced by a failed runtime
  assumption (the measured *fallback cost*),
* ``guard.precheck`` — per-call cache precheck validation,
* ``guard.check`` — individual runtime assumption checks (AssertOp
  analogue) inside the graph executor,
* ``eager.dispatch`` — per-op eager dispatch latency,
* ``profile.run`` — instrumented imperative profiling runs.
"""

import os
import threading
import time
from bisect import bisect_right

_perf_counter = time.perf_counter

#: Shared log-spaced bucket upper bounds (seconds): 1 µs doubling up to
#: ~134 s, 28 buckets; values beyond the last bound land in an overflow
#: bucket.  Every histogram uses the same bounds so any two merge.
BUCKET_BOUNDS = tuple(1e-6 * (2.0 ** i) for i in range(28))


class Histogram:
    """Fixed log-bucket histogram with exact count/sum/min/max.

    Thread-safe: ``observe``/``merge``/``snapshot`` serialize on a
    per-histogram lock so concurrent callers (multi-tenant dispatch,
    the serving layer's queue-depth gauges) never lose counts or read a
    torn count/sum pair.
    """

    __slots__ = ("counts", "count", "total", "min", "max", "_lock")

    BOUNDS = BUCKET_BOUNDS

    def __init__(self):
        self.counts = [0] * (len(self.BOUNDS) + 1)   # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def observe(self, value):
        with self._lock:
            self._observe(value)

    def _observe(self, value):
        """:meth:`observe` for a caller that already holds the lock
        guarding this histogram (an owner folding several observations
        under one acquisition)."""
        value = float(value)
        # bisect_right: value == bound goes to the next bucket, so bucket
        # i holds (BOUNDS[i-1], BOUNDS[i]].  Negative/zero clamps to 0.
        self._add(bisect_right(self.BOUNDS, value) if value > 0.0 else 0,
                  value)

    def _add(self, bucket, value):
        self.counts[bucket] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- statistics ----------------------------------------------------------

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """Estimate the q-th percentile (q in [0, 100]).

        Walks the cumulative bucket counts and interpolates linearly
        inside the bucket containing the rank; the estimate is clamped
        to the exact observed [min, max] so p0/p100 never stray outside
        real data.  Returns 0.0 on an empty histogram.
        """
        if not self.count:
            return 0.0
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if not n:
                continue
            if cumulative + n >= rank:
                lower = self.BOUNDS[i - 1] if i > 0 else 0.0
                upper = self.BOUNDS[i] if i < len(self.BOUNDS) \
                    else (self.max if self.max is not None else lower)
                fraction = (rank - cumulative) / n
                value = lower + (upper - lower) * min(max(fraction, 0.0),
                                                      1.0)
                break
            cumulative += n
        else:
            value = self.max if self.max is not None else 0.0
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def percentiles(self):
        """``{"p50": ..., "p95": ..., "p99": ...}`` in one pass."""
        return {"p50": self.percentile(50), "p95": self.percentile(95),
                "p99": self.percentile(99)}

    # -- aggregation ---------------------------------------------------------

    def merge(self, other):
        """Accumulate *other* into this histogram (same fixed buckets)."""
        snap = other.snapshot()
        with self._lock:
            for i, n in enumerate(snap["counts"]):
                self.counts[i] += n
            self.count += snap["count"]
            self.total += snap["sum"]
            if snap["min"] is not None and (self.min is None
                                            or snap["min"] < self.min):
                self.min = snap["min"]
            if snap["max"] is not None and (self.max is None
                                            or snap["max"] > self.max):
                self.max = snap["max"]
        return self

    def snapshot(self):
        """Plain-dict copy, JSON-serializable and restorable."""
        with self._lock:
            return {"counts": list(self.counts), "count": self.count,
                    "sum": self.total, "min": self.min, "max": self.max}

    @classmethod
    def from_snapshot(cls, snap):
        hist = cls()
        counts = list(snap.get("counts", ()))
        for i, n in enumerate(counts[:len(hist.counts)]):
            hist.counts[i] = int(n)
        hist.count = int(snap.get("count", sum(hist.counts)))
        hist.total = float(snap.get("sum", 0.0))
        hist.min = snap.get("min")
        hist.max = snap.get("max")
        return hist

    def __repr__(self):
        return "Histogram(count=%d, mean=%.3gs, max=%s)" % (
            self.count, self.mean, self.max)


class WindowedHistogram(Histogram):
    """A histogram that also answers "over the last W seconds".

    The cumulative-since-process-start statistics a plain
    :class:`Histogram` keeps cannot drive control decisions: the
    ROADMAP's adaptive-linger rung needs *recent* queue-wait
    percentiles, and an SLO dashboard needs p99 over the trailing
    minute, not the trailing week.  A ``WindowedHistogram`` keeps both:
    it *is* a cumulative :class:`Histogram` (so every existing
    consumer — merge, snapshot, ``format_histograms`` — keeps working),
    plus a fixed ring of ``slices`` sub-histograms, each covering
    ``window_s / slices`` seconds of wall time.

    Rotation is lazy and O(1): each observation computes its slice
    sequence number ``seq = int(now / slice_span)``; the ring slot
    ``seq % slices`` is reset when its stored sequence is stale.  The
    trailing-window view merges the slots whose sequence is within the
    last ``slices`` periods — expired slots are simply skipped, so an
    idle histogram decays to empty without a background thread.

    Memory is bounded at ``(slices + 1)`` bucket arrays.  The inherited
    lock guards the cumulative counts, the ring and every slice in it:
    an observation finds its bucket once and lands in both views under
    that one acquisition.
    """

    __slots__ = ("window_s", "slices", "_slice_span", "_ring", "_seqs",
                 "_clock")

    def __init__(self, window_s=60.0, slices=6, clock=None):
        super().__init__()
        if slices < 1:
            raise ValueError("WindowedHistogram needs >= 1 slice")
        self.window_s = float(window_s)
        self.slices = int(slices)
        self._slice_span = self.window_s / self.slices
        self._ring = [Histogram() for _ in range(self.slices)]
        self._seqs = [None] * self.slices
        #: Injectable for tests; perf_counter in production.
        self._clock = clock if clock is not None else _perf_counter

    # -- recording -----------------------------------------------------------

    def _observe(self, value):
        value = float(value)
        bucket = bisect_right(self.BOUNDS, value) if value > 0.0 else 0
        self._add(bucket, value)                 # cumulative view
        seq = int(self._clock() / self._slice_span)
        slot = seq % self.slices
        if self._seqs[slot] != seq:
            self._ring[slot] = Histogram()       # expired: start fresh
            self._seqs[slot] = seq
        self._ring[slot]._add(bucket, value)

    # -- trailing-window view ------------------------------------------------

    def window(self):
        """A merged :class:`Histogram` of the trailing window."""
        now_seq = int(self._clock() / self._slice_span)
        merged = Histogram()
        with self._lock:
            for i in range(self.slices):
                if self._seqs[i] is not None \
                        and now_seq - self._seqs[i] < self.slices:
                    merged.merge(self._ring[i])
        return merged

    def window_percentiles(self):
        """p50/p95/p99 over the trailing window plus its count."""
        win = self.window()
        stats = win.percentiles()
        stats["count"] = win.count
        return stats

    # -- serialization -------------------------------------------------------

    def snapshot(self):
        """Cumulative snapshot extended with the live window's merge.

        The window is point-in-time by nature, so it serializes as one
        merged sub-snapshot rather than the raw ring; a restored
        histogram reports the window as of when the snapshot was taken.
        """
        snap = super().snapshot()
        win = self.window()
        snap["window"] = {"window_s": self.window_s,
                          "slices": self.slices,
                          "merged": Histogram.snapshot(win)}
        return snap

    @classmethod
    def from_snapshot(cls, snap):
        win_meta = (snap or {}).get("window") or {}
        hist = cls(window_s=win_meta.get("window_s", 60.0),
                   slices=win_meta.get("slices", 6))
        counts = list(snap.get("counts", ()))
        for i, n in enumerate(counts[:len(hist.counts)]):
            hist.counts[i] = int(n)
        hist.count = int(snap.get("count", sum(hist.counts)))
        hist.total = float(snap.get("sum", 0.0))
        hist.min = snap.get("min")
        hist.max = snap.get("max")
        merged = win_meta.get("merged")
        if merged:
            # Park the restored window in slot 0 at the current seq so
            # window() reproduces the snapshot-time view for one span.
            seq = int(hist._clock() / hist._slice_span)
            hist._ring[0] = Histogram.from_snapshot(merged)
            hist._seqs[0] = seq
        return hist

    def __repr__(self):
        return "WindowedHistogram(count=%d, window=%gs/%d slices)" % (
            self.count, self.window_s, self.slices)


class _ScopedObservation:
    """Context manager observing its elapsed wall time into a histogram."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry, name):
        self._registry = registry
        self._name = name

    def __enter__(self):
        self._start = _perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._registry.observe(self._name, _perf_counter() - self._start)
        return False


class _NullObservation:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_OBSERVATION = _NullObservation()


class MetricsRegistry:
    """Named histograms behind one cheap ``enabled`` gate.

    ``observe`` on a disabled registry returns immediately; hot
    instrumentation sites additionally pre-check ``METRICS.enabled``
    before taking timestamps, so a disabled site never calls
    ``perf_counter`` at all.  Enabled observations go through each
    histogram's internal lock, so concurrent callers never lose an
    increment — required now that N serving threads observe into the
    same histograms (the old plain-store fast path lost increments
    exactly the way the executor's retired ``_MEMO_COUNTS`` global did).
    """

    def __init__(self, enabled=False):
        #: Plain attribute read by every instrumentation site.
        self.enabled = bool(enabled)
        self._hists = {}
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def observe(self, name, value):
        """Record one observation (no-op while disabled)."""
        if not self.enabled:
            return
        hist = self._hists.get(name)
        if hist is None:
            with self._lock:
                hist = self._hists.setdefault(name, Histogram())
        hist.observe(value)

    def observe_windowed(self, name, value, window_s=60.0, slices=6):
        """Like :meth:`observe` but the histogram is windowed.

        First caller of a name fixes its window geometry; a name
        already registered as a plain histogram stays plain (the
        cumulative view is a superset, so mixed callers never lose
        data).
        """
        if not self.enabled:
            return
        hist = self._hists.get(name)
        if hist is None:
            with self._lock:
                hist = self._hists.setdefault(
                    name, WindowedHistogram(window_s=window_s,
                                            slices=slices))
        hist.observe(value)

    def timer(self, name):
        """Scoped timer observing a block's wall time (null if disabled)."""
        if not self.enabled:
            return _NULL_OBSERVATION
        return _ScopedObservation(self, name)

    # -- inspection ----------------------------------------------------------

    def get(self, name):
        """The named histogram, or None if nothing was observed."""
        return self._hists.get(name)

    def names(self):
        return sorted(self._hists)

    def percentiles(self, name):
        """p50/p95/p99 dict for one histogram ({} when absent)."""
        hist = self._hists.get(name)
        return hist.percentiles() if hist is not None else {}

    # -- aggregation ---------------------------------------------------------

    def merge(self, other):
        """Accumulate *other*'s histograms into this registry."""
        with self._lock:
            for name, hist in other._hists.items():
                mine = self._hists.get(name)
                if mine is None:
                    self._hists[name] = Histogram.from_snapshot(
                        hist.snapshot())
                else:
                    mine.merge(hist)
        return self

    def snapshot(self):
        """``{name: histogram snapshot dict}`` — JSON round-trippable."""
        return {name: hist.snapshot()
                for name, hist in sorted(self._hists.items())}

    @classmethod
    def from_snapshot(cls, snap):
        registry = cls(enabled=False)
        for name, hist_snap in (snap or {}).items():
            if isinstance(hist_snap, dict) and "window" in hist_snap:
                registry._hists[name] = WindowedHistogram.from_snapshot(
                    hist_snap)
            else:
                registry._hists[name] = Histogram.from_snapshot(hist_snap)
        return registry

    # -- control -------------------------------------------------------------

    def set_enabled(self, enabled):
        self.enabled = bool(enabled)

    def clear(self):
        with self._lock:
            self._hists.clear()

    def __len__(self):
        return len(self._hists)

    def __repr__(self):
        return "MetricsRegistry(%s, %d histograms)" % (
            "enabled" if self.enabled else "disabled", len(self._hists))


def format_histograms(registry, unit_scale=1e3, unit="ms"):
    """Text table of every histogram: count / mean / p50 / p95 / p99 / max.

    Used by both ``text_summary`` and the ``janus-stats`` CLI; returns
    [] when nothing was observed.
    """
    lines = []
    for name in registry.names():
        hist = registry.get(name)
        if hist is None or not hist.count:
            continue
        pct = hist.percentiles()
        lines.append(
            "  %-24s %7d obs  mean %9.3f  p50 %9.3f  p95 %9.3f  "
            "p99 %9.3f  max %9.3f %s"
            % (name, hist.count, hist.mean * unit_scale,
               pct["p50"] * unit_scale, pct["p95"] * unit_scale,
               pct["p99"] * unit_scale, (hist.max or 0.0) * unit_scale,
               unit))
    return lines


def _env_enabled():
    raw = os.environ.get("JANUS_METRICS", "").strip().lower()
    return raw not in ("", "0", "false", "off", "no")


#: The process-wide metrics registry.  Hot paths hold module-level
#: references; it is never replaced, only toggled or cleared.
METRICS = MetricsRegistry(enabled=_env_enabled())


def get_metrics():
    return METRICS


def metrics_enabled():
    return METRICS.enabled


def set_metrics_enabled(enabled):
    """Toggle histogram/health collection; returns the previous setting."""
    previous = METRICS.enabled
    METRICS.set_enabled(enabled)
    return previous


def disabled_site_cost(iterations=200_000):
    """Measured per-site cost (seconds) of a *disabled* metrics gate.

    Times the exact operation every level-0 instrumentation site
    performs — one attribute load plus one truth test on the global
    registry — minus the loop overhead of an empty loop of the same
    length.  The observability overhead gate multiplies this by a
    conservative per-step site count and bounds it against the model's
    step time; if a future change makes the disabled path allocate or
    lock, this number jumps and the gate fails.
    """
    registry = MetricsRegistry(enabled=False)
    r = range(iterations)
    start = _perf_counter()
    for _ in r:
        if registry.enabled:
            raise AssertionError("unreachable")
    gated = _perf_counter() - start
    start = _perf_counter()
    for _ in r:
        pass
    empty = _perf_counter() - start
    return max(gated - empty, 0.0) / iterations
