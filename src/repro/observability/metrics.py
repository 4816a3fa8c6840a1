"""The one metrics registry of the JANUS runtime.

Every number the runtime keeps about itself — flat event counters,
latency histograms, per-function speculation health, serving SLOs,
disk-cache traffic — is an *instrument* declared once in a
:class:`Registry` (name, help, unit, label names) and used through a
handle: ``family.labels(*values)`` is the child that records.  Four
kinds: ``counter`` (``inc``; named ``*_total``), ``gauge`` (``inc``,
or *sampled* by a callback when read), ``histogram``
(``observe``; log-2 buckets, exact count/sum/min/max, p50/p95/p99) and
``windowed`` (a histogram that also answers "over the last W seconds";
named ``*_seconds``).  docs/observability.md, "Instruments", is the
guide and the catalogue of families.

*One locking rule.*  A child owns a lock unless its declaration is
given one; a view that folds several instruments per event declares
them with its own lock, takes it once, and mutates ``child.value`` /
calls ``child._observe`` under that one acquisition.  A counter child
declared without a lock takes none to count: it is a :class:`Counter`,
one cell per thread, and only a read locks.

*One snapshot.*  :meth:`Registry.snapshot` is self-describing (kind,
help, unit and label names travel with the values), so a restored
registry renders without the modules that declared its instruments.  A
labelled counter reports from its first increment and a histogram from
its first observation; gauges and unlabelled counters always report.
:meth:`Registry.clear` zeroes children in place: handles bound before a
clear keep recording after it.  Speculation health, serving SLOs and
disk-cache stats are *views* (:meth:`Registry.view`) that read and
write instruments and own no storage or serialisation.

The process-wide registry is :data:`METRICS`; :data:`COUNTERS` is its
``janus_counter_total{name=...}`` family.  ``METRICS.enabled``
(``JANUS_METRICS`` / :func:`set_metrics_enabled`) is the plain
attribute every latency/health site reads before taking a timestamp:
disabled, a site costs one attribute load and one truth test
(:func:`disabled_site_cost`).  Serving and disk-cache instruments
record regardless.  Standard library only.
"""

import os
import threading
import time
import weakref
from bisect import bisect_right
from collections.abc import Mapping
from itertools import groupby

_perf_counter = time.perf_counter

#: Shared log-spaced bucket upper bounds (seconds): 1 µs doubling up to
#: ~134 s, 28 buckets; values beyond the last bound land in an overflow
#: bucket.  Every histogram uses the same bounds so any two merge.
BUCKET_BOUNDS = tuple(1e-6 * (2.0 ** i) for i in range(28))

COUNTER, GAUGE, HISTOGRAM, WINDOWED = ("counter", "gauge", "histogram",
                                       "windowed")


class Scalar:
    """A gauge child, or a counter child declared with a view's lock:
    one number behind a lock."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock=None):
        self.value = 0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    def _reset(self):
        self.value = 0


class Counter:
    """A counter child declared without a lock (every :data:`COUNTERS`
    child): one cell per counting thread, which only that thread writes.
    A read, and a thread's first count, fold finished threads' cells
    into the base, so the cells are those of live threads; a read sums
    them.  :meth:`_reset` lowers the base, so a racing count survives."""

    __slots__ = ("_local", "_cells", "_base", "_lock")

    def __init__(self):
        self._local = threading.local()
        self._cells = []        # (weak ref to the counting thread, cell)
        self._base = 0
        self._lock = threading.RLock()  # ``_reset`` reads under it

    def inc(self, amount=1):
        try:
            self._local.cell[0] += amount
        except AttributeError:          # this thread's first count
            self._local.cell = cell = [amount]
            with self._lock:
                self._fold()
                self._cells.append(
                    (weakref.ref(threading.current_thread()), cell))

    @property
    def value(self):
        with self._lock:
            self._fold()
            return self._base + sum(cell[0] for _, cell in self._cells)

    def _fold(self):
        """Move finished threads' cells into the base; lock held."""
        live = []
        for entry in self._cells:
            thread = entry[0]()
            if thread is None or not thread.is_alive():
                self._base += entry[1][0]
            else:
                live.append(entry)
        self._cells = live

    def _reset(self):
        """Zero the count; the caller holds the lock."""
        value = self.value              # folds into the base first
        self._base -= value


class Tally(Mapping):
    """A read-only ``{key: count}`` view of named :class:`Counter` s."""

    __slots__ = ("_counters",)

    def __init__(self, counters):
        self._counters = counters

    def __getitem__(self, key):
        return self._counters[key].value

    def __iter__(self):
        return iter(self._counters)

    def __len__(self):
        return len(self._counters)

    def __repr__(self):
        return repr(dict(self))


def _folded(field):
    """A read of *field* that counts the buffered observations first."""
    def read(self):
        with self._lock:
            self._fold()
            return getattr(self, field)
    return property(read)


class Histogram:
    """Fixed log-bucket histogram with exact count/sum/min/max.

    An observation is buffered — one list append — and counted into its
    bucket when the histogram is read or :attr:`FOLD_AT` of them have
    piled up, so a hot path pays for the bucket search in batches.
    Every read (``count``, ``counts``, ``total``, ``min``, ``max``, a
    percentile, a snapshot) folds the buffer first, under the lock:
    nothing observed before a read is missing from it.

    Thread-safe: ``observe``/``merge``/``snapshot`` serialize on the
    histogram's lock so concurrent callers never lose counts or read a
    torn count/sum pair.
    """

    __slots__ = ("_counts", "_count", "_total", "_min", "_max",
                 "_pending", "_lock", "_feed")

    BOUNDS = BUCKET_BOUNDS
    #: Buffered observations that trigger a fold on the recording path:
    #: enough to count them in one warm loop, few enough that the
    #: observation that pays for the fold is delayed by microseconds.
    FOLD_AT = 32

    counts = _folded("_counts")
    count = _folded("_count")
    total = _folded("_total")
    min = _folded("_min")
    max = _folded("_max")

    def __init__(self, lock=None, feed=None):
        self._lock = lock if lock is not None else threading.Lock()
        #: Called, lock held, before a read counts the buffer: an owner
        #: that logs whole events and observes them later does so now.
        self._feed = feed
        self._reset()

    def _reset(self):
        self._counts = [0] * (len(self.BOUNDS) + 1)  # +1 overflow bucket
        self._count = 0
        self._total = 0.0
        self._min = None
        self._max = None
        self._pending = []

    # -- recording -----------------------------------------------------------

    def observe(self, value):
        with self._lock:
            self._observe(value)

    def _observe(self, value):
        """:meth:`observe` for a caller that already holds the lock
        guarding this histogram (an owner folding several observations
        under one acquisition)."""
        pending = self._pending
        pending.append(float(value))
        if len(pending) >= self.FOLD_AT:
            self._flush()

    def _observe_all(self, values):
        """A loop of :meth:`_observe` over *values*, one list extend per
        :attr:`FOLD_AT`, counted where the loop counts: the state, float
        sum included, is bit-for-bit the loop's.  Lock held by caller."""
        pending = self._pending
        values = [float(value) for value in values]
        while values:
            room = self.FOLD_AT - len(pending)
            pending.extend(values[:room])
            del values[:room]
            if len(pending) >= self.FOLD_AT:
                self._flush()

    def _fold(self):
        """Count everything observed, the owner's log too: a read's
        first step; the caller holds the lock."""
        if self._feed is not None:
            self._feed()
        self._flush()

    def _flush(self):
        """Count the buffer; the owner's log waits for the next read."""
        if self._pending:
            self._absorb(self._pending)
            self._pending.clear()

    def _absorb(self, values):
        # bisect_right: value == bound goes to the next bucket, so bucket
        # i holds [BOUNDS[i-1], BOUNDS[i]).  Negative/zero clamps to 0.
        counts, bounds = self._counts, self.BOUNDS
        for value in values:
            counts[bisect_right(bounds, value) if value > 0.0 else 0] += 1
        self._count += len(values)
        self._total += sum(values)
        low, high = min(values), max(values)
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high

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
            self._fold()
            for i, n in enumerate(snap["counts"]):
                self._counts[i] += n
            self._count += snap["count"]
            self._total += snap["sum"]
            if snap["min"] is not None and (self._min is None
                                            or snap["min"] < self._min):
                self._min = snap["min"]
            if snap["max"] is not None and (self._max is None
                                            or snap["max"] > self._max):
                self._max = snap["max"]
        return self

    def snapshot(self):
        """Plain-dict copy, JSON-serializable and restorable."""
        with self._lock:
            self._fold()
            return {"counts": list(self._counts), "count": self._count,
                    "sum": self._total, "min": self._min,
                    "max": self._max}

    def _restore(self, snap):
        counts = list(snap.get("counts", ()))
        for i, n in enumerate(counts[:len(self._counts)]):
            self._counts[i] = int(n)
        self._count = int(snap.get("count", sum(self._counts)))
        self._total = float(snap.get("sum", 0.0))
        self._min = snap.get("min")
        self._max = snap.get("max")
        return self

    @classmethod
    def from_snapshot(cls, snap):
        return cls()._restore(snap)

    def __repr__(self):
        return "Histogram(count=%d, mean=%.3gs, max=%s)" % (
            self.count, self.mean, self.max)


class WindowedHistogram(Histogram):
    """A histogram that also answers "over the last W seconds".

    The cumulative-since-process-start statistics a plain
    :class:`Histogram` keeps cannot drive control decisions: an
    adaptive-linger policy needs *recent* queue-wait percentiles, and an
    SLO dashboard needs p99 over the trailing minute, not the trailing
    week.  A ``WindowedHistogram`` keeps both: it *is* a cumulative
    :class:`Histogram`, plus a fixed ring of ``slices`` sub-histograms,
    each covering ``window_s / slices`` seconds of wall time.

    Rotation is lazy and O(1): each observation computes its slice
    sequence number ``seq = int(now / slice_span)``; the ring slot
    ``seq % slices`` is reset when its stored sequence is stale.  The
    trailing-window view merges the slots whose sequence is within the
    last ``slices`` periods — expired slots are simply skipped, so an
    idle histogram decays to empty without a background thread.

    Memory is bounded at ``(slices + 1)`` bucket arrays.  The inherited
    lock guards the cumulative counts, the ring and every slice in it;
    the buffered observations all fell into one slice (a new slice
    folds the buffer first) and are counted into both views together.
    """

    __slots__ = ("window_s", "slices", "_slice_span", "_ring", "_seqs",
                 "_seq", "_clock")

    def __init__(self, window_s=60.0, slices=6, clock=None, lock=None,
                 feed=None):
        if slices < 1:
            raise ValueError("WindowedHistogram needs >= 1 slice")
        self.window_s = float(window_s)
        self.slices = int(slices)
        self._slice_span = self.window_s / self.slices
        #: Injectable for tests; perf_counter in production.
        self._clock = clock if clock is not None else _perf_counter
        super().__init__(lock, feed)

    def _reset(self):
        super()._reset()
        self._ring = [Histogram() for _ in range(self.slices)]
        self._seqs = [None] * self.slices
        #: The slice the buffered observations fell into.
        self._seq = None

    # -- recording -----------------------------------------------------------

    def _observe(self, value, now=None):
        """*now*: a reading of the clock the caller has already taken
        (an owner stamping several windowed histograms at once)."""
        self._observe_all((value,), now)

    def _observe_all(self, values, now=None):
        """A loop of :meth:`_observe` over *values*, bit-for-bit, with one
        reading of the clock (*now*, or read here); a list or tuple *now*
        stamps each value, and each run in one slice is then one step."""
        if isinstance(now, (list, tuple)):
            span = self._slice_span
            for _, run in groupby(zip(now, values),
                                  lambda stamped: int(stamped[0] / span)):
                stamps, run_values = zip(*run)
                self._observe_all(run_values, stamps[0])
            return
        seq = int((self._clock() if now is None else now)
                  / self._slice_span)
        if seq != self._seq:            # a new slice counts the buffer
            self._flush()
            self._seq = seq
        super()._observe_all(values)

    def _absorb(self, values):
        seq = self._seq
        slot = seq % self.slices
        if self._seqs[slot] != seq:
            self._ring[slot] = Histogram()       # expired: start fresh
            self._seqs[slot] = seq
        self._ring[slot]._absorb(values)
        super()._absorb(values)                  # cumulative view

    # -- trailing-window view ------------------------------------------------

    def window(self):
        """A merged :class:`Histogram` of the trailing window."""
        now_seq = int(self._clock() / self._slice_span)
        merged = Histogram()
        with self._lock:
            self._fold()
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
        snap["window"] = {"window_s": self.window_s,
                          "slices": self.slices,
                          "merged": Histogram.snapshot(self.window())}
        return snap

    def _restore(self, snap):
        super()._restore(snap)
        merged = (snap.get("window") or {}).get("merged")
        if merged:
            # Park the restored window in slot 0 at the current seq so
            # window() reproduces the snapshot-time view for one span.
            self._ring[0] = Histogram.from_snapshot(merged)
            self._seqs[0] = int(self._clock() / self._slice_span)
        return self

    @classmethod
    def from_snapshot(cls, snap):
        meta = snap.get("window") or {}
        return cls(window_s=meta.get("window_s", 60.0),
                   slices=meta.get("slices", 6))._restore(snap)

    def __repr__(self):
        return "WindowedHistogram(count=%d, window=%gs/%d slices)" % (
            self.count, self.window_s, self.slices)


class Family:
    """One declared instrument: a name, a kind, and a child per label
    set.  Created through :class:`Registry`; never replaced."""

    def __init__(self, name, kind, help, unit, labelnames, lock, sample,
                 window, feed=None):
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        self.labelnames = tuple(labelnames)
        #: ``(window_s, slices)`` of a windowed family's children.
        self.window = window
        self._lock = lock               # shared by the children, or None
        self._sample = sample           # gauge callback, or None
        self._feed = feed               # histogram children's, or None
        self._children = {}
        self._create_lock = threading.Lock()
        if not self.labelnames and sample is None:
            self.labels()               # an unlabelled child starts at 0

    def labels(self, *values):
        """The child recording under these label values (strings, one
        per declared label name); created on first use."""
        child = self._children.get(values)
        if child is None:
            if len(values) != len(self.labelnames):
                raise ValueError("%s takes labels %r, got %r"
                                 % (self.name, self.labelnames, values))
            with self._create_lock:
                child = self._children.get(values)
                if child is None:
                    child = self._children[values] = self._new_child()
        return child

    def _new_child(self):
        if self.kind == HISTOGRAM:
            return Histogram(self._lock, self._feed)
        if self.kind == WINDOWED:
            return WindowedHistogram(*self.window, lock=self._lock,
                                     feed=self._feed)
        if self.kind == COUNTER and self._lock is None:
            return Counter()
        return Scalar(self._lock)

    def samples(self):
        """``[(label values, value)]`` sorted by label values: a number
        for counters and gauges, the histogram child itself otherwise.
        Labelled counters never incremented and histograms never
        observed are left out."""
        if self._sample is not None:
            return sorted(self._sample().items())
        with self._create_lock:
            children = sorted(self._children.items())
        if self.kind in (HISTOGRAM, WINDOWED):
            return [(values, child) for values, child in children
                    if child.count]
        return [(values, child.value) for values, child in children
                if child.value or self.kind == GAUGE or not values]

    def _reset(self):
        with self._create_lock:
            children = list(self._children.values())
        for child in children:
            with child._lock:
                child._reset()


class Registry:
    """Typed, labelled instruments behind one cheap ``enabled`` gate."""

    def __init__(self, enabled=False):
        #: Plain attribute read by every latency/health site.
        self.enabled = bool(enabled)
        self._families = {}
        self._views = {}
        #: RLock: creating a view declares its families.
        self._lock = threading.RLock()

    # -- declaring -----------------------------------------------------------

    def _declare(self, kind, name, help, unit, labels, lock, sample=None,
                 window=None, feed=None):
        if (kind == COUNTER) != name.endswith("_total"):
            raise ValueError("%s: counters, and only counters, are named "
                             "*_total" % name)
        if kind == WINDOWED and not name.endswith("_seconds"):
            raise ValueError("%s: windowed histograms are named *_seconds"
                             % name)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = Family(
                    name, kind, help, unit, labels, lock, sample, window,
                    feed)
            elif family.kind != kind \
                    or family.labelnames != tuple(labels):
                raise ValueError(
                    "%s is already declared as a %s with labels %r"
                    % (name, family.kind, family.labelnames))
        return family

    def counter(self, name, help, unit="", labels=(), lock=None):
        return self._declare(COUNTER, name, help, unit, labels, lock)

    def gauge(self, name, help, unit="", labels=(), lock=None,
              sample=None):
        """A stored gauge, or with *sample* one computed on read:
        ``sample()`` returns ``{label values tuple: value}``.  A family
        that already exists (a restored one holds stored values) keeps
        how it reads."""
        return self._declare(GAUGE, name, help, unit, labels, lock,
                             sample)

    def histogram(self, name, help, unit="seconds", labels=(), lock=None,
                  feed=None):
        """*feed* (also of :meth:`windowed`): called with *lock* held
        before a child counts its buffer — see :class:`Histogram`."""
        return self._declare(HISTOGRAM, name, help, unit, labels, lock,
                             feed=feed)

    def windowed(self, name, help, unit="seconds", labels=(), lock=None,
                 window_s=60.0, slices=6, feed=None):
        return self._declare(WINDOWED, name, help, unit, labels, lock,
                             window=(window_s, slices), feed=feed)

    # -- inspection ----------------------------------------------------------

    def families(self):
        """Every declared family, sorted by name."""
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    def get(self, name):
        """The named family, or None."""
        return self._families.get(name)

    def histograms(self):
        """``(family, label values, histogram)`` for every histogram,
        windowed or not, that has observations."""
        return [(family, values, hist) for family in self.families()
                if family.kind in (HISTOGRAM, WINDOWED)
                for values, hist in family.samples()]

    def view(self, cls):
        """The one *cls* view over this registry (created on first use):
        ``registry.view(ServingStats).rejection_rate``."""
        with self._lock:
            view = self._views.get(cls)
            if view is None:
                view = self._views[cls] = cls(self)
            return view

    # -- serialization -------------------------------------------------------

    def snapshot(self):
        """``{family name: {kind, help, unit, labels, samples}}`` for the
        families that have something to report — JSON round-trippable."""
        snap = {}
        for family in self.families():
            samples = family.samples()
            if not samples:
                continue
            if family.kind in (HISTOGRAM, WINDOWED):
                samples = [(values, hist.snapshot())
                           for values, hist in samples]
            snap[family.name] = {
                "kind": family.kind, "help": family.help,
                "unit": family.unit, "labels": list(family.labelnames),
                "samples": [[list(values), value]
                            for values, value in samples]}
        return snap

    @classmethod
    def from_snapshot(cls, snap):
        """A disabled registry holding what *snap* recorded; sampled
        gauges come back as stored ones."""
        registry = cls()
        for name, meta in (snap or {}).items():
            samples = meta["samples"]
            window = None
            if meta["kind"] == WINDOWED:
                geometry = samples[0][1].get("window") or {}
                window = (geometry.get("window_s", 60.0),
                          geometry.get("slices", 6))
            family = registry._declare(
                meta["kind"], name, meta["help"], meta["unit"],
                meta["labels"], None, window=window)
            for values, value in samples:
                child = family.labels(*values)
                if isinstance(child, Histogram):
                    child._restore(value)
                else:               # a fresh counter or gauge counts up
                    child.inc(value)
        return registry

    def clear(self):
        """Zero every child in place — handles stay bound — and reset
        the views' event logs."""
        for family in self.families():
            family._reset()
        with self._lock:
            views = list(self._views.values())
        for view in views:
            view.reset_log()

    def __repr__(self):
        return "Registry(%s, %d families)" % (
            "enabled" if self.enabled else "disabled", len(self._families))


class View:
    """Base of the registry views (health, serving, disk cache): a table
    of scalar instruments declared under one lock and read back as
    plain attributes — ``view.requests`` is the value of the child of
    ``<PREFIX>requests_total`` this view is bound to."""

    #: ``(family name, help[, unit])`` rows.  The name carries the rest:
    #: ``*_total`` is a counter, anything else a gauge, and the
    #: attribute is the name without :attr:`PREFIX` and ``_total``.
    SCALARS = ()
    PREFIX = ""
    #: Label names shared by the :attr:`SCALARS` families.
    LABELS = ()

    @classmethod
    def declare(cls, registry, lock):
        """Declare :attr:`SCALARS` in *registry*, every child guarded
        by *lock*; returns ``{attribute: family}``."""
        families = {}
        for name, help, *unit in cls.SCALARS:
            attr, kind = name[len(cls.PREFIX):], GAUGE
            if attr.endswith("_total"):
                attr, kind = attr[:-len("_total")], COUNTER
            families[attr] = registry._declare(
                kind, name, help, unit[0] if unit else "", cls.LABELS,
                lock)
        return families

    def _bind(self, families, *labelvalues):
        """Read ``self.<attribute>`` from, and :meth:`_add` to, the
        children of *families* under *labelvalues*."""
        self._scalars = {attr: family.labels(*labelvalues)
                         for attr, family in families.items()}

    def _add(self, attr, amount=1):
        """Bump one bound scalar; the caller holds the view's lock."""
        self._scalars[attr].value += amount

    def __getattr__(self, attr):
        scalars = self.__dict__.get("_scalars")
        if scalars is not None and attr in scalars:
            return scalars[attr].value
        raise AttributeError(attr)

    def reset_log(self):
        """Drop state the registry does not hold (none by default)."""


def sample_name(family, values):
    """``name`` or ``name{v1,v2}`` — the report's label for one child."""
    if not values:
        return family.name
    return "%s{%s}" % (family.name, ",".join(str(v) for v in values))


def _env_enabled():
    raw = os.environ.get("JANUS_METRICS", "").strip().lower()
    return raw not in ("", "0", "false", "off", "no")


#: The process-wide registry.  Hot paths hold module-level references;
#: it is never replaced, only toggled or cleared.
METRICS = Registry(enabled=_env_enabled())

#: Flat runtime event counters: ``COUNTERS.labels("cache.hits").inc()``.
COUNTERS = METRICS.counter("janus_counter_total",
                           "Flat runtime counters by name.",
                           labels=("name",))


def counter_values(registry=None):
    """``{name: value}`` of *registry*'s flat ``janus_counter_total``
    family (default: :data:`COUNTERS`) — what the text summary prints,
    tests diff and benchmarks embed."""
    family = COUNTERS if registry is None \
        else registry.get("janus_counter_total")
    if family is None:
        return {}
    return {values[0]: value for values, value in family.samples()}


def set_metrics_enabled(enabled):
    """Toggle latency/health collection; returns the previous setting."""
    previous, METRICS.enabled = METRICS.enabled, bool(enabled)
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
    registry = Registry(enabled=False)
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
