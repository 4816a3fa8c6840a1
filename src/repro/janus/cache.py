"""The graph cache (paper figure 2).

Compiled graphs are cached per *call signature* — the type-level summary
of the arguments (tensor dtype/rank, Python value types).  Retrieval
validates the entry's precheckable assumptions (constant values, shape
specs, object identities); a failed precheck is a cache miss, after which
the entry is relaxed and regenerated (figure 2, check 1).

Two properties matter for long-running programs:

* **Bounded size** — workloads that keep producing novel signatures
  (e.g. TreeNN, one graph per parse-tree topology; paper §6.3.2) would
  otherwise grow the cache without limit.  The cache is an LRU: storing
  past ``max_entries`` evicts the least-recently-retrieved artifact.
* **Lifetime accounting of what it does itself** — ``stores``,
  ``evictions`` and ``invalidations`` survive invalidate/evict/clear.
  Retrieval outcomes are not the cache's to count: a hit, a precheck
  miss and an assumption failure are dispatch events, counted once in
  the owning function's ``stats``, and ``cache_stats()`` derives its
  ``hits`` / ``misses`` / ``assumption_failures`` from those.

Population and eviction emit ``cache_store`` / ``cache_evict`` /
``cache_invalidate`` trace events (retrieval outcomes — ``cache_hit`` /
``cache_miss`` — are emitted by :mod:`repro.janus.api`, which knows the
precheck result); see :mod:`repro.observability`.

The cache is **thread-safe**: every structural operation (lookup / store
/ invalidate / seed bookkeeping) and its count runs under one narrow
internal lock, so N concurrent callers share a function's cache without
torn LRU state or lost counts.  Entries handed
out by ``lookup`` stay valid after a concurrent ``invalidate`` — the
caller pins the artifact it retrieved (RCU-style; see
:mod:`repro.janus.concurrency`), it just won't be found again.
"""

import threading
from collections import OrderedDict

from ..imperative.eager import Tensor
from ..observability import COUNTERS, HEALTH, METRICS, TRACER
from ..tensor import TensorValue
from . import specialization as spec


class CacheEntry:
    """One compiled graph artifact, as the cache holds it."""

    __slots__ = ("compiled",)

    #: Invalidation removes an entry (RCU), it never marks one: constant,
    #: kept readable for callers that walk the warm path by hand.
    dirty = False

    def __init__(self, compiled):
        self.compiled = compiled

    @property
    def generated(self):
        return self.compiled.generated

    @property
    def executor(self):
        return self.compiled.executor


class GraphCache:
    """Signature-keyed bounded LRU cache of compiled graph artifacts."""

    #: Bound on remembered regeneration seeds (invalidation is rare, so
    #: this stays tiny; oldest dropped beyond it).
    MAX_SEEDS = 8

    def __init__(self, max_entries=None):
        #: Owning janus.function name for health attribution (set by
        #: the JanusFunction constructor; None for standalone use).
        self.owner = None
        #: One lock for entries, seeds, and their counts.  RLock:
        #: ``store`` may evict (and record health) while already inside
        #: the critical section.
        self._lock = threading.RLock()
        self._entries = OrderedDict()
        #: signature -> RegenerationSeed left behind by the invalidated
        #: entry for that signature; consumed by the next regeneration.
        self._seeds = OrderedDict()
        #: Maximum live entries (None = unbounded).  May be adjusted at
        #: any time; enforced on the next ``store``.
        self.max_entries = max_entries
        # Lifetime counts: survive invalidation and eviction.
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0

    def signature_of(self, args):
        """The type-level cache key for a positional-argument tuple.

        Tensor arguments take a fast path: their signature is exactly
        ``("T", dtype name, rank)``, computable without building a
        ValueSpec — this runs on *every* warm dispatch, and workloads
        like TreeNN pay it per tree node.  Everything else goes through
        :func:`repro.janus.specialization.observe`.
        """
        out = []
        for a in args:
            tv = a.value if type(a) is Tensor else a
            if type(tv) is TensorValue:
                out.append(("T", tv.dtype.name, tv.array.ndim))
            else:
                out.append(spec.observe(a).signature())
        return tuple(out)

    def lookup(self, signature):
        with self._lock:
            entry = self._entries.get(signature)
            if entry is not None:
                self._entries.move_to_end(signature)
            return entry

    # -- population ----------------------------------------------------------

    def store(self, signature, entry):
        with self._lock:
            self._entries[signature] = entry
            self._entries.move_to_end(signature)
            self.stores += 1
            COUNTERS.labels("cache.stores").inc()
            if TRACER.level:
                TRACER.instant("cache_store", entry.generated.graph.name,
                               signature=repr(signature),
                               entries=len(self._entries))
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    evicted_sig, evicted = self._entries.popitem(last=False)
                    self.evictions += 1
                    COUNTERS.labels("cache.evictions").inc()
                    if METRICS.enabled and self.owner is not None:
                        HEALTH.function(self.owner).record_cache_eviction()
                    if TRACER.level:
                        TRACER.instant("cache_evict",
                                       evicted.generated.graph.name,
                                       signature=repr(evicted_sig),
                                       entries=len(self._entries))

    def invalidate(self, signature, entry=None):
        """Drop one entry, counting the drop.  With *entry*, drop it only
        while it is still the one cached (compare-and-pop): a caller
        pinned to a retired artifact must not retire its replacement."""
        with self._lock:
            if entry is not None and \
                    self._entries.get(signature) is not entry:
                return None
            entry = self._entries.pop(signature, None)
            if entry is not None:
                self.invalidations += 1
                COUNTERS.labels("cache.invalidations").inc()
                if METRICS.enabled and self.owner is not None:
                    HEALTH.function(self.owner).record_cache_invalidation()
                if TRACER.level:
                    TRACER.instant("cache_invalidate",
                                   entry.generated.graph.name,
                                   signature=repr(signature))
            return entry

    # -- regeneration seeds ---------------------------------------------------

    def remember_seed(self, signature, seed):
        """Keep the invalidated entry's artifact around for regeneration.

        The next ``take_seed`` for the same signature pops it; seeds
        beyond ``MAX_SEEDS`` signatures drop oldest-first so a workload
        churning through signatures cannot pin arbitrarily many dead
        graphs alive.
        """
        with self._lock:
            self._seeds[signature] = seed
            self._seeds.move_to_end(signature)
            while len(self._seeds) > self.MAX_SEEDS:
                self._seeds.popitem(last=False)

    def take_seed(self, signature):
        """Pop and return the seed for *signature* (None if absent)."""
        with self._lock:
            return self._seeds.pop(signature, None)

    def invalidate_all(self):
        """Drop every live entry, each counted and traced as one
        invalidation.  Used by the co-execution planner when a plan is
        torn down (all fragment artifacts become unreachable at once).
        """
        with self._lock:
            for signature in list(self._entries):
                self.invalidate(signature)
            self._seeds.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def entries(self):
        """Live entries in LRU order (oldest first); for introspection."""
        with self._lock:
            return list(self._entries.items())

    def stats(self):
        with self._lock:
            return {
                "entries": len(self._entries),
                "stores": self.stores,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
