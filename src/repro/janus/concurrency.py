"""Concurrency primitives for the multi-tenant JANUS runtime.

The paper's serving story (§4.4) assumes the guarded-graph executor can
answer many callers while profiling and regeneration proceed in the
background.  Three primitives make that true for
:class:`~repro.janus.api.JanusFunction`:

* :class:`RWLock` — a writer-preferring read-write lock guarding each
  function's compiled-artifact slot.  Concurrent callers take the read
  side for the (cheap) lookup-and-precheck, pin the
  :class:`~repro.janus.compiled.CompiledGraph` they retrieved, and then
  execute it *outside* the lock — RCU-style, so a long graph run never
  blocks the swap and the swap never blocks warm callers.  The write
  side covers only the pointer transitions: retiring a failed entry and
  publishing a regenerated one.

* :class:`TicketTable` — per-signature single-flight tickets.  When an
  assumption fails under N concurrent callers, every one of them
  observes the failure, but exactly one wins the recompile ticket and
  triggers regeneration; the rest are served by the imperative fallback
  until the new artifact lands.  The same table collapses the cold-start
  stampede: N threads racing past the profiling phase produce one
  compile, not N.

* :func:`recompile_pool` — a small shared daemon thread pool that runs
  regenerations off the request path when
  ``JanusConfig.recompile_workers > 0``.  With the default (0 workers)
  the ticket winner compiles inline, which preserves the historical
  single-caller behaviour exactly.

All three are deliberately free of JANUS imports so every runtime layer
(cache, dispatch, serving) can use them without cycles.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from .. import host


class RWLock:
    """A writer-preferring read-write lock.

    Many readers may hold the lock simultaneously; a writer holds it
    exclusively.  Pending writers block *new* readers (preference), so a
    steady stream of warm callers cannot starve an artifact swap.  Both
    sides are reentrant-free by design — the runtime's critical sections
    are a handful of dict operations, never nested.

    Use via the context-manager views::

        with lock.read():   ...   # shared
        with lock.write():  ...   # exclusive
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # -- read side -----------------------------------------------------------

    def acquire_read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self):
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def read(self):
        return _RWView(self, write=False)

    # -- write side ----------------------------------------------------------

    def acquire_write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1

    def release_write(self):
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    def write(self):
        return _RWView(self, write=True)


class _RWView:
    """Context-manager view over one side of an :class:`RWLock`."""

    __slots__ = ("_lock", "_write")

    def __init__(self, lock, write):
        self._lock = lock
        self._write = write

    def __enter__(self):
        if self._write:
            self._lock.acquire_write()
        else:
            self._lock.acquire_read()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._write:
            self._lock.release_write()
        else:
            self._lock.release_read()
        return False


class TicketTable:
    """Single-flight tickets keyed by call signature.

    ``claim(key)`` returns True for exactly one claimant until the
    matching ``release(key)``; every other claimant (and ``in_flight``)
    sees the ticket as taken.  The winner owns the regeneration for that
    signature; losers serve the imperative fallback — the paper's §4.3
    recovery path — instead of duplicating compile work or blocking.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight = set()

    def claim(self, key):
        """Atomically claim the ticket for *key*; True iff we won it."""
        with self._lock:
            if key in self._inflight:
                return False
            self._inflight.add(key)
            return True

    def release(self, key):
        with self._lock:
            self._inflight.discard(key)

    def in_flight(self, key):
        with self._lock:
            return key in self._inflight

    def __len__(self):
        with self._lock:
            return len(self._inflight)


_POOL_LOCK = threading.Lock()
_POOL = None
_POOL_WORKERS = 0


def recompile_pool(workers):
    """The shared background-recompile pool, sized to *workers*.

    Lazily created; grows (never shrinks) to the largest request so
    functions with different ``recompile_workers`` settings share one
    pool.  Threads are daemonic — an interpreter exit never waits on a
    speculative rebuild.
    """
    global _POOL, _POOL_WORKERS
    workers = max(1, int(workers))
    with _POOL_LOCK:
        if _POOL is None or workers > _POOL_WORKERS:
            _POOL = ThreadPoolExecutor(
                max_workers=max(workers, min(4, host.usable_cpus())),
                thread_name_prefix="janus-recompile")
            _POOL_WORKERS = workers
        return _POOL
