"""The read-write lock guarding each JANUS function's compiled artifact.

:class:`RWLock` is a writer-preferring read-write lock over the
artifact slot of a :class:`~repro.janus.api.JanusFunction`.  Concurrent
callers take the read side for the (cheap) lookup-and-precheck, pin the
:class:`~repro.janus.compiled.CompiledGraph` they retrieved, and then
execute it *outside* the lock — RCU-style, so a long graph run never
blocks the swap and the swap never blocks warm callers.  The write side
covers only the pointer transitions: retiring a failed entry and
publishing a regenerated one.  Building an artifact is serialized
apart, by the function's one compile lock (``_compiling``), which is
only ever tried: a caller that does not get it is served imperatively.

The module is deliberately free of JANUS imports so every runtime layer
can use it without cycles.
"""

import threading


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
