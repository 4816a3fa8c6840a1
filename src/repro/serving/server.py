"""Multi-tenant serving for ``@janus.function`` endpoints.

A :class:`Server` exposes registered janus functions to N concurrent
client threads.  Each endpoint owns a bounded request queue and no
thread: the client thread that *waits* on a request is the dispatcher —
it takes the endpoint's lead, runs the queue FIFO on its own thread
until its own request is resolved, then hands the lead to the oldest
waiting client (leader/follower; see :class:`_Endpoint`).  A
``Server.call`` that would lead a batch of exactly itself — the lead is
free, nothing is queued, no linger is configured — skips the queue as
well: it takes the lead, runs its own arguments and hands the lead on.
The lead is marked with its thread, so a request waited on from inside
that endpoint's function (a nested ``call`` too) runs inline instead of
queueing behind itself.  Requests that do queue are dispatched singly
or as a **dynamically batched** group: shape-compatible requests (same
per-argument dtype and trailing shape) are stacked along axis 0, run as
one graph run, and the outputs split back per request, within
``ServingConfig.max_batch_size`` and the ``batch_linger_s`` wait.

Correctness contract for batching: a batchable endpoint must be
*batch-polymorphic* — ``f(stack([a, b]))`` must equal
``stack([f(a), f(b)])`` row-for-row, which holds for the standard
per-example model functions the paper serves.  The server verifies the
stacked output's leading dimension; if the result does not split back
into per-request rows (or the stacked call raises), the batch is re-run
request by request — counted (``janus_serving_batch_fallbacks_total``)
and flagged on its requests, so a non-conforming endpoint is slower,
never wrong, and never silently so.  Endpoints registered with
``batchable=False`` (reductions, scalar outputs, optimizer steps that
must see single examples) always dispatch singly.

Below the server is the concurrency-safe dispatch layer of
:mod:`repro.janus.api` (docs/serving.md).  Admission, queue-depth,
batch-size, queue-wait and per-outcome latency metrics land in
:data:`repro.observability.SERVING` — folded once per dispatch, stamped
where a request is resolved — and every request leaves its stamps, and
whatever was noted on its way, with the flight recorder; both surface
through ``janus-stats`` (text and Prometheus).
"""

import threading
import time
from itertools import accumulate

import numpy as np

from ..imperative.eager import Tensor
from ..observability import RECORDER, SERVING, TRACER, reqtrace
from ..tensor import TensorValue

__all__ = ["Server", "ServingConfig", "ServerClosed", "ServerOverloaded"]


class ServerOverloaded(RuntimeError):
    """Raised to the client when the endpoint queue is at its bound."""


class ServerClosed(RuntimeError):
    """Raised to the client when the server is shut down."""


class ServingConfig:
    """Tunables of the serving layer, given to :class:`Server`."""

    def __init__(self, max_batch_size=8, batch_linger_s=0.002,
                 max_queue_depth=64):
        #: Requests coalesced into one dispatch (1 disables batching).
        self.max_batch_size = max(1, int(max_batch_size))
        #: How long a leading client holds the first request of a
        #: batch waiting for shape-compatible companions.  0 dispatches
        #: whatever is already queued without waiting.
        self.batch_linger_s = max(0.0, float(batch_linger_s))
        #: Admission bound per endpoint queue; arrivals beyond it are
        #: rejected with :class:`ServerOverloaded` (and counted).
        self.max_queue_depth = max(1, int(max_queue_depth))

    def __repr__(self):
        return ("ServingConfig(max_batch_size=%d, batch_linger_s=%g, "
                "max_queue_depth=%d)" % (self.max_batch_size,
                                         self.batch_linger_s,
                                         self.max_queue_depth))


def _group_key(args):
    """``(key, rows)``: the batch-compatibility key, None when the call
    cannot batch.  Two requests may share a batch iff every argument
    position agrees on (numpy dtype, trailing shape) and every argument
    is a tensor with a batch (leading) dimension."""
    if not args:
        return None, 0
    key = []
    rows = None
    for arg in args:
        arr = arg.value.array if isinstance(arg, Tensor) \
            else arg if isinstance(arg, np.ndarray) else None
        if arr is None or not arr.shape:
            return None, 0
        if rows is None:
            rows = arr.shape[0]
        elif arr.shape[0] != rows:
            return None, 0
        key.append((arr.dtype, arr.shape[1:]))
    return tuple(key), rows


#: ``_Request.key`` until a leader first has to compare the request.
_UNKEYED = object()

_perf_counter = time.perf_counter
_get_ident = threading.get_ident


class _Request:
    """One submitted client call: the handle ``submit`` returns.

    Stamped as it moves — ``enqueued`` at submit, ``resolved`` once its
    dispatch has been accounted — so a whole batch is folded into the
    stats in one call.  ``result`` / ``error`` are final once
    :meth:`wait` has returned True.
    """

    __slots__ = ("endpoint", "args", "key", "rows", "ctx", "enqueued",
                 "outcome", "result", "error", "resolved", "waiter")

    def __init__(self, endpoint, args, started, ctx):
        self.endpoint = endpoint
        self.args = args
        self.key = _UNKEYED
        self.rows = 0
        #: Request-trace context, activated around the endpoint function
        #: by whichever client thread dispatches this request.
        self.ctx = ctx
        self.enqueued = started
        self.outcome = None         # "ok" / "error" once executed
        self.result = None
        self.error = None
        self.resolved = None        # perf_counter stamp; None = pending
        #: The Event a client blocked behind another leader sleeps on;
        #: allocated only when one actually blocks.
        self.waiter = None

    @property
    def done(self):
        """Event-style view of the handle (``done.wait()``,
        ``done.is_set()``): the request itself, so no second object."""
        return self

    def is_set(self):
        return self.resolved is not None

    def group(self):
        """The batch-compatibility key (None: cannot batch), worked out
        when a leader first has another request to stack this one with
        — a request dispatched alone never pays for it."""
        if self.key is _UNKEYED:
            self.key, self.rows = _group_key(self.args)
        return self.key

    def wait(self, timeout=None):
        """Block until the request is resolved; True if it is.  If no
        other client is dispatching, the waiting thread runs queued
        batches itself meanwhile (see :meth:`_Endpoint._lead`)."""
        return self.resolved is not None \
            or self.endpoint._await(self, timeout)


class _Endpoint:
    """One registered function plus its queue; dispatch is caller-runs.

    ``submit`` only enqueues.  The first client that *waits* on an
    unresolved request takes the endpoint's lead and serves the queue
    FIFO on its own thread until its own request is resolved; clients
    that wait meanwhile sleep on a per-request Event.  A departing
    leader promotes the oldest queued request with a sleeping waiter —
    one wake-up per contended batch.  A blocking :meth:`call` that would
    lead a batch of exactly itself skips the queue altogether.

    ``lock`` guards ``queue``, ``leader``, ``leading``, ``lingering``
    and every request's ``waiter``; results are written and accounted
    outside it, then published (``_wake``) under it.  ``cond`` is a
    condition on the same lock that only a lingering leader waits on.
    """

    def __init__(self, name, fn, batchable, server):
        self.name = name
        self.fn = fn
        self.batchable = batchable
        self.server = server
        self.trace_name = "serve.%s" % name
        self.queue = []
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        #: The lead marker — ident of the thread holding the lead —
        #: and the queued request it leads for (None for a solo call).
        self.leader = self.leading = None
        self.lingering = False      # leader is waiting on cond

    # -- submitting ----------------------------------------------------------

    def submit(self, args):
        """Enqueue one call; returns its handle without running it."""
        config = self.server.config
        started = _perf_counter()
        ctx = reqtrace.new_request(self.trace_name, started)
        request = _Request(self, args, started, ctx)
        with self.lock:
            if self.server.closed:
                raise ServerClosed("server is shut down")
            depth = len(self.queue)
            rejected = depth >= config.max_queue_depth
            if not rejected:
                self.queue.append(request)
                if self.lingering:
                    self.cond.notify()
        if rejected:
            now = _perf_counter()
            SERVING.record_reject(now - started)
            if ctx is not None:
                ctx.flags.add("rejected")
                ctx.close("rejected", now, "queue full")
                RECORDER.record(ctx)
            raise ServerOverloaded(
                "endpoint %r queue is full (%d requests)"
                % (self.name, depth))
        SERVING.record_enqueue(depth)
        return request

    # -- one blocking call ---------------------------------------------------

    def call(self, args):
        """Run one call to completion on the calling thread.

        It runs alone — no request object, no queue — when it would
        lead a batch of exactly itself anyway (the lead is free, nothing
        is queued and :meth:`_fill` would not wait), and is accounted as
        a batch of 1 dispatched after no wait, in one fold.  Anything
        else queues: ``submit`` + ``wait`` — which, for a call from
        inside the endpoint function, serves it inline (:meth:`_await`).
        """
        started = _perf_counter()
        SERVING.client_started()
        with self.lock:
            solo = self.leader is None and not self.queue \
                and not TRACER.level and not self._coalesces() \
                and not self.server.closed
            if solo:
                self.leader = _get_ident()
        if not solo:
            try:
                request = self.submit(args)
                request.wait()
            finally:
                SERVING.client_finished()
            if request.error is not None:
                raise request.error
            return request.result
        ctx = reqtrace.new_request(self.trace_name, started)
        token = reqtrace.activate(ctx)
        detail = None
        try:
            return self.fn(*args)
        except BaseException as exc:
            detail = type(exc).__name__
            raise
        finally:
            reqtrace.deactivate(token)
            now = _perf_counter()
            with self.lock:
                self._hand_on()
            outcome = "ok" if detail is None else "error"
            SERVING.record_solo(now - started, outcome, now)
            if ctx is not None:
                ctx.close(outcome, now, detail, started)
                RECORDER.record(ctx)

    # -- waiting: lead or follow ---------------------------------------------

    def _await(self, request, timeout):
        deadline = None if timeout is None \
            else _perf_counter() + timeout
        while True:
            with self.lock:
                if request.resolved is not None:
                    return True
                remaining = None if deadline is None \
                    else deadline - _perf_counter()
                waiter = request.waiter
                if remaining is not None and remaining <= 0:
                    # Leaving unresolved: nobody sleeps on this request
                    # any more, so a promotion it received moves on.
                    request.waiter = None
                    if waiter is not None and waiter.is_set() \
                            and self.leader is None:
                        self._hand_on()
                    return False
                lead = self.leader is None
                # Waited on from inside the endpoint function: this
                # thread holds the lead, and no one else would serve it.
                inline = self.leader == _get_ident() \
                    and request in self.queue
                if lead:
                    self.leader = _get_ident()
                    self.leading = request
                elif inline:
                    self.queue.remove(request)
                elif waiter is None:
                    waiter = request.waiter = threading.Event()
                else:
                    waiter.clear()
            if lead:
                self._lead(request, deadline)
                if request.resolved is not None:
                    return True
            elif inline:
                # A batch of 1 on the lead this thread already holds.
                dispatched = _perf_counter()
                try:
                    self._run([request])
                finally:
                    self._account([request], dispatched)
                return True
            else:
                waiter.wait(remaining)      # resolved, or promoted

    def _lead(self, own, deadline):
        """Serve the queue on this thread until *own* is resolved."""
        batch = []
        try:
            while True:
                with self.lock:
                    self._wake(batch)
                    batch = []
                    if own.resolved is not None or (
                            deadline is not None
                            and _perf_counter() >= deadline):
                        self._hand_on()
                        return
                    self._fill(batch)
                dispatched = _perf_counter()
                fallback = self._run(batch)
                self._account(batch, dispatched, fallback)
        except BaseException:
            # This thread is dying mid-batch (say a KeyboardInterrupt
            # out of the endpoint function): fail what it took instead
            # of hanging their waiters, then hand the lead on.
            stranded = [r for r in batch if r.resolved is None]
            if stranded:
                self._account(stranded)
            with self.lock:
                self._wake(batch)
                self._hand_on()
            raise

    def _wake(self, batch):
        for request in batch:
            if request.waiter is not None:
                request.waiter.set()

    def _hand_on(self):
        """Give up the lead; wake the oldest queued request's sleeping
        waiter to take it."""
        self.leader = self.leading = None
        for request in self.queue:
            if request.waiter is not None:
                request.waiter.set()
                return

    # -- batch assembly (under lock) -----------------------------------------

    def _coalesces(self):
        """Does the oldest request have companions to take or to wait
        for — those queued behind it, or with ``batch_linger_s > 0``
        those that may yet arrive?"""
        config = self.server.config
        return self.batchable and config.max_batch_size > 1 \
            and (self.queue or config.batch_linger_s > 0)

    def _fill(self, batch):
        """Pop the oldest request into *batch*, then its shape-compatible
        companions: those already queued, and with ``batch_linger_s > 0``
        those that arrive while the leader waits on ``cond``."""
        first = self.queue.pop(0)
        batch.append(first)
        if not self._coalesces():
            return
        key = first.group()
        if key is None:
            return
        config = self.server.config
        limit = config.max_batch_size
        linger = config.batch_linger_s
        self._take_compatible(key, batch, limit)
        if len(batch) >= limit or linger <= 0:
            return
        deadline = _perf_counter() + linger
        self.lingering = True
        try:
            while len(batch) < limit and not self.server.closed:
                remaining = deadline - _perf_counter()
                if remaining <= 0:
                    break
                self.cond.wait(remaining)
                self._take_compatible(key, batch, limit)
        finally:
            self.lingering = False

    def _take_compatible(self, key, batch, limit):
        """Move queued requests with a matching key into *batch*."""
        queue = self.queue
        index = 0
        while index < len(queue) and len(batch) < limit:
            if queue[index].group() == key:
                batch.append(queue.pop(index))
            else:
                index += 1

    # -- execution (no lock held) --------------------------------------------

    def _run(self, batch):
        """Execute *batch*: every request leaves with an outcome.  True
        if it was stacked and had to be re-run request by request."""
        size = len(batch)
        if TRACER.level:
            TRACER.instant("serve_dispatch", self.name, batch=size,
                           queued=len(self.queue))
        if size > 1:
            try:
                # Whatever the shared run notes lands in the lead's trace.
                parts = _split_result(
                    self._call(batch[0], _stacked(batch)),
                    [request.rows for request in batch])
            except Exception:
                parts = None
            if parts is not None:
                for request, part in zip(batch, parts):
                    request.result = part
                    request.outcome = "ok"
                return False
        # Also the fallback when the endpoint is not batch-polymorphic
        # for this input (or raised): batching costs latency at worst.
        for request in batch:
            try:
                request.result = self._call(request, request.args)
                request.outcome = "ok"
            except Exception as exc:           # delivered to its client
                request.error = exc
                request.outcome = "error"
        return size > 1

    def _call(self, request, args):
        """The endpoint function on *args*, inside *request*'s trace."""
        token = reqtrace.activate(request.ctx)
        try:
            return self.fn(*args)
        finally:
            reqtrace.deactivate(token)

    # -- accounting: once per dispatch ---------------------------------------

    def _account(self, requests, dispatched=None, fallback=False):
        """Resolve *requests*: one SERVING fold, one RECORDER call.

        *dispatched* is the pickup time of the dispatch that ran them;
        None for requests that never ran (failed at close, or taken by
        a leader that died), which count no batch and no queue wait.
        *fallback*: the batch was re-run singly, and its requests say so.
        """
        now = _perf_counter()
        size = len(requests)
        latencies = {}              # outcome -> [seconds]
        contexts = []
        for request in requests:
            if request.outcome is None:
                request.outcome = "error"
                request.error = RuntimeError(
                    "the client thread dispatching this request died")
            latencies.setdefault(request.outcome, []).append(
                now - request.enqueued)
            ctx = request.ctx
            if ctx is not None:
                if fallback:
                    ctx.flags.add("batch_fallback")
                error = request.error
                ctx.close(request.outcome, now, None if error is None
                          else type(error).__name__, dispatched, size)
                contexts.append(ctx)
        if dispatched is not None:
            SERVING.record_batch(
                size,
                [dispatched - request.enqueued for request in requests],
                latencies, now, fallback)
        else:
            for outcome, durations in latencies.items():
                for duration in durations:
                    SERVING.record_request(duration, outcome)
        if contexts:
            RECORDER.record_all(contexts)
        for request in requests:
            request.resolved = now

    # -- shutdown ------------------------------------------------------------

    def _close(self):
        """Fail queued requests nobody waits on; the rest are served by
        the current leader and the waiters it promotes."""
        orphans, served = [], []
        with self.lock:
            for request in self.queue:
                (orphans if request.waiter is None
                 and request is not self.leading else served).append(request)
            self.queue[:] = served
            if self.lingering:
                self.cond.notify()
        for request in orphans:
            request.outcome = "error"
            request.error = ServerClosed("server is shut down")
        if orphans:
            self._account(orphans)
            with self.lock:
                # A client may have begun waiting on one since it was
                # taken off the queue.
                self._wake(orphans)


def _stacked(batch):
    """The arguments of one call for the whole *batch*: each position
    concatenated along axis 0 and re-wrapped in the type of the first
    request's argument, so the batched call produces the same ValueSpec
    signature family as its constituents (a Tensor of the known dtype)."""
    stacked = []
    for position, proto in enumerate(batch[0].args):
        merged = np.concatenate([
            arg.value.array if isinstance(arg, Tensor) else arg
            for arg in (request.args[position] for request in batch)])
        stacked.append(Tensor(TensorValue.private(merged, proto.dtype))
                       if isinstance(proto, Tensor) else merged)
    return stacked


def _split_result(result, row_counts):
    """Split a batched endpoint result back into per-request pieces, or
    None when it does not decompose row-for-row (wrong leading dimension,
    scalar output, unknown type) and the batch must re-run singly.
    Tuples, lists and namedtuples split per item, dicts per key, an
    array at the running row offsets into copies each reply owns."""
    if isinstance(result, (tuple, list, dict)):
        keyed = isinstance(result, dict)
        columns = [_split_result(item, row_counts)
                   for item in (result.values() if keyed else result)]
        if any(column is None for column in columns):
            return None
        build = getattr(result, "_make", type(result))
        rows = zip(*columns) if columns else [()] * len(row_counts)
        return [build(zip(result, row) if keyed else row) for row in rows]
    value = result.value if isinstance(result, Tensor) else None
    arr = result if value is None else value.array
    if not isinstance(arr, np.ndarray) or not arr.shape \
            or arr.shape[0] != sum(row_counts):
        return None
    pieces = [arr[end - rows:end].copy()
              for rows, end in zip(row_counts, accumulate(row_counts))]
    return pieces if value is None else [
        Tensor(TensorValue.private(piece, value.dtype)) for piece in pieces]


class Server:
    """Serve registered ``@janus.function`` endpoints to many clients.

    Usage::

        server = Server(ServingConfig(max_batch_size=8))
        server.register("predict", predict_fn)
        ...                       # N client threads:
        y = server.call("predict", x)
        ...
        server.close()

    ``call`` blocks until the request's batch completes and returns the
    endpoint result (or re-raises the endpoint's exception in the
    calling thread).  The server is also a context manager; leaving the
    ``with`` block closes it.
    """

    def __init__(self, config=None):
        self.config = config if config is not None else ServingConfig()
        self.closed = False
        #: Replaced, never mutated, by ``register`` (under ``_lock``),
        #: so ``call`` reads it without a lock.
        self._endpoints = {}
        self._lock = threading.Lock()
        SERVING.watch(self)

    # -- registration --------------------------------------------------------

    def register(self, name, fn, batchable=True):
        """Expose *fn* (typically a JanusFunction) as endpoint *name*.

        Returns the endpoint; ``endpoint.submit(args_tuple)`` enqueues a
        call without blocking and returns a handle with ``wait()``
        (also spelled ``done.wait()``), ``result`` and ``error``.
        """
        with self._lock:
            if self.closed:
                raise ServerClosed("server is shut down")
            if name in self._endpoints:
                raise ValueError("endpoint %r already registered" % name)
            endpoint = _Endpoint(name, fn, batchable, self)
            endpoints = dict(self._endpoints)
            endpoints[name] = endpoint
            self._endpoints = endpoints
            return endpoint

    def endpoints(self):
        return sorted(self._endpoints)

    # -- client API ----------------------------------------------------------

    def call(self, name, *args):
        """Invoke endpoint *name*; blocks until its dispatch completes."""
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise KeyError("no endpoint %r (have %s)"
                           % (name, self.endpoints()))
        return endpoint.call(args)

    # -- introspection / lifecycle -------------------------------------------

    def recompiles_in_flight(self):
        """Endpoint functions whose compile lock is held."""
        return sum(getattr(endpoint.fn, "recompiles_in_flight", 0)
                   for endpoint in self._endpoints.values())

    def close(self):
        """Reject further calls and fail queued requests nobody waits
        on; those a client is blocked on are still served — by the
        client leading its endpoint, then by the waiters it promotes."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
        SERVING.unwatch(self)
        for endpoint in self._endpoints.values():
            endpoint._close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return "Server(%d endpoints%s)" % (
            len(self._endpoints), ", closed" if self.closed else "")
