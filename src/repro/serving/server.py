"""Multi-tenant serving for ``@janus.function`` endpoints.

A :class:`Server` exposes registered janus functions to N concurrent
client threads.  Each endpoint owns a bounded request queue and no
thread: arriving calls are admission-checked and queued, and the
client thread that *waits* on a request is the dispatcher — it takes
the endpoint's lead, runs the queue FIFO on its own thread until its
own request is resolved, then hands the lead to the oldest waiting
client (leader/follower; see :class:`_Endpoint`).  An uncontended call
therefore crosses no thread boundary.  Requests are dispatched either
singly or as a **dynamically batched** group — shape-compatible
requests (same per-argument dtype and trailing shape) are stacked
along axis 0, executed as one graph run, and the outputs are split
back per request.  The batch window is bounded by
``ServingConfig.max_batch_size`` and the ``batch_linger_s`` wait.

Correctness contract for batching: a batchable endpoint must be
*batch-polymorphic* — ``f(stack([a, b]))`` must equal
``stack([f(a), f(b)])`` row-for-row, which holds for the standard
per-example model functions the paper serves (inference and per-example
losses).  The server additionally verifies the stacked output's leading
dimension; if the endpoint returns anything that does not split back
into per-request rows, the batch is transparently re-executed
request-by-request, so a non-conforming endpoint is slower, never
wrong.  Endpoints registered with ``batchable=False`` (reductions,
scalar outputs, optimizer steps that must see single examples) always
dispatch singly.

The runtime below the server is the concurrency-safe dispatch layer of
:mod:`repro.janus.api`: warm requests execute the shared compiled
artifact in parallel, an assumption-failure storm elects one recompile
ticket, and with ``JanusConfig.recompile_workers > 0`` regeneration
happens on background workers while queued requests are served by the
imperative fallback.  Admission, queue-depth, batch-size,
queue-wait and per-outcome latency metrics land in
:data:`repro.observability.SERVING` — folded once per dispatch, stamped
where a request is resolved — and surface through ``janus-stats`` (text
and Prometheus).
"""

import threading
import time

import numpy as np

from ..imperative.eager import Tensor
from ..observability import RECORDER, SERVING, TRACER, reqtrace

__all__ = ["Server", "ServingConfig", "ServerClosed", "ServerOverloaded"]


class ServerOverloaded(RuntimeError):
    """Raised to the client when the endpoint queue is at its bound."""


class ServerClosed(RuntimeError):
    """Raised to the client when the server is shut down."""


class ServingConfig:
    """Tunables of the serving layer (``JanusConfig.serving`` slot)."""

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
    """Batch-compatibility key, or None when the call cannot batch.

    Two requests may share a batch iff every argument position agrees on
    (dtype, trailing shape) and every argument is a tensor with a batch
    (leading) dimension.  Returns ``(key, rows)``.
    """
    if not args:
        return None, 0
    key = []
    rows = None
    for arg in args:
        arr = arg.numpy() if isinstance(arg, Tensor) \
            else arg if isinstance(arg, np.ndarray) else None
        if arr is None or arr.ndim == 0:
            return None, 0
        if rows is None:
            rows = arr.shape[0]
        elif arr.shape[0] != rows:
            return None, 0
        key.append((arr.dtype.str, arr.shape[1:]))
    return tuple(key), rows


#: ``_Request.key`` until a leader first has to compare the request.
_UNKEYED = object()

#: Span args of a request executed on its own (shared, never mutated).
_ALONE = {"batch": 1}


class _Request:
    """One submitted client call: the handle ``submit`` returns.

    Timestamps are stamped on it as it moves — ``enqueued`` at submit,
    ``resolved`` once its dispatch has been accounted — so the whole
    batch is folded into the stats in one call.  ``result`` / ``error``
    are final once :meth:`wait` has returned True.
    """

    __slots__ = ("endpoint", "args", "key", "rows", "ctx", "enqueued",
                 "outcome", "result", "error", "resolved", "waiter")

    def __init__(self, endpoint, args, ctx):
        self.endpoint = endpoint
        self.args = args
        self.key = _UNKEYED
        self.rows = 0
        #: Request-trace context; whichever client thread dispatches
        #: this request re-activates it around the endpoint function.
        self.ctx = ctx
        self.enqueued = ctx.started if ctx is not None \
            else time.perf_counter()
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
        ``done.is_set()``): the request itself, so no second object and
        no reference cycle per request."""
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
        """Block until the request is resolved; True if it is.

        The waiting thread does the endpoint's work while it waits: if
        no other client is dispatching, it runs queued batches itself
        until this request is resolved (see :meth:`_Endpoint._lead`).
        """
        return self.resolved is not None \
            or self.endpoint._await(self, timeout)


class _Endpoint:
    """One registered function plus its queue; dispatch is caller-runs.

    There is no dispatcher thread.  ``submit`` only enqueues.  The first
    client that *waits* on an unresolved request takes the endpoint's
    lead and serves the queue FIFO on its own thread until its own
    request is resolved; clients that wait meanwhile sleep on a
    per-request Event.  A departing leader promotes the oldest queued
    request with a sleeping waiter — one wake-up per contended batch.

    ``lock`` guards ``queue``, ``leader``, ``lingering`` and every
    request's ``waiter``; results are written and accounted outside it,
    then published (``_wake``) under it.  ``cond`` is a condition on
    the same lock that only a lingering leader waits on.
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
        self.leader = None          # the leading client's own request
        self.lingering = False      # leader is waiting on cond

    # -- submitting ----------------------------------------------------------

    def submit(self, args):
        """Enqueue one call; returns its handle without running it."""
        config = self.server.config
        ctx = reqtrace.new_request(self.trace_name)
        request = _Request(self, args, ctx)
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
            duration = time.perf_counter() - request.enqueued
            SERVING.record_reject(duration)
            if ctx is not None:
                ctx.flags.add("rejected")
                reqtrace.record_span(ctx, "serve_queue", "rejected",
                                     request.enqueued, duration,
                                     {"endpoint": self.name})
                reqtrace.finish(ctx, "rejected", detail="queue full")
            raise ServerOverloaded(
                "endpoint %r queue is full (%d requests)"
                % (self.name, depth))
        SERVING.record_enqueue(depth)
        return request

    # -- waiting: lead or follow ---------------------------------------------

    def _await(self, request, timeout):
        deadline = None if timeout is None \
            else time.perf_counter() + timeout
        while True:
            with self.lock:
                if request.resolved is not None:
                    return True
                remaining = None if deadline is None \
                    else deadline - time.perf_counter()
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
                if lead:
                    self.leader = request
                elif waiter is None:
                    waiter = request.waiter = threading.Event()
                else:
                    waiter.clear()
            if lead:
                self._lead(request, deadline)
                if request.resolved is not None:
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
                            and time.perf_counter() >= deadline):
                        self._hand_on()
                        return
                    self._fill(batch)
                dispatched = time.perf_counter()
                self._run(batch, dispatched)
                self._account(batch, dispatched)
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
        self.leader = None
        for request in self.queue:
            if request.waiter is not None:
                request.waiter.set()
                return

    # -- batch assembly (under lock) -----------------------------------------

    def _fill(self, batch):
        """Pop the oldest request into *batch*, then its shape-compatible
        companions: those already queued, and with ``batch_linger_s > 0``
        those that arrive while the leader waits on ``cond``."""
        config = self.server.config
        first = self.queue.pop(0)
        batch.append(first)
        limit = config.max_batch_size
        linger = config.batch_linger_s
        if not self.batchable or limit <= 1 \
                or not (self.queue or linger > 0):
            return
        key = first.group()
        if key is None:
            return
        self._take_compatible(key, batch, limit)
        if len(batch) >= limit or linger <= 0:
            return
        deadline = time.perf_counter() + linger
        self.lingering = True
        try:
            while len(batch) < limit and not self.server.closed:
                remaining = deadline - time.perf_counter()
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

    def _run(self, batch, dispatched):
        """Execute *batch*: every request leaves with an outcome."""
        size = len(batch)
        span_args = {"batch": size}
        # The queue wait becomes a span on each request's trace, timed
        # from the submitting thread's enqueue to this pickup.
        for request in batch:
            reqtrace.record_span(request.ctx, "serve_queue", self.name,
                                 request.enqueued,
                                 dispatched - request.enqueued, span_args)
        if TRACER.level:
            TRACER.instant("serve_dispatch", self.name, batch=size,
                           queued=len(self.queue))
        if size == 1 or not self._run_stacked(batch):
            # Also the fallback when the endpoint is not
            # batch-polymorphic for this input (or raised): batching
            # can only cost latency, never correctness.
            for request in batch:
                self._run_single(request)

    def _run_stacked(self, batch):
        """One stacked call for the whole batch; False if it did not
        split back row-for-row."""
        lead = batch[0]
        size = len(batch)
        start = time.perf_counter()
        try:
            # Re-wrap each stacked buffer in the type of the first
            # request's argument so the batched call produces the same
            # ValueSpec signature family as its constituents.
            stacked = []
            for position, proto in enumerate(lead.args):
                merged = np.concatenate(
                    [_as_array(request.args[position])
                     for request in batch], axis=0)
                stacked.append(Tensor(merged)
                               if isinstance(proto, Tensor) else merged)
            # The lead request's trace carries the shared execution;
            # companions get the same interval recorded post-hoc.
            with reqtrace.span_in(lead.ctx, "serve_dispatch", self.name,
                                  {"batch": size}):
                result = self.fn(*stacked)
            parts = _split_result(result, [r.rows for r in batch])
        except Exception:
            return False
        if parts is None:
            return False
        duration = time.perf_counter() - start
        shared = {"batch": size, "shared": True}
        for request, part in zip(batch, parts):
            if request is not lead:
                reqtrace.record_span(request.ctx, "serve_dispatch",
                                     self.name, start, duration, shared)
            request.result = part
            request.outcome = "ok"
        return True

    def _run_single(self, request):
        try:
            with reqtrace.span_in(request.ctx, "serve_dispatch", self.name,
                                  _ALONE):
                request.result = self.fn(*request.args)
            request.outcome = "ok"
        except Exception as exc:               # delivered to its client
            request.error = exc
            request.outcome = "error"

    # -- accounting: once per dispatch ---------------------------------------

    def _account(self, requests, dispatched=None):
        """Resolve *requests*: one SERVING fold, one RECORDER call.

        *dispatched* is the pickup time of the dispatch that ran them;
        None for requests that never ran (failed at close, or taken by
        a leader that died), which count no batch and no queue wait.
        """
        now = time.perf_counter()
        latencies = []
        contexts = []
        for request in requests:
            if request.outcome is None:
                request.outcome = "error"
                request.error = RuntimeError(
                    "the client thread dispatching this request died")
            latencies.append((request.outcome, now - request.enqueued))
            ctx = request.ctx
            if ctx is not None:
                error = request.error
                ctx.close(request.outcome, now, None if error is None
                          else type(error).__name__)
                contexts.append(ctx)
        if dispatched is not None:
            SERVING.record_batch(
                len(requests),
                [dispatched - request.enqueued for request in requests],
                latencies)
        else:
            for outcome, duration in latencies:
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
                 and request is not self.leader else served).append(request)
            self.queue[:] = served
            if self.lingering:
                self.cond.notify()
        for request in orphans:
            request.outcome = "error"
            request.error = ServerClosed("server is shut down")
        if orphans:
            self._account(orphans)


def _as_array(arg):
    return arg.numpy() if isinstance(arg, Tensor) else np.asarray(arg)


def _split_result(result, row_counts):
    """Split a batched endpoint result back into per-request pieces.

    Returns None when the result does not decompose row-for-row (wrong
    leading dimension, scalar output, unknown type) — the caller then
    re-executes the batch singly.
    """
    total = sum(row_counts)
    if isinstance(result, (tuple, list)):
        split_parts = [_split_result(item, row_counts) for item in result]
        if any(part is None for part in split_parts):
            return None
        return [type(result)(items) for items in zip(*split_parts)]
    arr = result.numpy() if isinstance(result, Tensor) \
        else result if isinstance(result, np.ndarray) else None
    if arr is None or arr.ndim == 0 or arr.shape[0] != total:
        return None
    offsets = np.cumsum(row_counts)[:-1]
    pieces = np.split(arr, offsets, axis=0)
    if isinstance(result, Tensor):
        return [Tensor(piece.copy()) for piece in pieces]
    return [piece.copy() for piece in pieces]


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
        SERVING.client_started()
        try:
            request = endpoint.submit(args)
            request.wait()
        finally:
            SERVING.client_finished()
        if request.error is not None:
            raise request.error
        return request.result

    # -- introspection / lifecycle -------------------------------------------

    def recompiles_in_flight(self):
        """Compile tickets currently owned across all endpoints."""
        return sum(getattr(endpoint.fn, "recompiles_in_flight", 0)
                   for endpoint in self._endpoints.values())

    def close(self):
        """Reject further calls and fail queued requests nobody waits on.

        Requests a client is blocked on are still served — by the
        client leading its endpoint, then by the waiters it promotes.
        """
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
