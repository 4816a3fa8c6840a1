"""Concurrency-safe runtime core: threaded differential + storm tests.

The dispatch layer (:mod:`repro.janus.api`) promises three things under
concurrent callers:

* **correctness** — N threads hammering one ``janus.function`` get
  bit-for-bit the results single-threaded execution produces (the
  speculate → guard → fallback machinery never leaks a wrong value to
  any caller, no matter how calls interleave with compiles and swaps),
* **single-flight compilation** — a cold-start stampede or an
  assumption-failure storm elects exactly one compile or relaxation;
  every other caller, whatever its signature, is served by the
  imperative fallback instead of duplicating graph generation or
  waiting on it,
* **no lost updates** — the stats/health/memo accounting survives the
  races that the old unlocked read-modify-write paths lost (the retired
  ``_MEMO_COUNTS`` flush being the canonical offender):
  ``calls == graph_runs + imperative_runs`` exactly.

The differential section reuses the seeded-program approach of
``test_write_barrier_differential``: generated programs over a heap
model run in 4 threads against the imperative oracle.  The storm
section forces a burned-constant guard failure and asserts exactly one
recompile ticket while the stale window is served by fallbacks.  Each
ends with :func:`progen.assert_quiescent`.

The last section stresses the serving layer's leader/follower dispatch
(:mod:`repro.serving`): client threads are the only threads there are,
so a lost promotion or a stranded request shows up as a hung client.
"""

import itertools
import linecache
import random
import sys
import threading
import time

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.janus.concurrency import RWLock
from repro.janus.graphgen import GraphGenerator
from repro.observability import SERVING, clear, counter_values
from repro.serving import Server, ServingConfig

#: Generated differential programs; each runs THREADS x CALLS calls.
SEEDS = 10
THREADS = 4
CALLS_PER_THREAD = 6


def strict(**kw):
    return janus.JanusConfig(fail_on_not_convertible=True,
                             parallel_execution=False, **kw)


def warm(jf, *args, n=5):
    out = None
    for _ in range(n):
        out = jf(*args)
    return out


def counters():
    return counter_values()


@pytest.fixture(autouse=True)
def _clean():
    clear()
    yield
    clear()


def _run_threads(n, target):
    """Start *n* threads on *target(index)* behind a common barrier and
    join them; returns the list of exceptions raised inside threads."""
    barrier = threading.Barrier(n)
    errors = []

    def runner(index):
        barrier.wait()
        try:
            target(index)
        except Exception as exc:  # noqa: BLE001 - re-raised by caller
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
        assert not t.is_alive(), "worker thread hung"
    return errors


# -- primitives ---------------------------------------------------------------

class TestPrimitives:
    def test_rwlock_concurrent_readers(self):
        lock = RWLock()
        inside = []
        gate = threading.Barrier(3)

        def reader(_):
            with lock.read():
                inside.append(threading.get_ident())
                gate.wait(5.0)   # all 3 readers in simultaneously

        assert not _run_threads(3, reader)
        assert len(set(inside)) == 3

    def test_rwlock_writer_excludes_readers(self):
        lock = RWLock()
        log = []
        lock.acquire_write()

        def reader(_):
            with lock.read():
                log.append("read")

        t = threading.Thread(target=reader, args=(0,))
        t.start()
        time.sleep(0.05)
        assert log == []          # reader blocked behind the writer
        log.append("write")
        lock.release_write()
        t.join(5.0)
        assert log == ["write", "read"]


# -- seeded threaded differential --------------------------------------------

# Shared seeded generator (tests/progen.py): CONCURRENCY_MIX reproduces
# the historical inline generator stream-for-stream — 4-kind pool, no
# t/t2 aliasing, model built t, w, gain, var.
from progen import (CONCURRENCY_MIX, assert_quiescent,  # noqa: E402
                    gen_program, vec as _vec)


def _gen_program(seed):
    prog, _m, _used, _branch, filename = gen_program(
        seed, mix=CONCURRENCY_MIX)
    return prog, filename


def _differential_one(seed):
    threads_before = threading.active_count()
    prog, filename = _gen_program(seed)
    nprng = np.random.default_rng(50_000 + seed)
    f = janus.function(config=strict(profile_runs=2))(prog)

    # Distinct inputs, both branch directions represented; the oracle
    # outputs come from the pure imperative function, single-threaded.
    inputs = [R.constant(np.abs(_vec(nprng)) + 0.1) for _ in range(3)]
    inputs.append(R.constant(-(inputs[0].numpy())))
    oracle = [f.func(x).numpy() for x in inputs]

    try:
        def client(index):
            order = list(range(len(inputs)))
            random.Random(seed * 100 + index).shuffle(order)
            for _ in range(CALLS_PER_THREAD):
                for j in order:
                    out = f(inputs[j])
                    assert np.array_equal(out.numpy(), oracle[j]), \
                        (seed, index, j)

        errors = _run_threads(THREADS, client)
        assert not errors, (seed, errors)

        # One more oracle-checked call per input, single-threaded.
        for x, expect in zip(inputs, oracle):
            assert np.array_equal(f(x).numpy(), expect), seed

        total = (THREADS * CALLS_PER_THREAD + 1) * len(inputs)
        stats = f.stats
        # Exact conservation: every call ran a graph, the fallback, or
        # a co-execution plan (zero here — these programs convert
        # whole).  A lost update in the locked counters breaks this.
        assert stats["calls"] == total, stats
        assert stats["graph_runs"] + stats["imperative_runs"] \
            + stats["coexec_runs"] == total, stats
        assert stats["graph_runs"] > 0, stats
        assert_quiescent([f], threads_before)
    finally:
        linecache.cache.pop(filename, None)


class TestThreadedDifferential:
    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_threads_match_single_thread_oracle(self, seed):
        _differential_one(seed)


# -- cold-start stampede ------------------------------------------------------

class TestColdStartStampede:
    def test_stampede_compiles_once(self):
        threads_before = threading.active_count()

        @janus.function(config=strict(profile_runs=2))
        def f(x):
            y = x * 2.0
            for _ in range(4):
                y = y + x
            return R.reduce_sum(y)

        x = R.constant(np.linspace(-1.0, 1.0, 8).astype(np.float32))
        expect = f.func(x).numpy()
        f(x)
        f(x)                       # profiling done; next call generates
        assert f.stats["graphs_generated"] == 0

        def client(_):
            out = f(x)
            assert np.array_equal(out.numpy(), expect)

        assert not _run_threads(8, client)
        # The stampede elected exactly one compiler; everyone else was
        # served (imperative fallback or the freshly published graph).
        assert f.stats["graphs_generated"] == 1, f.stats
        assert f.stats["calls"] == 10
        assert (f.stats["graph_runs"]
                + f.stats["imperative_runs"]) == 10, f.stats
        assert np.array_equal(f(x).numpy(), expect)
        assert f.stats["graph_runs"] >= 1
        assert_quiescent([f], threads_before)


# -- assumption-failure storm -------------------------------------------------

class TestFailureStorm:
    def test_storm_inline_mode_still_single_ticket(self):
        threads_before = threading.active_count()
        knob = type("K", (), {})()
        knob.scale = 3.0

        @janus.function(config=strict(profile_runs=2))
        def g(x):
            return x * knob.scale

        x = R.constant(np.linspace(-1.0, 1.0, 8).astype(np.float32))
        warm(g, x, n=5)
        assert g.stats["graph_runs"] >= 1
        before = counters()
        base_generated = g.stats["graphs_generated"]

        knob.scale = 5.0           # breaks the burned-in constant
        expect = x.numpy() * 5.0

        def client(_):
            out = g(x)
            assert np.array_equal(out.numpy(), expect)

        assert not _run_threads(8, client)
        # Every caller pinned to the failing graph fell back, but only
        # the one that retired it relaxed: one recompile ticket.
        assert g.stats["recompile_tickets"] == 1, g.stats
        assert counters()["dispatch.recompile_tickets"] \
            - before.get("dispatch.recompile_tickets", 0) == 1
        assert g.stats["fallbacks"] >= 1
        # Post-storm calls regenerate (possibly already during the
        # storm, by a caller that got the compile lock).
        assert np.array_equal(g(x).numpy(), expect)
        assert np.array_equal(g(x).numpy(), expect)
        assert g.stats["graphs_generated"] == base_generated + 1, g.stats
        assert_quiescent([g], threads_before)


# -- the compile lock -----------------------------------------------------------

class TestCompileLock:
    def test_other_signature_never_waits_on_a_compile(self, monkeypatch):
        """While signature A compiles, a call with signature B (profiled,
        never compiled) is served imperatively at once: it does not
        wait behind A's compile."""
        threads_before = threading.active_count()

        @janus.function(config=strict(profile_runs=2))
        def f(x):
            return R.reduce_sum(x * 2.0)

        a = R.constant(np.ones(4, np.float32))
        b = R.constant(np.ones((2, 4), np.float32))
        f(a)
        f(b)                       # both signatures profiled
        sig_a = f.cache.signature_of((a,))
        entered, release = threading.Event(), threading.Event()
        generate = GraphGenerator.generate

        def held(self):
            if self.signature == sig_a:
                entered.set()
                release.wait(10.0)
            return generate(self)

        monkeypatch.setattr(GraphGenerator, "generate", held)
        out = []
        compiling = threading.Thread(target=f, args=(a,))
        caller = threading.Thread(target=lambda: out.append(f(b)))
        compiling.start()
        try:
            assert entered.wait(10.0)
            caller.start()
            caller.join(1.0)
            assert not caller.is_alive(), "B waited on A's compile"
            assert np.array_equal(out[0].numpy(), f.func(b).numpy())
            assert f.stats["stampede_fallbacks"] == 1, f.stats
            assert f.recompiles_in_flight == 1
        finally:
            release.set()
            compiling.join(10.0)
            if caller.is_alive():
                caller.join(10.0)
        assert not compiling.is_alive() and not caller.is_alive()
        assert f.stats["graphs_generated"] == 1, f.stats
        assert_quiescent([f], threads_before)

    def test_stale_pinned_failure_retires_only_its_own_entry(self):
        """A caller still running a retired graph fails its guard; it
        falls back, but neither relaxes again nor retires the graph
        that replaced it."""
        knob = type("K", (), {})()
        knob.scale = 3.0

        @janus.function(config=strict(profile_runs=2))
        def g(x):
            return x * knob.scale

        x = R.constant(np.linspace(-1.0, 1.0, 8).astype(np.float32))
        warm(g, x, n=3)
        signature = g.cache.signature_of((x,))
        stale = g.cache.lookup(signature)
        knob.scale = 5.0
        outs = [g(x) for _ in range(3)]    # fallback, regeneration, hit
        fresh = g.cache.lookup(signature)
        assert fresh is not stale
        outs.append(g._run_graph(stale, (x,), signature))
        assert g.cache.lookup(signature) is fresh
        outs += [g(x) for _ in range(2)]
        for out in outs:
            assert np.array_equal(out.numpy(), x.numpy() * 5.0)
        assert g.stats["graphs_generated"] == 2, g.stats
        assert g.stats["recompile_tickets"] == 1, g.stats


# -- accounting under contention ----------------------------------------------

class TestNoLostUpdates:
    THREADS = 8
    PER_THREAD = 2_000

    def test_stats_and_cache_totals_conserved(self):
        """Warm hits count without a lock; a switch interval this short
        makes an unguarded shared ``+= 1`` lose counts."""
        holder = type("H", (), {})()
        holder.state = R.constant(np.ones(4, np.float32))

        @janus.function(config=strict(profile_runs=2))
        def f(x):
            return R.reduce_sum(x * holder.state)

        x = R.constant(np.full(4, 2.0, np.float32))
        warm(f, x, n=4)
        expect = f.func(x).numpy()

        def client(_):
            for _ in range(self.PER_THREAD):
                assert np.array_equal(f(x).numpy(), expect)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert not _run_threads(self.THREADS, client)
        finally:
            sys.setswitchinterval(interval)
        stats = dict(f.stats)
        total = 4 + self.THREADS * self.PER_THREAD
        assert stats["calls"] == total, stats
        assert stats["graph_runs"] == total - 2, stats
        assert stats["imperative_runs"] == 2, stats
        # The process scope counted every hit once too.
        assert counters()["cache.hits"] == stats["graph_runs"]


# -- serving: leader/follower dispatch under contention --------------------------

class TestServingLeaderFollower:
    def test_seeded_stress_fifo_and_no_lost_promotion(self):
        """6 client threads (more than this host has cores) x 12
        requests of two shape families against a slow endpoint, mixing
        blocking waits, waits that time out and retry, and submits
        nobody waits on until the end.  Every request completes with
        its own answer, each family is dispatched in submit order, and
        at quiescence nothing is queued, nobody leads and the stats
        have seen every request exactly once."""
        rng = random.Random(20190226)
        clients, per_client = 6, 12
        plan = [[(rng.choice((3, 5)), rng.choice(("wait", "wait", "retry",
                                                  "leave")))
                 for _ in range(per_client)] for _ in range(clients)]
        dispatched = {3: [], 5: []}

        def slow(x):
            arr = x.numpy()
            dispatched[arr.shape[1]].extend(int(v) for v in arr[:, 0])
            time.sleep(0.0002)
            return R.constant(arr * 2.0)

        numbers = itertools.count()
        order = threading.Lock()
        handles = []                       # (number, request)

        def client(index):
            for cols, mode in plan[index]:
                with order:                # number order == queue order
                    number = next(numbers)
                    request = endpoint.submit((R.constant(np.full(
                        (1, cols), float(number), np.float32)),))
                    handles.append((number, request))
                if mode == "retry" and not request.wait(0.0003):
                    assert request.wait(30.0)
                elif mode == "wait":
                    assert request.wait(30.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with Server(ServingConfig(max_batch_size=4, batch_linger_s=0.0,
                                      max_queue_depth=256)) as server:
                endpoint = server.register("slow", slow)
                assert not _run_threads(clients, client)
                for _, request in handles:     # the ones left behind
                    assert request.wait(30.0)
                assert not endpoint.queue
                assert endpoint.leader is None
        finally:
            sys.setswitchinterval(interval)

        total = clients * per_client
        assert len(handles) == total
        for number, request in handles:
            assert request.error is None, request.error
            assert (request.result.numpy() == 2.0 * number).all(), number
        for cols, seen in dispatched.items():
            assert seen == sorted(seen), "family %d left FIFO order" % cols
        assert sorted(dispatched[3] + dispatched[5]) == list(range(total))
        assert SERVING.requests == total
        assert SERVING.request_latency["ok"].count == total
        assert SERVING.queue_wait.count == total
