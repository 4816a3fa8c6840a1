"""Multi-tenant serving layer: batching, admission, metrics, lifecycle.

:mod:`repro.serving` multiplexes N client threads over shared
``janus.function`` endpoints with shape-compatible dynamic batching.
These tests pin down:

* bit-for-bit correctness through the batch/split round trip (including
  mixed shapes that must not share a batch, and endpoints that are not
  batch-polymorphic and must transparently fall back to per-request
  execution),
* admission control at the queue bound (``ServerOverloaded`` + the
  rejected counter),
* client accounting, exception propagation, and close semantics,
* leader/follower dispatch: no server thread, the waiting client runs
  the queue, a failing or dying leader strands nobody,
* the serving rows of the ``janus-stats`` report and Prometheus text.
"""

import collections
import sys
import threading
import time

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.observability import RECORDER, SERVING, clear
from repro.observability.cli import prometheus_text, render_report
from repro.serving import (Server, ServerClosed, ServerOverloaded,
                           ServingConfig)

from test_metrics_registry import report_rows


@pytest.fixture(autouse=True)
def _clean():
    clear()
    yield
    clear()


def strict(**kw):
    return janus.JanusConfig(fail_on_not_convertible=True,
                             parallel_execution=False, **kw)


def _rows(i, rows=2, cols=3):
    return R.constant(np.full((rows, cols), float(i), np.float32))


def _run_clients(n, target, timeout=30.0):
    barrier = threading.Barrier(n)
    errors = []

    def runner(index):
        barrier.wait()
        try:
            target(index)
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive(), "client thread hung"
    return errors


class TestBatching:
    def test_concurrent_clients_bitwise_correct_and_coalesced(self):
        @janus.function(config=strict(profile_runs=1))
        def affine(x):
            return x * 2.0 + 1.0

        results = {}
        with Server(ServingConfig(max_batch_size=8,
                                  batch_linger_s=0.05)) as server:
            server.register("affine", affine)

            def client(i):
                # First dispatch is slow (profiling/generation), so
                # later arrivals pile up and coalesce behind it.
                results[i] = server.call("affine", _rows(i))

            assert not _run_clients(8, client)

        for i in range(8):
            expect = np.full((2, 3), i * 2.0 + 1.0, np.float32)
            assert np.array_equal(results[i].numpy(), expect), i

        assert SERVING.requests == 8
        assert SERVING.rejected == 0
        assert SERVING.batches <= 8
        assert SERVING.peak_clients >= 2

    def test_batched_dispatch_splits_rows_exactly(self):
        calls = []

        def kernel(x):
            calls.append(x.shape[0])
            return R.constant(x.numpy() + 10.0)

        with Server(ServingConfig(max_batch_size=4,
                                  batch_linger_s=0.2)) as server:
            endpoint = server.register("k", kernel)
            # Submit from threads and let the leading client's 200 ms
            # linger window coalesce them.
            results = {}

            def client(i):
                if i > 0:
                    time.sleep(0.02)      # arrive inside the window
                results[i] = server.call("k", _rows(i, rows=1 + i % 2))

            assert not _run_clients(4, client)
            assert endpoint is not None

        for i in range(4):
            rows = 1 + i % 2
            expect = np.full((rows, 3), i + 10.0, np.float32)
            assert np.array_equal(results[i].numpy(), expect), \
                (i, results[i].numpy())

    def test_incompatible_shapes_never_share_a_batch(self):
        seen = []

        def kernel(x):
            seen.append(tuple(x.shape))
            return R.constant(x.numpy() * 3.0)

        with Server(ServingConfig(max_batch_size=8,
                                  batch_linger_s=0.1)) as server:
            server.register("k", kernel)
            results = {}

            def client(i):
                cols = 3 if i % 2 == 0 else 5   # two signature families
                results[i] = server.call("k", _rows(i, cols=cols))

            assert not _run_clients(6, client)

        for i in range(6):
            cols = 3 if i % 2 == 0 else 5
            expect = np.full((2, cols), i * 3.0, np.float32)
            assert np.array_equal(results[i].numpy(), expect), i
        # Every kernel invocation saw a homogeneous trailing shape.
        assert all(shape[1] in (3, 5) for shape in seen)

    def test_non_polymorphic_endpoint_falls_back_per_request(self):
        # reduce_sum collapses the batch dimension: the stacked output
        # cannot split back row-for-row, so the server must transparently
        # re-execute request by request.
        def total(x):
            return R.reduce_sum(x)

        with Server(ServingConfig(max_batch_size=8,
                                  batch_linger_s=0.1)) as server:
            server.register("total", total)
            results = {}

            def client(i):
                results[i] = server.call("total", _rows(i))

            assert not _run_clients(5, client)

        for i in range(5):
            assert float(results[i].numpy()) == pytest.approx(i * 6.0), i

    def test_non_batchable_registration_dispatches_singly(self):
        sizes = []

        def kernel(x):
            sizes.append(x.shape[0])
            return R.constant(x.numpy() + 1.0)

        with Server(ServingConfig(max_batch_size=8,
                                  batch_linger_s=0.1)) as server:
            server.register("k", kernel, batchable=False)

            def client(i):
                out = server.call("k", _rows(i))
                assert np.array_equal(out.numpy(),
                                      _rows(i).numpy() + 1.0)

            assert not _run_clients(4, client)
        assert sizes and all(s == 2 for s in sizes)
        assert SERVING.batched_requests == 0

    def test_scalar_args_bypass_batching(self):
        def square(x):
            return R.constant(np.float32(float(x.numpy()) ** 2))

        with Server(ServingConfig(max_batch_size=8)) as server:
            server.register("sq", square)
            assert float(server.call(
                "sq", R.constant(np.float32(3.0))).numpy()) == 9.0


class TestAdmissionAndLifecycle:
    def test_queue_bound_rejects_with_counter(self):
        release = threading.Event()
        started = threading.Event()

        def slow(x):
            started.set()
            release.wait(10.0)
            return x

        server = Server(ServingConfig(max_batch_size=1,
                                      max_queue_depth=2))
        server.register("slow", slow, batchable=False)
        try:
            results = []
            workers = [threading.Thread(
                target=lambda: results.append(
                    server.call("slow", _rows(1)))) for _ in range(3)]
            workers[0].start()
            assert started.wait(5.0)   # client 0 is busy leading
            workers[1].start()
            workers[2].start()
            deadline = time.time() + 5.0
            while SERVING.requests < 3 \
                    and time.time() < deadline:
                time.sleep(0.005)
            # Queue holds 2; a fourth client is refused at admission.
            with pytest.raises(ServerOverloaded):
                server.call("slow", _rows(9))
            assert SERVING.rejected == 1
        finally:
            release.set()
            for w in workers:
                w.join(10.0)
            server.close()
        assert len(results) == 3

    def test_endpoint_exception_propagates_to_caller(self):
        def boom(x):
            raise ValueError("bad batch")

        with Server(ServingConfig(max_batch_size=1)) as server:
            server.register("boom", boom, batchable=False)
            with pytest.raises(ValueError, match="bad batch"):
                server.call("boom", _rows(0))

    def test_unknown_endpoint_and_duplicate_registration(self):
        with Server() as server:
            server.register("a", lambda x: x)
            with pytest.raises(KeyError):
                server.call("nope", _rows(0))
            with pytest.raises(ValueError):
                server.register("a", lambda x: x)
            assert server.endpoints() == ["a"]

    def test_closed_server_rejects_calls(self):
        server = Server()
        server.register("id", lambda x: x, batchable=False)
        assert np.array_equal(server.call("id", _rows(2)).numpy(),
                              _rows(2).numpy())
        server.close()
        with pytest.raises(ServerClosed):
            server.call("id", _rows(2))
        with pytest.raises(ServerClosed):
            server.register("late", lambda x: x)
        server.close()   # idempotent

    def test_recompiles_in_flight_sampled_from_endpoints(self):
        class _Fn:
            recompiles_in_flight = 2

            def __call__(self, x):
                return x

        with Server() as server:
            server.register("f", _Fn(), batchable=False)
            server.call("f", _rows(0))
            assert server.recompiles_in_flight() == 2
            assert SERVING.recompiles_in_flight == 2


class _Dying(BaseException):
    """What kills a leading client mid-batch in these tests."""


def _gated():
    """An identity endpoint that announces its first entry and blocks
    every call until released: ``(fn, started, release)``."""
    release = threading.Event()
    started = threading.Event()

    def slow(x):
        started.set()
        release.wait(10.0)
        return x

    return slow, started, release


class TestLeaderFollowerDispatch:
    def test_register_starts_no_thread(self):
        before = threading.enumerate()
        with Server() as server:
            server.register("a", lambda x: x)
            server.register("b", lambda x: x, batchable=False)
            assert threading.enumerate() == before
            server.call("a", _rows(1))
            assert threading.enumerate() == before
        assert threading.enumerate() == before

    def test_outstanding_submits_are_one_dispatch(self):
        sizes = []

        def kernel(x):
            sizes.append(x.shape[0])
            return R.constant(x.numpy() + 1.0)

        with Server(ServingConfig(max_batch_size=8,
                                  batch_linger_s=0.0)) as server:
            endpoint = server.register("k", kernel)
            pending = [endpoint.submit((_rows(i),)) for i in range(8)]
            assert sizes == []              # submit only enqueues
            assert not pending[0].done.is_set()
            assert pending[0].done.wait(10.0)
            # The one waiter led, and took everything queued with it.
            assert sizes == [16]
            for i, request in enumerate(pending):
                assert request.wait(0) and request.error is None
                assert np.array_equal(request.result.numpy(),
                                      _rows(i).numpy() + 1.0), i
        assert SERVING.batches == 1 and SERVING.requests == 8
        assert SERVING.batched_requests == 8

    def test_submitted_requests_reach_recorder_and_latency(self):
        # Regression: requests entered through the endpoint object used
        # to finish nowhere - no flight-recorder summary, no
        # request_latency{outcome="ok"} observation.
        saved = RECORDER.enabled
        RECORDER.set_enabled(True)
        try:
            with Server(ServingConfig(batch_linger_s=0.0)) as server:
                endpoint = server.register("id", lambda x: x)
                pending = [endpoint.submit((_rows(i),)) for i in range(8)]
                for request in pending:
                    assert request.done.wait(10.0)
            recent = RECORDER.recent()
            assert len(recent) == 8
            assert {s["outcome"] for s in recent} == {"ok"}
            assert all(s["name"] == "serve.id" for s in recent)
            assert len({s["trace_id"] for s in recent}) == 8
            assert all({e["cat"] for e in s["events"]}
                       == {"serve_queue", "serve_dispatch"}
                       for s in recent)
            assert SERVING.request_latency["ok"].count == 8
        finally:
            RECORDER.set_enabled(saved)

    def test_error_goes_to_the_request_that_raised_not_the_leader(self):
        def picky(x):
            if float(x.numpy()[0, 0]) < 0:
                raise ValueError("negative input")
            return x

        with Server(ServingConfig(batch_linger_s=0.0)) as server:
            endpoint = server.register("picky", picky, batchable=False)
            bad = endpoint.submit((_rows(-1),))     # nobody waits yet
            # This client leads, and serves the older bad request first.
            good = server.call("picky", _rows(3))
            assert np.array_equal(good.numpy(), _rows(3).numpy())
            assert bad.done.is_set()
            assert isinstance(bad.error, ValueError)
            assert bad.result is None
        latency = SERVING.request_latency
        assert latency["ok"].count == 1
        assert latency["error"].count == 1

    @pytest.mark.parametrize("batchable", [False, True])
    def test_dying_leader_fails_its_batch_and_frees_the_lead(
            self, batchable):
        def fn(x):
            if float(x.numpy()[0, 0]) < 0:
                raise _Dying()
            return x

        with Server(ServingConfig(max_batch_size=2,
                                  batch_linger_s=0.0)) as server:
            endpoint = server.register("fn", fn, batchable=batchable)
            doomed = endpoint.submit((_rows(-1),))
            rider = endpoint.submit((_rows(1),))
            later = endpoint.submit((_rows(2),))
            with pytest.raises(_Dying):
                doomed.wait(10.0)
            assert endpoint.leader is None
            assert isinstance(doomed.error, RuntimeError)
            if batchable:        # rode the batch the leader died in
                assert isinstance(rider.error, RuntimeError)
            else:                # still queued, served by the next leader
                assert not rider.done.is_set()
            assert later.wait(10.0) and later.error is None
            assert np.array_equal(later.result.numpy(), _rows(2).numpy())
            assert rider.done.is_set()
            assert not endpoint.queue and endpoint.leader is None

    def test_close_fails_queued_requests_nobody_waits_on(self):
        server = Server(ServingConfig(batch_linger_s=0.0))
        endpoint = server.register("id", lambda x: x)
        pending = [endpoint.submit((_rows(i),)) for i in range(3)]
        server.close()
        for request in pending:
            assert request.wait(0)
            assert isinstance(request.error, ServerClosed)
        assert not endpoint.queue
        assert SERVING.request_latency["error"].count == 3
        with pytest.raises(ServerClosed):
            endpoint.submit((_rows(9),))

    def test_close_still_serves_requests_with_a_waiter(self):
        slow, started, release = _gated()

        server = Server(ServingConfig(batch_linger_s=0.0))
        server.register("slow", slow, batchable=False)
        results = []
        clients = [threading.Thread(
            target=lambda i=i: results.append(
                server.call("slow", _rows(i)))) for i in range(2)]
        clients[0].start()
        assert started.wait(5.0)
        clients[1].start()
        endpoint = server._endpoints["slow"]
        deadline = time.time() + 5.0
        while time.time() < deadline:
            with endpoint.cond:
                if endpoint.queue and endpoint.queue[0].waiter is not None:
                    break
            time.sleep(0.005)
        server.close()
        release.set()
        for client in clients:
            client.join(10.0)
            assert not client.is_alive()
        assert len(results) == 2

    def test_wait_timeout_never_abandons_a_running_batch(self):
        slow, started, release = _gated()

        with Server(ServingConfig(batch_linger_s=0.0)) as server:
            endpoint = server.register("slow", slow, batchable=False)
            first = endpoint.submit((_rows(1),))
            leader = threading.Thread(target=first.wait)
            leader.start()
            assert started.wait(5.0)
            # A follower gives up after its timeout; its request stays
            # queued and is served later.
            second = endpoint.submit((_rows(2),))
            begin = time.perf_counter()
            assert second.wait(0.05) is False
            assert time.perf_counter() - begin < 5.0
            assert not second.done.is_set() and second.waiter is None
            release.set()
            leader.join(10.0)
            assert not leader.is_alive() and first.error is None
            # A leader whose timeout passes mid-batch finishes the batch.
            release.clear()
            timer = threading.Timer(0.2, release.set)
            timer.start()
            try:
                assert second.wait(0.01) is True
            finally:
                timer.cancel()
            assert np.array_equal(second.result.numpy(), _rows(2).numpy())
            assert endpoint.leader is None and not endpoint.queue

    def test_timed_out_follower_does_not_swallow_the_promotion(self):
        slow, started, release = _gated()

        with Server(ServingConfig(batch_linger_s=0.0)) as server:
            endpoint = server.register("slow", slow, batchable=False)
            first = endpoint.submit((_rows(1),))
            leader = threading.Thread(target=first.wait)
            leader.start()
            assert started.wait(5.0)
            quitter = endpoint.submit((_rows(2),))
            assert quitter.wait(0.02) is False
            patient = endpoint.submit((_rows(3),))
            follower = threading.Thread(target=patient.wait)
            follower.start()
            deadline = time.time() + 5.0
            while patient.waiter is None and time.time() < deadline:
                time.sleep(0.005)
            release.set()
            # The departing leader skips the quitter's request (nobody
            # sleeps on it) and promotes the patient client, which then
            # serves the quitter's older request on its way.
            follower.join(10.0)
            leader.join(10.0)
            assert not follower.is_alive() and not leader.is_alive()
            assert quitter.done.is_set() and patient.done.is_set()
            assert endpoint.leader is None and not endpoint.queue


class TestServingObservability:
    def _drive(self):
        @janus.function(config=strict(profile_runs=1))
        def affine(x):
            return x * 3.0

        with Server(ServingConfig(max_batch_size=4,
                                  batch_linger_s=0.02)) as server:
            server.register("affine", affine)

            def client(i):
                out = server.call("affine", _rows(i))
                assert np.array_equal(out.numpy(),
                                      _rows(i).numpy() * 3.0)

            assert not _run_clients(6, client)

    def test_report_has_serving_section(self):
        self._drive()
        report = render_report()
        rows = report_rows(report)
        assert rows["janus_serving_requests_total"] == "6"
        assert rows["janus_serving_rejection_rate"] == "0"
        assert rows["janus_serving_queue_depth"] == "6"
        assert rows["janus_serving_batch_size"] == "%d" % SERVING.batches
        assert rows["janus_serving_request_latency_seconds{ok}"] == "6"
        # One row per family: the windowed view is the row's second line.
        assert report.count("janus_serving_queue_wait_seconds") == 1

    def test_prometheus_exports_serving_gauges(self):
        self._drive()
        text = prometheus_text()
        assert "janus_serving_requests_total 6" in text
        assert "janus_serving_rejected_total 0" in text
        assert "janus_serving_queue_depth_count" in text
        assert "janus_serving_batch_size_count" in text
        assert "janus_serving_queue_wait_seconds_count" in text

    def test_idle_serving_section_omitted_from_report(self):
        # An unlabelled counter and a gauge are declared, so the report
        # and /metrics show them from the start, at a visible 0; a
        # histogram has no row before its first observation.
        rows = report_rows(render_report())
        assert rows["janus_serving_requests_total"] == "0"
        assert rows["janus_serving_active_clients"] == "0"
        assert not [name for name in rows if name.startswith(
            ("janus_serving_queue", "janus_serving_batch_size",
             "janus_serving_request_latency"))]
        assert "janus_serving_requests_total 0" in prometheus_text()


class TestSoloCall:
    """An uncontended ``Server.call`` runs on the lead it takes, with no
    request object - and accounts exactly as the queued path does."""

    N = 12

    @pytest.fixture(autouse=True)
    def _recorder_on(self):
        saved = RECORDER.enabled
        RECORDER.set_enabled(True)
        yield
        RECORDER.set_enabled(saved)

    def _accounts(self):
        latency = SERVING.request_latency
        recent = RECORDER.recent()
        return {
            "requests": SERVING.requests, "batches": SERVING.batches,
            "queue_depth": SERVING.queue_depth.count,
            "batch_size": SERVING.batch_size.count,
            "queue_wait": SERVING.queue_wait.count,
            "latency_ok": latency["ok"].count,
            "completed": RECORDER.completed,
            "recent": len(recent),
            "keys": {frozenset(s) for s in recent},
            "spans": {frozenset(e["cat"] for e in s["events"])
                      for s in recent},
            "outcomes": {s["outcome"] for s in recent},
        }

    def test_solo_and_queued_paths_account_identically(self):
        seen = {}
        for path in ("solo", "queued"):
            clear()
            with Server(ServingConfig(batch_linger_s=0.0)) as server:
                endpoint = server.register("id", lambda x: x,
                                           batchable=False)
                for i in range(self.N):
                    if path == "solo":
                        out = server.call("id", _rows(i))
                    else:
                        handle = endpoint.submit((_rows(i),))
                        assert handle.wait(10.0) and handle.error is None
                        out = handle.result
                    assert np.array_equal(out.numpy(), _rows(i).numpy())
                assert endpoint.leader is None and not endpoint.queue
            seen[path] = self._accounts()
        assert seen["solo"] == seen["queued"]
        assert seen["solo"]["requests"] == self.N
        assert seen["solo"]["batches"] == self.N
        assert seen["solo"]["spans"] == {
            frozenset(("serve_queue", "serve_dispatch"))}
        assert SERVING.active_clients == 0

    def test_solo_call_allocates_no_request(self, monkeypatch):
        from repro.serving import server as server_mod
        made = []
        real = server_mod._Request

        def counting(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(server_mod, "_Request", counting)
        with Server(ServingConfig(batch_linger_s=0.0)) as server:
            endpoint = server.register("id", lambda x: x)
            server.call("id", _rows(1))
            assert made == []
            endpoint.submit((_rows(2),)).wait(10.0)
            assert len(made) == 1

    @pytest.mark.parametrize("kind", [ValueError, _Dying])
    def test_solo_error_is_delivered_counted_and_frees_the_lead(self, kind):
        def boom(x):
            raise kind("no")

        with Server(ServingConfig(batch_linger_s=0.0)) as server:
            endpoint = server.register("boom", boom, batchable=False)
            with pytest.raises(kind):
                server.call("boom", _rows(0))
            assert endpoint.leader is None and not endpoint.queue
            # ... and the endpoint keeps answering.
            with pytest.raises(kind):
                server.call("boom", _rows(1))
        assert SERVING.requests == 2 and SERVING.batches == 2
        assert SERVING.request_latency["error"].count == 2
        assert SERVING.request_latency["ok"].count == 0
        assert SERVING.active_clients == 0
        failed = RECORDER.failed()
        assert [s["outcome"] for s in failed] == ["error", "error"]
        assert failed[0]["detail"] == kind.__name__

    def test_lone_caller_still_lingers_on_a_batchable_endpoint(self):
        with Server(ServingConfig(max_batch_size=4,
                                  batch_linger_s=0.08)) as server:
            server.register("id", lambda x: x)
            begin = time.perf_counter()
            server.call("id", _rows(1))
            assert time.perf_counter() - begin >= 0.07
            # Nothing to wait for on an endpoint that never batches.
            server.register("single", lambda x: x, batchable=False)
            begin = time.perf_counter()
            server.call("single", _rows(1))
            assert time.perf_counter() - begin < 0.07

    def test_arrivals_during_a_solo_run_queue_and_are_promoted(self):
        slow, started, release = _gated()
        with Server(ServingConfig(batch_linger_s=0.0)) as server:
            endpoint = server.register("slow", slow, batchable=False)
            results = {}
            first = threading.Thread(target=lambda: results.update(
                a=server.call("slow", _rows(1))))
            first.start()
            assert started.wait(5.0)
            assert endpoint.leader == first.ident and not endpoint.queue
            second = threading.Thread(target=lambda: results.update(
                b=server.call("slow", _rows(2))))
            second.start()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                with endpoint.lock:
                    if endpoint.queue \
                            and endpoint.queue[0].waiter is not None:
                        break
                time.sleep(0.005)
            assert SERVING.active_clients == 2
            release.set()
            for thread in (first, second):
                thread.join(10.0)
                assert not thread.is_alive()
            assert np.array_equal(results["b"].numpy(), _rows(2).numpy())
            assert endpoint.leader is None and not endpoint.queue
        assert SERVING.peak_clients == 2 and SERVING.active_clients == 0

    def test_traced_call_takes_the_queued_path_with_linked_events(self):
        from repro import observability as obs
        obs.set_trace_level(1)
        try:
            with Server(ServingConfig(batch_linger_s=0.0)) as server:
                server.register("id", lambda x: x, batchable=False)
                server.call("id", _rows(1))
            spans = {e.category: e for e in obs.TRACER.events
                     if e.ph == "X" and (e.args or {}).get("trace_id")}
        finally:
            obs.set_trace_level(0)
        assert set(spans) == {"serve_queue", "serve_dispatch"}
        assert spans["serve_queue"].args["trace_id"] == \
            spans["serve_dispatch"].args["trace_id"]
        assert spans["serve_queue"].args["span_id"] != \
            spans["serve_dispatch"].args["span_id"]
        assert spans["serve_dispatch"].args["batch"] == 1


class TestReentrantCall:
    """Regression: an endpoint function calling ``server.call`` on an
    endpoint whose lead its own thread holds used to queue behind
    itself and sleep forever."""

    def _call_in_thread(self, server, name, arg):
        out = {}
        thread = threading.Thread(
            target=lambda: out.update(result=server.call(name, arg)),
            daemon=True)
        thread.start()
        thread.join(5.0)
        assert not thread.is_alive(), "re-entrant call hung"
        return out["result"]

    @pytest.mark.parametrize("queued", [False, True])
    def test_endpoint_calling_itself(self, queued):
        server = Server(ServingConfig(batch_linger_s=0.0))

        def countdown(x):
            n = float(x.numpy()[0, 0])
            return x if n <= 0 else server.call("down", _rows(n - 1))

        endpoint = server.register("down", countdown, batchable=False)
        if queued:      # the outer call leads from the queued path
            endpoint.submit((_rows(0),))
        out = self._call_in_thread(server, "down", _rows(3))
        assert np.array_equal(out.numpy(), _rows(0).numpy())
        assert endpoint.leader is None and not endpoint.queue
        server.close()
        assert SERVING.requests == 4 + queued
        assert SERVING.request_latency["ok"].count == 4 + queued
        assert SERVING.active_clients == 0

    @pytest.mark.parametrize("timeout", [2.0, None])
    @pytest.mark.parametrize("queued", [False, True])
    def test_wait_from_inside_the_endpoint(self, queued, timeout):
        """Regression: ``submit`` + ``wait`` from inside the endpoint
        function waited for the lead its own thread holds: ``wait(2.0)``
        returned False and ``wait()`` never returned."""
        server = Server(ServingConfig(batch_linger_s=0.0))
        waited = []

        def countdown(x):
            n = float(x.numpy()[0, 0])
            if n <= 0:
                return x
            handle = endpoint.submit((_rows(n - 1),))
            waited.append(handle.wait(timeout))
            return handle.result

        endpoint = server.register("down", countdown, batchable=False)
        if queued:
            endpoint.submit((_rows(0),))
        out = self._call_in_thread(server, "down", _rows(2))
        assert waited == [True, True]
        assert np.array_equal(out.numpy(), _rows(0).numpy())
        assert endpoint.leader is None and not endpoint.queue
        server.close()
        # Every enqueued request completed, each accounted once.
        assert SERVING.requests == 3 + queued
        assert SERVING.request_latency["ok"].count == 3 + queued
        assert SERVING.active_clients == 0

    def test_a_calls_b_calls_a(self):
        server = Server(ServingConfig(batch_linger_s=0.0))

        def a(x):
            n = float(x.numpy()[0, 0])
            return x if n <= 0 else server.call("b", _rows(n - 1))

        server.register("a", a, batchable=False)
        server.register("b", lambda x: server.call("a", x),
                        batchable=False)
        out = self._call_in_thread(server, "a", _rows(2))
        assert np.array_equal(out.numpy(), _rows(0).numpy())
        server.close()
        assert SERVING.requests == 5       # a(2) b(1) a(1) b(0) a(0)
        assert SERVING.active_clients == 0


class TestBatchFallback:
    """Regression: a batch that does not split used to be invisible (no
    counter, no flag) and counted as if its requests had shared a run."""

    N = 4

    def _drive(self, fn):
        saved = RECORDER.enabled
        RECORDER.set_enabled(True)
        try:
            with Server(ServingConfig(max_batch_size=8,
                                      batch_linger_s=0.0)) as server:
                endpoint = server.register("fn", fn)
                pending = [endpoint.submit((_rows(i, rows=1),))
                           for i in range(self.N)]
                for handle in pending:
                    assert handle.wait(10.0) and handle.error is None
                return pending
        finally:
            RECORDER.set_enabled(saved)

    def _check_accounting(self, calls):
        assert calls == [self.N] + [1] * self.N
        assert SERVING.batch_fallbacks == 1
        assert SERVING.batches == 1 and SERVING.requests == self.N
        assert SERVING.batched_requests == 0
        assert SERVING.batch_size.max == self.N
        kept = RECORDER.failed()
        assert len(kept) == self.N
        for summary in kept:
            assert summary["outcome"] == "ok"
            assert summary["flags"] == ["batch_fallback"]
            assert [e["cat"] for e in summary["events"]] == \
                ["serve_queue", "serve_dispatch"]
        assert report_rows(render_report())[
            "janus_serving_batch_fallbacks_total"] == "1"
        assert "janus_serving_batch_fallbacks_total 1" in prometheus_text()

    def test_scalar_returning_endpoint(self):
        calls = []

        def total(x):
            calls.append(x.shape[0])
            return R.reduce_sum(x)

        pending = self._drive(total)
        for i, handle in enumerate(pending):
            assert float(handle.result.numpy()) == pytest.approx(i * 3.0)
        self._check_accounting(calls)

    def test_endpoint_raising_on_the_stacked_call(self):
        calls = []

        def single_rows_only(x):
            calls.append(x.shape[0])
            if x.shape[0] > 1:
                raise ValueError("one row at a time")
            return x

        pending = self._drive(single_rows_only)
        for i, handle in enumerate(pending):
            assert np.array_equal(handle.result.numpy(),
                                  _rows(i, rows=1).numpy())
        self._check_accounting(calls)

    def test_a_batch_that_splits_counts_no_fallback(self):
        self._drive(lambda x: x)
        assert SERVING.batch_fallbacks == 0
        assert SERVING.batched_requests == self.N
        assert RECORDER.failed() == []


_Pair = collections.namedtuple("_Pair", "double plus")


class TestBatchedReplies:
    """A stacked reply is split into private, typed pieces — whatever
    container the endpoint returns them in."""

    def _submit_all(self, fn, count):
        with Server(ServingConfig(max_batch_size=8,
                                  batch_linger_s=0.0)) as server:
            endpoint = server.register("fn", fn)
            pending = [endpoint.submit((_rows(i),)) for i in range(count)]
            for handle in pending:
                assert handle.wait(10.0) and handle.error is None
        return [handle.result for handle in pending]

    @pytest.mark.parametrize("container", [tuple, dict, _Pair])
    def test_structured_output_batches(self, container):
        # Regression: a dict or a namedtuple output did not split, so
        # every such batch was re-run one request at a time.
        calls = []

        def fn(x):
            calls.append(x.shape[0])
            double = R.constant(x.numpy() * 2.0)
            plus = R.constant(x.numpy() + 1.0)
            if container is dict:
                return {"double": double, "plus": plus}
            if container is tuple:
                return double, plus
            return _Pair(double, plus)

        replies = self._submit_all(fn, 4)
        assert calls == [8]
        assert SERVING.batch_fallbacks == 0
        assert SERVING.batched_requests == 4
        for i, reply in enumerate(replies):
            assert type(reply) is container
            double, plus = (reply["double"], reply["plus"]) \
                if container is dict else reply
            assert np.array_equal(double.numpy(), _rows(i).numpy() * 2.0)
            assert np.array_equal(plus.numpy(), _rows(i).numpy() + 1.0)

    @pytest.mark.parametrize("empty", [(), [], {}],
                             ids=["tuple", "list", "dict"])
    def test_empty_container_output(self, empty):
        # Regression: an empty output split into no pieces at all, and
        # its requests failed as if their dispatching thread had died.
        assert self._submit_all(lambda x: type(empty)(), 3) == [empty] * 3
        assert SERVING.batched_requests == 3

    def test_replies_are_private_and_typed(self):
        @janus.function(config=strict(profile_runs=1))
        def affine(x):
            return x * 2.0 + 1.0

        dtype = affine(_rows(0)).dtype
        replies = self._submit_all(affine, 8)
        assert all(isinstance(reply, R.Tensor) and reply.dtype is dtype
                   for reply in replies)
        # Written in place before anything seals it: a piece that shared
        # its buffer with a sibling would change the sibling too.
        replies[0].add_(100.0)
        assert np.array_equal(replies[0].numpy(),
                              _rows(0).numpy() * 2.0 + 101.0)
        for i, reply in enumerate(replies[1:], 1):
            assert np.array_equal(reply.numpy(),
                                  _rows(i).numpy() * 2.0 + 1.0), i
        assert all(reply.value.track() for reply in replies)
        assert SERVING.batched_requests == 8
        assert SERVING.queue_wait.count == 8
        assert SERVING.request_latency["ok"].count == 8
        assert SERVING.batch_size.total == 8


class TestLeadProtocolUnderContention:
    THREADS = 8

    def test_spinning_callers_lose_nothing(self):
        per_thread = 2000
        baseline = threading.active_count()

        def double(x):
            return R.constant(x.numpy() * 2.0)

        wrong = []
        server = Server(ServingConfig(max_batch_size=4, batch_linger_s=0.0,
                                      max_queue_depth=64))
        endpoint = server.register("double", double)
        rejected = [0] * self.THREADS

        def client(index):
            x = _rows(index)
            expect = double(x).numpy()
            for _ in range(per_thread):
                try:
                    out = server.call("double", x)
                except ServerOverloaded:
                    rejected[index] += 1
                    continue
                if not np.array_equal(out.numpy(), expect):
                    wrong.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            assert not _run_clients(self.THREADS, client, timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        total = self.THREADS * per_thread
        assert not wrong
        assert SERVING.requests + SERVING.rejected == total
        assert SERVING.rejected == sum(rejected)
        assert SERVING.request_latency["ok"].count == SERVING.requests
        assert SERVING.queue_wait.count == SERVING.requests
        assert SERVING.batch_size.total == SERVING.requests
        assert SERVING.batch_size.count == SERVING.batches
        assert SERVING.active_clients == 0
        assert 1 <= SERVING.peak_clients <= self.THREADS
        assert endpoint.leader is None and not endpoint.queue
        server.close()
        assert threading.active_count() == baseline

    def test_solo_runs_do_not_starve_batching(self):
        def slow(x):
            time.sleep(0.001)
            return x

        with Server(ServingConfig(max_batch_size=8,
                                  batch_linger_s=0.0)) as server:
            server.register("slow", slow)

            def client(index):
                for _ in range(25):
                    out = server.call("slow", _rows(index))
                    assert np.array_equal(out.numpy(),
                                          _rows(index).numpy())

            assert not _run_clients(self.THREADS, client)
        assert SERVING.requests == self.THREADS * 25
        assert SERVING.batch_size.max > 1
        assert SERVING.batched_requests > 0

    def test_close_racing_calls_never_hangs(self):
        for _ in range(5):
            server = Server(ServingConfig(max_batch_size=4,
                                          batch_linger_s=0.0))
            endpoint = server.register("id", lambda x: x)
            outcomes = []

            def client(index):
                x = _rows(index)
                for k in range(300):
                    try:
                        if (index + k) % 2:
                            out = server.call("id", x)
                        else:
                            handle = endpoint.submit((x,))
                            assert handle.wait(10.0)
                            if handle.error is not None:
                                raise handle.error
                            out = handle.result
                    except ServerClosed:
                        outcomes.append("closed")
                        return
                    assert np.array_equal(out.numpy(), x.numpy())
                outcomes.append("done")

            closer = threading.Timer(0.01, server.close)
            closer.start()
            try:
                assert not _run_clients(self.THREADS, client)
            finally:
                closer.join(10.0)
                server.close()
            assert len(outcomes) == self.THREADS
            assert endpoint.leader is None and not endpoint.queue
            assert SERVING.active_clients == 0
