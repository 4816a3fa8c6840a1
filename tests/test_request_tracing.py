"""Request-scoped tracing, windowed metrics, and the flight recorder.

The acceptance spine of the observability tentpole: one request
submitted through :mod:`repro.serving` that takes the co-execution path
must leave a *single* causally-linked flow — queue wait, dispatch,
symbolic fragments, imperative gap — sharing one ``trace_id``, with the
fragment/gap spans parented under the dispatch span.  Around it:
``WindowedHistogram`` rotation and percentile math (injectable clock,
no sleeps), flight-recorder retention of the slowest and all
failed/fallback/rejected requests, rejected-request latency accounting,
the :class:`StatsBundle` named views, and a live HTTP scrape
of ``/metrics`` + ``/health``.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

import repro as R
from repro import janus
from repro import observability as obs
from repro.observability import reqtrace
from repro.observability.cli import (load_stats,
                                     write_stats_json)
from repro.observability.httpstat import StatsServer
from repro.observability.metrics import (METRICS, Registry,
                                         WindowedHistogram)
from repro.observability.reqtrace import (RECORDER, FlightRecorder,
                                          RequestContext)
from repro.observability.serving import SERVING, ServingStats
from repro.serving import Server, ServerOverloaded, ServingConfig


@pytest.fixture(autouse=True)
def _clean():
    obs.clear()
    obs.set_trace_level(0)
    saved_metrics = obs.set_metrics_enabled(False)
    saved_recorder = RECORDER.enabled
    RECORDER.set_enabled(True)
    yield
    obs.clear()
    obs.set_trace_level(0)
    obs.set_metrics_enabled(saved_metrics)
    RECORDER.set_enabled(saved_recorder)


class _FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


# ---------------------------------------------------------------------------
# WindowedHistogram
# ---------------------------------------------------------------------------

class TestWindowedHistogram:
    def test_cumulative_view_is_a_plain_histogram(self):
        hist = WindowedHistogram(window_s=60.0, slices=6)
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 0.001 and hist.max == 0.004
        assert hist.percentile(50) > 0.0

    def test_window_rotation_expires_old_slices(self):
        clock = _FakeClock()
        hist = WindowedHistogram(window_s=6.0, slices=3, clock=clock)
        hist.observe(0.001)                   # slice seq 0
        clock.t = 2.5
        hist.observe(0.002)                   # slice seq 1
        assert hist.window().count == 2
        # Advance past the window: both slices expire, cumulative stays.
        clock.t = 20.0
        assert hist.window().count == 0
        assert hist.count == 2
        hist.observe(0.003)
        assert hist.window().count == 1

    def test_slot_reuse_resets_stale_slice(self):
        clock = _FakeClock()
        hist = WindowedHistogram(window_s=3.0, slices=3, clock=clock)
        hist.observe(0.001)                   # seq 0 -> slot 0
        clock.t = 3.1                         # seq 3 -> slot 0 again
        hist.observe(0.002)
        window = hist.window()
        # The stale seq-0 observation must not leak into the new slot.
        assert window.count == 1
        assert window.max == 0.002

    def test_window_percentiles_merge_across_slices(self):
        clock = _FakeClock()
        hist = WindowedHistogram(window_s=10.0, slices=5, clock=clock)
        for i, value in enumerate([0.001] * 50 + [0.1] * 50):
            clock.t = i * 0.1                 # spread over ~5 slices
            hist.observe(value)
        stats = hist.window_percentiles()
        assert stats["count"] == 100
        assert stats["p50"] <= 0.01
        assert stats["p99"] >= 0.05

    def test_snapshot_roundtrip_preserves_window(self):
        clock = _FakeClock()
        hist = WindowedHistogram(window_s=6.0, slices=3, clock=clock)
        hist.observe(0.001)
        clock.t = 20.0
        hist.observe(0.002)                   # only this one is recent
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["window"]["merged"]["count"] == 1
        restored = WindowedHistogram.from_snapshot(snap)
        assert restored.count == 2
        assert restored.window().count == 1
        assert restored.window_s == 6.0 and restored.slices == 3

    def test_registry_restores_windowed_type_and_geometry(self):
        registry = Registry()
        registry.windowed("janus_a_seconds", "a", window_s=12.0,
                          slices=4).labels().observe(0.001)
        registry.histogram("janus_b_seconds", "b").labels().observe(0.002)
        restored = Registry.from_snapshot(registry.snapshot())
        windowed = restored.get("janus_a_seconds").labels()
        assert isinstance(windowed, WindowedHistogram)
        assert (windowed.window_s, windowed.slices) == (12.0, 4)
        assert windowed.window().count == 1
        assert not isinstance(restored.get("janus_b_seconds").labels(),
                              WindowedHistogram)

    def test_the_declaration_fixes_the_kind(self):
        registry = Registry()
        registry.histogram("janus_x_seconds", "x")
        with pytest.raises(ValueError, match="already declared"):
            registry.windowed("janus_x_seconds", "x")


# ---------------------------------------------------------------------------
# RequestContext mechanics
# ---------------------------------------------------------------------------

class TestRequestContext:
    def test_new_request_gates_on_tracer_and_recorder(self):
        RECORDER.set_enabled(False)
        assert reqtrace.new_request("r") is None
        RECORDER.set_enabled(True)
        assert isinstance(reqtrace.new_request("r"), RequestContext)
        RECORDER.set_enabled(False)
        obs.set_trace_level(1)
        assert isinstance(reqtrace.new_request("r"), RequestContext)

    def test_tracer_events_are_annotated_inside_request(self):
        obs.set_trace_level(1)
        ctx = reqtrace.new_request("r")
        with reqtrace.using(ctx):
            obs.TRACER.instant("cache_hit", "fn", hits=1)
        outside = obs.TRACER
        outside.instant("cache_hit", "fn", hits=2)
        annotated = [e for e in obs.TRACER.events
                     if (e.args or {}).get("trace_id")]
        assert len(annotated) == 1
        assert annotated[0].args["trace_id"] == ctx.trace_id
        assert annotated[0].args["span_id"] >= 1
        # ...and mirrored into the request's bounded capture.
        assert len(ctx.events) == 1

    def test_span_nesting_links_parents(self):
        obs.set_trace_level(1)
        ctx = reqtrace.new_request("r")
        with reqtrace.using(ctx):
            with reqtrace.span("serve_dispatch", "outer") as outer:
                with reqtrace.span("coexec_fragment", "inner") as inner:
                    pass
        spans = {e.name: e for e in obs.TRACER.events if e.ph == "X"}
        assert spans["inner"].args["parent_span"] == \
            spans["outer"].args["span_id"]
        assert spans["inner"].args["trace_id"] == ctx.trace_id

    def test_capture_works_with_tracing_off(self):
        assert obs.TRACER.level == 0
        ctx = reqtrace.new_request("r")
        with reqtrace.using(ctx):
            with reqtrace.span("serve_dispatch", "d"):
                reqtrace.note("fallback", "f", flag="fallback")
        assert len(obs.TRACER.events) == 0     # tracer untouched
        categories = [e["cat"] for e in ctx.events]
        assert "serve_dispatch" in categories
        assert "fallback" in categories
        assert "fallback" in ctx.flags

    def test_capture_is_bounded(self):
        ctx = reqtrace.new_request("r")
        with reqtrace.using(ctx):
            for i in range(RequestContext.MAX_EVENTS + 25):
                reqtrace.note("op", "n%d" % i)
        assert len(ctx.events) == RequestContext.MAX_EVENTS
        assert ctx.dropped == 25


# ---------------------------------------------------------------------------
# The acceptance criterion: one causally-linked flow per served request
# ---------------------------------------------------------------------------

def _sandwich_function():
    log = []
    w = np.array([1.0, 2.0, 3.0, 4.0], np.float32)

    def sandwich(x):
        y = x * 2.0
        y = y + w
        log.append(float(R.reduce_sum(y).numpy()))
        z = y * y
        z = z + y
        return R.reduce_sum(z)

    return janus.function(
        config=janus.JanusConfig(profile_runs=2,
                                 parallel_execution=False,
                                 coexecution=True))(sandwich)


class TestServedCoexecFlow:
    def test_single_flow_with_linked_spans(self):
        f = _sandwich_function()
        x = R.constant(np.array([0.5, 1.5, 2.5, 3.5], np.float32))
        for _ in range(5):                     # profile + install plan
            f(x)
        assert f.coexec_plan is not None

        obs.TRACER.clear()
        obs.set_trace_level(1)
        with Server(ServingConfig(max_batch_size=1)) as server:
            server.register("sandwich", f, batchable=False)
            result = server.call("sandwich", x)
        obs.set_trace_level(0)
        assert result is not None

        flows = {}
        for event in obs.TRACER.events:
            trace_id = (event.args or {}).get("trace_id")
            if trace_id:
                flows.setdefault(trace_id, []).append(event)
        assert len(flows) == 1, "one request must yield one flow"
        (trace_id, events), = flows.items()

        by_cat = {}
        for event in events:
            by_cat.setdefault(event.category, []).append(event)
        # >= 4 causally-linked spans: queue, dispatch, fragment(s), gap.
        assert "serve_queue" in by_cat
        assert "serve_dispatch" in by_cat
        assert len(by_cat.get("coexec_fragment", ())) >= 1
        assert len(by_cat.get("coexec_gap", ())) >= 1
        assert len(events) >= 4

        dispatch = by_cat["serve_dispatch"][0]
        for category in ("coexec_fragment", "coexec_gap"):
            for span in by_cat[category]:
                assert span.args["parent_span"] == \
                    dispatch.args["span_id"], (category, span.args)

        # The chrome-trace export carries the linkage.
        chrome = obs.chrome_trace_events()
        linked = [e for e in chrome
                  if e.get("args", {}).get("trace_id") == trace_id]
        assert len(linked) >= 4

        # ...and the flight recorder kept the request as an exemplar.
        recent = RECORDER.recent()
        assert any(s["trace_id"] == trace_id and s["outcome"] == "ok"
                   for s in recent)

    def test_recorder_captures_flow_with_tracing_off(self):
        f = _sandwich_function()
        x = R.constant(np.array([0.5, 1.5, 2.5, 3.5], np.float32))
        for _ in range(5):
            f(x)
        assert f.coexec_plan is not None
        assert obs.TRACER.level == 0

        with Server(ServingConfig(max_batch_size=1)) as server:
            server.register("sandwich", f, batchable=False)
            server.call("sandwich", x)
        assert len(obs.TRACER.events) == 0
        summary = RECORDER.recent()[-1]
        categories = {e["cat"] for e in summary["events"]}
        assert {"serve_queue", "serve_dispatch",
                "coexec_fragment", "coexec_gap"} <= categories
        assert summary["duration_s"] > 0.0


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

def _finished(recorder, name, duration, outcome="ok", flags=()):
    ctx = RequestContext(name)
    ctx.started = time.perf_counter() - duration
    for item in flags:
        ctx.flags.add(item)
    ctx.outcome = outcome
    ctx.detail = None
    ctx.duration = time.perf_counter() - ctx.started
    recorder.record(ctx)
    return ctx


class TestFlightRecorder:
    def test_retains_n_slowest(self):
        recorder = FlightRecorder(keep_slowest=2)
        for name, duration in (("a", 0.01), ("b", 0.5), ("c", 0.001),
                               ("d", 0.3), ("e", 0.002)):
            _finished(recorder, name, duration)
        slowest = recorder.slowest()
        assert [s["name"] for s in slowest] == ["b", "d"]
        assert recorder.completed == 5

    def test_retains_all_failed_and_flagged(self):
        recorder = FlightRecorder(keep_slowest=1)
        _finished(recorder, "ok-fast", 0.001)
        _finished(recorder, "boom", 0.001, outcome="error")
        _finished(recorder, "fell-back", 0.002, flags=("fallback",))
        _finished(recorder, "bounced", 0.0001, outcome="rejected")
        failed = recorder.failed()
        assert [s["name"] for s in failed] == \
            ["boom", "fell-back", "bounced"]
        assert recorder.failures == 3

    def test_snapshot_roundtrip(self):
        recorder = FlightRecorder(keep_slowest=2)
        _finished(recorder, "slow", 0.2)
        _finished(recorder, "bad", 0.01, outcome="error")
        restored = FlightRecorder.from_snapshot(recorder.snapshot())
        assert restored.completed == 2 and restored.failures == 1
        assert [s["name"] for s in restored.slowest()] == ["slow", "bad"]
        assert [s["name"] for s in restored.failed()] == ["bad"]
        assert not restored.enabled    # restored recorders are read-only

    def test_disabled_recorder_records_nothing(self):
        recorder = FlightRecorder()
        recorder.set_enabled(False)
        _finished(recorder, "r", 0.01)
        assert recorder.completed == 0
        assert recorder.slowest() == []


# ---------------------------------------------------------------------------
# Rejected requests (satellite)
# ---------------------------------------------------------------------------

class TestRejectedRequests:
    def test_reject_lands_in_windowed_latency(self):
        stats = ServingStats()
        stats.record_enqueue(0)
        stats.record_reject(0.0005)
        rejected = stats.request_latency["rejected"]
        assert isinstance(rejected, WindowedHistogram)
        assert rejected.count == 1
        assert rejected.window().count == 1
        assert stats.rejection_rate == pytest.approx(0.5)

    def test_server_overload_counts_and_retains(self):
        release = threading.Event()
        started = threading.Event()

        def slow(x):
            started.set()
            release.wait(10.0)
            return x

        before = SERVING.rejected
        with Server(ServingConfig(max_batch_size=1,
                                  max_queue_depth=1)) as server:
            server.register("slow", slow, batchable=False)
            x = R.constant(np.ones(2, np.float32))
            blocker = threading.Thread(
                target=lambda: server.call("slow", x), daemon=True)
            blocker.start()
            assert started.wait(5.0)
            # Dispatcher is stuck in slow(); this fills the queue...
            filler = threading.Thread(
                target=lambda: server.call("slow", x), daemon=True)
            filler.start()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                endpoint = server._endpoints["slow"]
                with endpoint.cond:
                    if len(endpoint.queue) >= 1:
                        break
                time.sleep(0.01)
            # ...and this one must bounce at the admission bound.
            with pytest.raises(ServerOverloaded):
                server.call("slow", x)
            release.set()
            blocker.join(5.0)
            filler.join(5.0)
        assert SERVING.rejected == before + 1
        assert SERVING.request_latency["rejected"].count >= 1
        rejected = [s for s in RECORDER.failed()
                    if s["outcome"] == "rejected"]
        assert rejected and "rejected" in rejected[0]["flags"]


# ---------------------------------------------------------------------------
# StatsBundle
# ---------------------------------------------------------------------------

class TestStatsBundle:
    def test_named_views_over_the_restored_registry(self, tmp_path):
        obs.set_metrics_enabled(True)
        METRICS.get("janus_graph_run_seconds").labels().observe(0.001)
        SERVING.record_enqueue(0)
        SERVING.record_reject()
        path = write_stats_json(str(tmp_path / "stats.json"))
        bundle = load_stats(path)
        assert bundle.serving is bundle.registry.view(ServingStats)
        assert bundle.serving.rejection_rate == SERVING.rejection_rate
        assert bundle.registry.get(
            "janus_graph_run_seconds").labels().count == 1
        assert isinstance(bundle.requests, FlightRecorder)
        assert not bundle.requests.enabled


# ---------------------------------------------------------------------------
# Live scrape endpoint
# ---------------------------------------------------------------------------

def _get(url):
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return resp.read().decode("utf-8")


class TestHttpstat:
    def test_metrics_health_and_requests_scrape(self):
        obs.set_metrics_enabled(True)
        f = _sandwich_function()
        x = R.constant(np.array([0.5, 1.5, 2.5, 3.5], np.float32))
        with Server(ServingConfig(max_batch_size=1)) as server:
            server.register("sandwich", f, batchable=False)
            for _ in range(6):
                server.call("sandwich", x)
        with StatsServer(port=0) as stats:
            metrics_text = _get(stats.url + "/metrics")
            health = json.loads(_get(stats.url + "/health"))
            requests = json.loads(_get(stats.url + "/requests"))
            index = _get(stats.url + "/")
        samples = [line for line in metrics_text.splitlines()
                   if line and not line.startswith("#")]
        assert samples, "live /metrics must serve samples"
        assert any(line.startswith("janus_serving_requests_total")
                   for line in samples)
        assert health["status"] == "ok"
        assert any(fn["name"] == "sandwich"
                   for fn in health["functions"])
        assert health["serving"]["requests"] >= 6
        assert "request_latency_ok_window" in health["serving"]
        assert requests["completed"] >= 6
        assert "/metrics" in index

    def test_unknown_path_is_404(self):
        with StatsServer(port=0) as stats:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(stats.url + "/nope")
            assert excinfo.value.code == 404
