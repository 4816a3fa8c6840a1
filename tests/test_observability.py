"""The runtime observability layer: tracer, counters, exporters, hooks."""

import json
import time

import numpy as np
import pytest

import repro as R
from repro import janus, observability as obs
from repro.observability.metrics import Registry
from repro.observability.tracer import Tracer


@pytest.fixture(autouse=True)
def _tracing_off_after():
    """Every test leaves the global tracer disabled and empty."""
    yield
    obs.set_trace_level(0)
    obs.clear()


def strict(**kw):
    return janus.JanusConfig(fail_on_not_convertible=True, **kw)


class TestTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(level=0)
        tracer.instant("op", "x")
        with tracer.span("graphgen", "f"):
            pass
        tracer.complete("pass", "dce", 0.0, 1.0)
        assert len(tracer) == 0

    def test_disabled_overhead_bound(self):
        """A gated emit on a disabled tracer is an attribute check:
        ~100ns/call.  Bound it loosely so slow CI never flakes."""
        tracer = Tracer(level=0)
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            tracer.instant("op", "x")
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, "disabled emit too slow: %.0f ns/call" % (
            elapsed / n * 1e9)

    def test_level_gating(self):
        tracer = Tracer(level=1)
        tracer.instant("op", "lifecycle", level=1)
        tracer.instant("op", "detailed", level=2)
        assert [e.name for e in tracer.events] == ["lifecycle"]

    def test_event_ordering(self):
        tracer = Tracer(level=2)
        for i in range(50):
            tracer.instant("op", "e%d" % i, index=i)
        events = tracer.events
        assert [e.args["index"] for e in events] == list(range(50))
        stamps = [e.ts for e in events]
        assert stamps == sorted(stamps)

    def test_ring_buffer_bounded(self):
        tracer = Tracer(level=1, capacity=16)
        for i in range(100):
            tracer.instant("op", "e", index=i)
        events = tracer.events
        assert len(events) == 16
        # The most recent window survives.
        assert [e.args["index"] for e in events] == list(range(84, 100))

    def test_ring_buffer_exact_capacity_boundary(self):
        """Exactly ``capacity`` events all survive; one more drops only
        the oldest."""
        tracer = Tracer(level=1, capacity=8)
        for i in range(8):
            tracer.instant("op", "e", index=i)
        assert [e.args["index"] for e in tracer.events] == list(range(8))
        tracer.instant("op", "e", index=8)
        assert [e.args["index"] for e in tracer.events] == list(range(1, 9))
        assert len(tracer) == 8

    def test_drain_empties_but_events_snapshot_does_not(self):
        tracer = Tracer(level=1)
        for i in range(3):
            tracer.instant("op", "e", index=i)
        # `events` is a non-destructive snapshot: repeated reads agree.
        first = [e.args["index"] for e in tracer.events]
        assert first == [e.args["index"] for e in tracer.events] == [0, 1, 2]
        # `drain` returns the same events, oldest first, and clears.
        drained = tracer.drain()
        assert [e.args["index"] for e in drained] == [0, 1, 2]
        assert tracer.events == [] and len(tracer) == 0
        assert tracer.drain() == []
        # New events start a fresh buffer, not a continuation.
        tracer.instant("op", "e", index=99)
        assert [e.args["index"] for e in tracer.events] == [99]

    def test_set_level_zero_during_open_span_still_records(self):
        """Spans gate at *entry*: one opened while tracing was on must
        record its complete event even if tracing is disabled before it
        exits (otherwise a run's final graphgen span would vanish)."""
        tracer = Tracer(level=1)
        with tracer.span("graphgen", "f"):
            tracer.set_level(0)
        (event,) = tracer.events
        assert (event.category, event.name, event.ph) == \
            ("graphgen", "f", "X")

    def test_raising_level_during_null_span_records_nothing(self):
        """The converse race: a span opened while disabled is the shared
        null span, so enabling tracing mid-span records nothing."""
        tracer = Tracer(level=0)
        with tracer.span("graphgen", "f"):
            tracer.set_level(2)
            tracer.instant("op", "inside")
        assert [e.name for e in tracer.events] == ["inside"]

    def test_span_times_block(self):
        tracer = Tracer(level=1)
        with tracer.span("pass", "timed"):
            time.sleep(0.01)
        (event,) = tracer.events
        assert event.ph == "X"
        assert event.dur >= 0.005

    def test_span_records_error(self):
        tracer = Tracer(level=1)
        with pytest.raises(ValueError):
            with tracer.span("graphgen", "f"):
                raise ValueError("boom")
        (event,) = tracer.events
        assert event.args["error"] == "ValueError"

    def test_override_level(self):
        obs.set_trace_level(0)
        with obs.override_level(1):
            assert obs.trace_level() == 1
        assert obs.trace_level() == 0


def _counters(registry):
    return registry.counter("janus_counter_total",
                            "Flat runtime counters by name.",
                            labels=("name",))


class TestCounters:
    def test_inc_and_read(self):
        counters = _counters(Registry())
        counters.labels("a").inc()
        counters.labels("a").inc(4)
        assert counters.labels("a").value == 5
        assert obs.counter_values(Registry()) == {}

    def test_timer_sites_are_histograms(self):
        """The former ``janus.compile`` / ``graphgen.optimize`` timers:
        count + sum is what a timer was, and a histogram has both."""

        @janus.function(config=strict())
        def f(x):
            return x * 2.0 + 1.0

        for _ in range(5):
            f(R.constant(np.float32(2.0)))
        for name in ("janus_compile_seconds",
                     "janus_graphgen_optimize_seconds"):
            hist = obs.METRICS.get(name).labels()
            assert hist.count >= 1 and hist.total > 0.0, name

    def test_snapshot_is_plain_data(self):
        registry = Registry()
        _counters(registry).labels("n").inc(3)
        registry.histogram("janus_t_seconds", "t").labels().observe(0.125)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["janus_counter_total"]["samples"] == [[["n"], 3]]
        assert snap["janus_counter_total"]["kind"] == "counter"
        assert snap["janus_t_seconds"]["samples"][0][1]["sum"] == 0.125


class TestChromeTraceExport:
    def test_schema_validity(self, tmp_path):
        tracer = Tracer(level=2)
        tracer.instant("cache_hit", "f", hits=3)
        tracer.complete("op", "matmul", 1.0, 0.002, node="matmul_0")
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path), tracer=tracer)
        payload = json.load(open(path))
        events = payload["traceEvents"]
        assert isinstance(events, list) and len(events) >= 3
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
            assert event["ph"] in ("M", "i", "X")
            if event["ph"] == "X":
                assert "dur" in event and event["dur"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"
        complete = [e for e in events if e["ph"] == "X"]
        assert complete[0]["dur"] == pytest.approx(2000.0)  # µs

    def test_non_jsonable_args_stringified(self, tmp_path):
        tracer = Tracer(level=1)
        tracer.instant("graphgen", "f", signature=("T", "float32", 2))
        path = tmp_path / "t.json"
        obs.write_chrome_trace(str(path), tracer=tracer)
        payload = json.load(open(path))
        args = [e for e in payload["traceEvents"]
                if e.get("cat") == "graphgen"][0]["args"]
        assert isinstance(args["signature"], str)

    def test_text_summary_mentions_categories(self):
        tracer = Tracer(level=1)
        tracer.instant("fallback", "f", reason="assumption_failed")
        tracer.complete("pass", "dce", 0.0, 0.001)
        summary = obs.text_summary(tracer=tracer, registry=Registry())
        assert "fallback" in summary
        assert "pass" in summary

    def test_text_summary_always_reports_write_barrier_block(self):
        """The memo/write-barrier counters print even at zero: a zero
        memo_hit row on a tensor-attr workload is itself the signal."""
        summary = obs.text_summary(tracer=Tracer(level=1),
                                   registry=Registry())
        assert "-- heap-read memo / write barrier --" in summary
        for name in ("executor.memo_hit", "executor.memo_stale",
                     "tensor.cow_copies"):
            assert name in summary

    def test_write_barrier_counters_not_duplicated_in_generic_block(self):
        registry = Registry()
        counters = _counters(registry)
        counters.labels("executor.memo_hit").inc(7)
        counters.labels("executor.memo_stale").inc(2)
        counters.labels("tensor.cow_copies").inc(1)
        counters.labels("eager.dispatches").inc(3)
        summary = obs.text_summary(tracer=Tracer(level=1),
                                   registry=registry)
        assert summary.count("executor.memo_hit") == 1
        assert summary.count("tensor.cow_copies") == 1
        barrier_block = summary.split(
            "-- heap-read memo / write barrier --")[1]
        generic_block = barrier_block.split("-- counters --")[1]
        assert "executor.memo_hit" not in generic_block
        assert "eager.dispatches" in generic_block


class Holder:
    def __init__(self):
        self.scale = 3.0


class TestJanusLifecycleEvents:
    def test_graphgen_cache_and_op_events(self):
        obs.clear()
        obs.set_trace_level(1)

        @janus.function(config=strict())
        def f(x):
            return x * 2.0 + 1.0

        for _ in range(6):
            out = f(R.constant(np.float32(2.0)))
        assert float(out.numpy()) == pytest.approx(5.0)
        counts = obs.TRACER.category_counts()
        assert counts.get("graphgen", 0) >= 2    # span + generated instant
        assert counts.get("cache_store", 0) == 1
        assert counts.get("cache_hit", 0) >= 2
        assert counts.get("op", 0) >= 1          # per-run spans at level 1

    def test_memo_hit_counter_flows_from_traced_runs_to_summary(self):
        obs.clear()
        obs.set_trace_level(1)
        holder = Holder()
        holder.weights = R.constant(np.arange(4, dtype=np.float32))

        @janus.function(config=strict(parallel_execution=False))
        def f(x):
            return R.reduce_sum(x * holder.weights)

        memo_hits = obs.COUNTERS.labels("executor.memo_hit")
        before = memo_hits.value
        for _ in range(8):
            f(R.constant(np.ones(4, np.float32)))
        assert f.stats["graph_runs"] > 1
        hits = memo_hits.value - before
        assert hits > 0                          # steady-state heap reads
        summary = obs.text_summary()
        assert "executor.memo_hit" in summary

    def test_forced_fallback_names_failing_guard(self):
        obs.clear()
        obs.set_trace_level(1)
        h = Holder()

        @janus.function(config=strict())
        def f(x):
            return x * h.scale

        for _ in range(5):
            f(R.constant(np.float32(2.0)))
        assert f.stats["graph_runs"] > 0
        h.scale = 5.0   # break the burned-in constant
        out = f(R.constant(np.float32(2.0)))
        assert float(out.numpy()) == pytest.approx(10.0)
        assert f.stats["fallbacks"] == 1

        events = obs.TRACER.events
        failures = [e for e in events if e.category == "assumption_fail"]
        fallbacks = [e for e in events if e.category == "fallback"]
        assert len(failures) == 1 and len(fallbacks) == 1
        assert "profiled constant" in failures[0].args["guard"]
        assert "attr" in failures[0].args["site"]
        assert fallbacks[0].args["reason"] == "assumption_failed"
        assert f.last_assumption_failure is not None
        # The fallback must come after the failed assumption.
        assert failures[0].ts <= fallbacks[0].ts
        # The relaxation that follows is recorded too.
        assert any(e.category == "relax" for e in events)

    def test_level2_per_op_timing(self):
        obs.clear()
        obs.set_trace_level(2)

        @janus.function(config=strict(parallel_execution=False))
        def f(x):
            return x * 2.0 + 1.0

        for _ in range(5):
            f(R.constant(np.float32(2.0)))
        per_op = [e for e in obs.TRACER.events
                  if e.category == "op" and e.args
                  and "node" in (e.args or {})]
        assert per_op, "expected per-node op events at level 2"
        assert all(e.ph == "X" for e in per_op)

    def test_eager_dispatch_counters(self):
        obs.clear()
        obs.set_trace_level(1)
        R.add(R.constant(1.0), R.constant(2.0))
        assert obs.COUNTERS.labels("eager.dispatch").value >= 1
        assert obs.COUNTERS.labels("eager.dispatch.add").value >= 1

    def test_tracing_off_emits_nothing(self):
        obs.clear()
        obs.set_trace_level(0)

        @janus.function(config=strict())
        def f(x):
            return x + 1.0

        for _ in range(5):
            f(R.constant(np.float32(1.0)))
        assert len(obs.TRACER) == 0
        assert obs.COUNTERS.labels("eager.dispatch").value == 0


class TestDemo:
    def test_demo_roundtrips_through_json(self, tmp_path):
        from repro.observability import demo
        out = tmp_path / "trace.json"
        path = demo.run(steps=8, out=str(out), level=2)
        payload = json.load(open(path))
        events = payload["traceEvents"]
        cats = {e.get("cat") for e in events}
        assert {"graphgen", "op", "assumption_fail", "fallback"} <= cats
        assert any(c and c.startswith("cache") for c in cats)
