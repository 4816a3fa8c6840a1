"""Speculation-health analytics: metrics, per-site attribution, CLI.

Forced assumption failures drive a ``janus.function`` through the state
model of :mod:`repro.observability.health` — profiling → specialized →
converged, and a cache-thrashing scenario — and the tests assert the
reported state, graph-hit ratios, per-site failure counts with their
relax chains, and percentile sanity of the latency histograms.  The
``janus-stats`` CLI is exercised on both the live registries and a
saved stats bundle, and the untracked→tracked digest-flip regression
(spurious fragment reconversion on the first regeneration after
write-barrier sealing) is pinned down at both the digest and the
fragment-reuse-metric level.
"""

import json

import numpy as np
import pytest

import repro as R
from repro import janus, observability as obs
from repro.janus import fragments
from repro.observability import counter_values as counters
from repro.observability.cli import (load_stats, main as stats_main,
                                     prometheus_text, render_report,
                                     write_stats_json)
from repro.observability.health import (CONVERGED_RUNS, HEALTH,
                                        HealthRegistry, site_key)
from repro.observability.metrics import METRICS, Histogram, Registry
from repro.tensor import TensorValue

from test_metrics_registry import report_rows


@pytest.fixture(autouse=True)
def _metrics_on():
    """Each test runs with metrics enabled and leaves registries clean."""
    previous = obs.set_metrics_enabled(True)
    obs.clear()
    yield
    obs.set_metrics_enabled(previous)
    obs.clear()


def strict(**kw):
    return janus.JanusConfig(fail_on_not_convertible=True,
                             parallel_execution=False, **kw)


def hist(name, registry=METRICS):
    """The one child of an unlabelled histogram family."""
    return registry.get(name).labels()


# -- histogram unit behaviour -------------------------------------------------

class TestHistogram:
    def test_count_sum_min_max(self):
        hist = Histogram()
        for v in (0.001, 0.004, 0.002):
            hist.observe(v)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.007)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.004)
        assert hist.mean == pytest.approx(0.007 / 3)

    def test_percentiles_monotonic_and_clamped(self):
        hist = Histogram()
        rng = np.random.default_rng(0)
        for v in rng.uniform(1e-5, 1e-2, size=500):
            hist.observe(float(v))
        pct = hist.percentiles()
        assert 0.0 < pct["p50"] <= pct["p95"] <= pct["p99"] <= hist.max
        assert hist.percentile(0) >= hist.min
        assert hist.percentile(100) <= hist.max

    def test_nonpositive_values_land_in_first_bucket(self):
        hist = Histogram()
        hist.observe(0.0)
        hist.observe(-1.0)
        assert hist.counts[0] == 2
        assert hist.percentile(50) <= 0.0

    def test_merge_matches_combined_stream(self):
        values_a = [1e-5, 3e-4, 2e-3]
        values_b = [7e-6, 5e-2]
        a, b, combined = Histogram(), Histogram(), Histogram()
        for v in values_a:
            a.observe(v)
            combined.observe(v)
        for v in values_b:
            b.observe(v)
            combined.observe(v)
        a.merge(b)
        assert a.counts == combined.counts
        assert a.count == combined.count
        assert a.total == pytest.approx(combined.total)
        assert a.min == combined.min and a.max == combined.max

    def test_snapshot_roundtrip_via_json(self):
        hist = Histogram()
        for v in (1e-4, 2e-4, 9e-1):
            hist.observe(v)
        snap = json.loads(json.dumps(hist.snapshot()))
        restored = Histogram.from_snapshot(snap)
        assert restored.counts == hist.counts
        assert restored.percentiles() == hist.percentiles()

    def test_disabled_sites_record_nothing(self):
        """``METRICS.enabled`` gates the latency and health *sites*:
        disabled, a dispatched function leaves both empty."""
        obs.set_metrics_enabled(False)

        @janus.function(config=strict())
        def quiet(x):
            return x + 1.0

        for _ in range(6):
            quiet(R.constant(np.float32(1.0)))
        assert quiet.stats["graph_runs"] > 0
        assert hist("janus_graph_run_seconds").count == 0
        assert hist("janus_dispatch_latency_seconds").count == 0
        assert HEALTH.get("quiet") is None


# -- the state model, driven by real forced failures --------------------------

class TestLifecycleStates:
    def test_profiling_to_specialized_to_converged(self):
        knob = type("K", (), {})()
        knob.scale = 3.0

        @janus.function(config=strict())
        def f(x):
            return x * knob.scale

        x = R.constant(np.linspace(-1, 1, 8).astype(np.float32))
        f(x)
        f(x)
        health = HEALTH.get("f")
        assert health.state == "profiling"
        assert "profiling" in health.diagnosis()

        f(x)                                   # last profile run
        f(x)                                   # generate + first graph run
        assert f.stats["graph_runs"] == 1
        assert health.state == "specialized"
        assert "not yet converged" in health.diagnosis()

        for _ in range(CONVERGED_RUNS):
            f(x)
        assert health.state == "converged"
        assert health.consecutive_graph_runs >= CONVERGED_RUNS
        assert health.graph_hit_ratio == pytest.approx(
            health.graph_runs / health.calls)
        assert health.fallbacks == 0 and health.recompiles == 0

    def test_failure_attributes_site_relax_and_costs(self):
        knob = type("K", (), {})()
        knob.scale = 3.0

        @janus.function(config=strict())
        def g(x):
            return x * knob.scale

        x = R.constant(np.linspace(-1, 1, 8).astype(np.float32))
        for _ in range(4 + CONVERGED_RUNS):
            g(x)
        health = HEALTH.get("g")
        assert health.state == "converged"

        knob.scale = 5.0                       # breaks the const-attr guard
        out = g(x)                             # guard fails -> fallback
        assert g.stats["fallbacks"] == 1
        assert np.allclose(out.numpy(), x.numpy() * 5.0)
        assert health.fallbacks == 1

        worst = health.worst_site()
        assert worst is not None
        assert worst.kind == "attr"
        assert worst.failures == 1
        assert worst.last_guard and "scale" in worst.last_guard
        assert worst.relaxations >= 1
        assert worst.relax_chain and worst.relax_chain[0]["action"]
        assert worst.fallback.count == 1 and worst.fallback.total > 0.0

        g(x)                                   # regenerate + graph run
        assert health.recompiles == 1
        assert worst.recompile.count == 1 and worst.recompile.total > 0.0
        entry = health.failure_chain[0]
        assert entry["site"] == site_key(worst.site)
        assert entry["kind"] == "attr"
        assert entry["fallback_s"] > 0.0 and entry["recompile_s"] > 0.0
        assert np.allclose(g(x).numpy(), x.numpy() * 5.0)

        for _ in range(CONVERGED_RUNS):
            g(x)
        assert health.state == "converged"     # recovered after relaxing

    def test_lifecycle_histograms_and_percentile_sanity(self):
        knob = type("K", (), {})()
        knob.scale = 2.0

        @janus.function(config=strict())
        def h(x):
            return x * knob.scale

        x = R.constant(np.linspace(0, 1, 8).astype(np.float32))
        for _ in range(8):
            h(x)
        knob.scale = 4.0
        for _ in range(4):
            h(x)

        for name in ("janus_graph_run_seconds",
                     "janus_graphgen_initial_seconds",
                     "janus_graphgen_recompile_seconds",
                     "janus_fallback_imperative_seconds",
                     "janus_profile_run_seconds",
                     "janus_guard_precheck_seconds"):
            latency = hist(name)
            assert latency.count > 0, name
            pct = latency.percentiles()
            assert 0.0 <= pct["p50"] <= pct["p95"] <= pct["p99"], name
            assert pct["p99"] <= latency.max, name
        assert hist("janus_fallback_imperative_seconds").count == 1
        assert hist("janus_graphgen_recompile_seconds").count == 1

    def test_thrashing_under_cache_churn(self):
        """Two alternating signatures with a one-entry cache: every call
        evicts and regenerates, so the function never converges and the
        recent-window disruption count flips the state to thrashing."""

        @janus.function(config=strict(graph_cache_entries=1))
        def t(x):
            return x * 2.0

        flat = R.constant(np.linspace(0, 1, 4).astype(np.float32))
        square = R.constant(np.ones((2, 2), np.float32))
        args = [flat, square]
        for i in range(16):
            t(args[i % 2])

        health = HEALTH.get("t")
        assert health.state == "thrashing"
        assert "disrupted" in health.diagnosis()
        assert health.recompiles >= 4
        assert health.cache_evictions >= 4
        assert health.consecutive_graph_runs < CONVERGED_RUNS
        # Graph runs still happen each call; the ratio reflects that the
        # cache never serves them for free.
        assert 0.0 < health.graph_hit_ratio < 1.0
        assert hist("janus_graphgen_recompile_seconds").count >= 4

    def test_imperative_only_state(self):
        # no fail_on_not_convertible; coexecution off so the verdict is
        # the classic whole-function one (partial is tested below).
        @janus.function(config=janus.JanusConfig(coexecution=False))
        def u(x):
            import os  # noqa: F401 — inline import: imperative-only
            return x

        x = R.constant(np.ones(3, np.float32))
        for _ in range(5):
            u(x)
        health = HEALTH.get("u")
        assert u.imperative_only
        assert health.state == "imperative-only"
        assert "imperative" in health.diagnosis()
        assert health.graph_hit_ratio == 0.0


# -- snapshot / restore -------------------------------------------------------

class TestSnapshots:
    def test_health_roundtrip_through_registry_and_log(self):
        view = HealthRegistry()
        health = view.function("f")
        health.record_profile_run()
        health.record_failure(("fk", "attr", "h.scale"), kind="attr",
                              guard="const changed")
        health.record_fallback(("fk", "attr", "h.scale"), 0.002,
                               kind="attr")
        health.record_relax(("fk", "attr", "h.scale"), "relax_attr_spec",
                            detail="const -> tensor", kind="attr")
        health.record_generation(0.01, regeneration=True)
        registry_snap, log = json.loads(json.dumps(
            [view.registry.snapshot(), view.snapshot()]))
        restored_view = HealthRegistry(Registry.from_snapshot(registry_snap))
        restored_view.restore_log(log)
        restored = restored_view.get("f")
        assert restored.state == health.state
        assert restored.fallbacks == 1 and restored.recompiles == 1
        key = site_key(("fk", "attr", "h.scale"))
        site = restored.sites[key]
        assert site.failures == 1 and site.kind == "attr"
        assert site.relax_chain[0]["detail"] == "const -> tensor"
        assert site.recompile.total == pytest.approx(0.01)
        assert restored.failure_chain[0]["fallback_s"] == \
            pytest.approx(0.002)

    def test_recompile_resets_convergence_streak(self):
        health = HealthRegistry().function("f")
        health.record_generation(0.01, regeneration=False)
        for _ in range(CONVERGED_RUNS):
            health.record_graph_run()
        assert health.state == "converged"
        health.record_generation(0.01, regeneration=True)
        assert health.consecutive_graph_runs == 0
        assert health.state != "converged"


# -- the janus-stats CLI ------------------------------------------------------

def _drive_failing_function():
    knob = type("K", (), {})()
    knob.scale = 2.0

    @janus.function(config=strict())
    def step(x):
        return x * knob.scale

    x = R.constant(np.linspace(-1, 1, 6).astype(np.float32))
    for _ in range(8):
        step(x)
    knob.scale = 7.0
    for _ in range(1 + CONVERGED_RUNS):
        step(x)
    return step


class TestStatsCli:
    def test_render_report_on_live_registries(self):
        _drive_failing_function()
        report = render_report()
        assert "== janus-stats ==" in report
        assert "-- speculation health --" in report
        assert "-- latency histograms --" in report
        assert "-- post-mortem --" in report
        assert "step" in report and "converged" in report
        assert "janus_graph_run_seconds" in report
        assert "relax:" in report
        assert "fallback cost:" in report

    def test_saved_bundle_roundtrip_and_check(self, tmp_path, capsys):
        _drive_failing_function()
        live_state = HEALTH.get("step").state
        live_count = hist("janus_graph_run_seconds").count
        path = str(tmp_path / "stats.json")
        write_stats_json(path)
        obs.clear()                            # post-mortem: live data gone

        bundle = load_stats(path)
        assert bundle.health.get("step").state == live_state
        assert hist("janus_graph_run_seconds",
                    bundle.registry).count == live_count
        assert bundle.health.get("step").worst_site().failures == 1

        assert stats_main(["--input", path, "--check"]) == 0
        out = capsys.readouterr()
        assert "step" in out.out and "assumption failure" in out.out
        assert "check ok" in out.err

    def test_serving_stats_roundtrip_through_bundle(self, tmp_path):
        from repro.observability.serving import SERVING

        SERVING.client_started()
        SERVING.record_enqueue(0)
        SERVING.record_enqueue(3)
        SERVING.record_reject()
        SERVING.record_batch(2, [0.001, 0.004])
        SERVING.client_finished()
        compiling = type("S", (), {"recompiles_in_flight": lambda self: 1})()
        SERVING.watch(compiling)
        path = str(tmp_path / "stats.json")
        write_stats_json(path)
        SERVING.unwatch(compiling)
        obs.clear()

        bundle = load_stats(path)
        serving = bundle.serving
        assert serving.requests == 2
        assert serving.rejected == 1
        assert serving.batches == 1
        assert serving.batched_requests == 2
        assert serving.peak_clients == 1
        assert serving.recompiles_in_flight == 1
        assert serving.queue_depth.count == 2
        assert serving.queue_wait.count == 2
        assert serving.rejection_rate == pytest.approx(1 / 3)
        rows = report_rows(render_report(bundle.registry))
        assert rows["janus_serving_rejected_total"] == "1"
        assert rows["janus_serving_peak_clients"] == "1"
        assert rows["janus_serving_recompiles_in_flight"] == "1"
        assert rows["janus_serving_rejection_rate"] == "%g" % (1 / 3)
        assert rows["janus_serving_queue_wait_seconds"] == "2"

    def test_function_filter_limits_post_mortem(self, tmp_path, capsys):
        _drive_failing_function()
        path = str(tmp_path / "stats.json")
        write_stats_json(path)
        assert stats_main(["--input", path, "--function", "nope"]) == 0
        out = capsys.readouterr().out
        assert "no health recorded for function 'nope'" in out

    def test_prometheus_exposition(self, capsys):
        _drive_failing_function()
        text = prometheus_text()
        assert "# TYPE janus_graph_run_seconds histogram" in text
        assert 'janus_graph_run_seconds_bucket{le="+Inf"}' in text
        assert 'janus_function_graph_hit_ratio{function="step"}' in text
        assert 'janus_function_state{function="step",state="converged"} 1' \
            in text
        assert 'kind="attr"' in text
        # Bucket counts are cumulative: the +Inf bucket equals _count.
        assert ('janus_graph_run_seconds_bucket{le="+Inf"} %d'
                % hist("janus_graph_run_seconds").count) in text
        assert stats_main(["--prometheus"]) == 0
        assert "janus_counter_total" in capsys.readouterr().out

    def test_non_bundle_input_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert stats_main(["--input", str(path)]) == 2
        assert "not a janus-stats file" in capsys.readouterr().err

    def test_truncated_bundle_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps({"format": "janus-stats/2"}))
        assert stats_main(["--input", str(path)]) == 2
        assert "'registry'" in capsys.readouterr().err

    def test_format_1_bundle_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": "janus-stats/1",
                                    "metrics": {}, "health": {}}))
        assert stats_main(["--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "janus-stats/1" in err and "janus-stats/2" in err

    def test_explicit_empty_registry_is_not_replaced_by_live(
            self, tmp_path, capsys):
        """Regression: ``metrics or METRICS`` saved the *live* registries
        when handed an empty one (both defined ``__len__``)."""
        _drive_failing_function()              # the live registry is full
        assert HEALTH.get("step") is not None
        path = tmp_path / "empty.json"
        write_stats_json(str(path), registry=Registry())
        payload = json.loads(path.read_text())
        assert payload["registry"] == {} and payload["health_log"] == {}
        assert stats_main(["--input", str(path), "--check"]) == 1
        assert "FAILED" in capsys.readouterr().err


# -- the partial (co-executed) state through the CLI surfaces -----------------

def _drive_partial_function():
    """A function with an unconvertible statement between two tensor-dense
    regions, run until the co-execution plan serves it (state partial)."""
    log = []

    def pstep(x):
        y = x * 2.0
        log.append(float(R.reduce_sum(y).numpy()))
        z = y * y
        z = z + y
        return R.reduce_sum(z)

    cfg = janus.JanusConfig(profile_runs=2, parallel_execution=False,
                            coexecution=True)
    f = janus.function(config=cfg)(pstep)
    x = R.constant(np.linspace(0.5, 2.0, 4).astype(np.float32))
    for _ in range(8):
        f(x)
    assert f.stats["coexec_runs"] >= 1, f.stats
    return f


class TestPartialStateCli:
    def test_partial_state_in_report_and_table(self):
        _drive_partial_function()
        report = render_report()
        assert "pstep" in report
        assert "partial" in report
        assert "partially converted" in report
        assert "fragment graph runs" in report

    def test_partial_state_in_prometheus_exposition(self):
        _drive_partial_function()
        text = prometheus_text()
        assert ('janus_function_state{function="pstep",state="partial"} 1'
                in text)

    def test_partial_state_bundle_roundtrip(self, tmp_path, capsys):
        f = _drive_partial_function()
        live = HEALTH.get("pstep")
        live_runs = live.coexec_runs
        live_frag_runs = live.coexec_fragment_runs
        live_ratio = live.converted_ratio
        assert live.state == "partial"
        path = str(tmp_path / "stats.json")
        write_stats_json(path)
        obs.clear()                            # post-mortem: live data gone

        restored = load_stats(path).health.get("pstep")
        assert restored.state == "partial"
        assert restored.coexec_runs == live_runs
        assert restored.coexec_fragment_runs == live_frag_runs
        assert restored.converted_ratio == pytest.approx(live_ratio)
        assert "partially converted" in restored.diagnosis()

        assert stats_main(["--input", path, "--function", "pstep"]) == 0
        out = capsys.readouterr().out
        assert "pstep [partial]" in out
        del f


# -- digest-flip regression: fragment reuse across sealing --------------------

class TestDigestStableAcrossSealing:
    def test_value_digest_seals_and_never_flips(self):
        """Digesting an untracked-but-trackable TensorValue seals it, so
        the digest kind cannot flip untracked→tracked between a fragment
        store and the splice attempt on the next regeneration."""
        tv = TensorValue.of(np.arange(6, dtype=np.float32))
        assert not tv.tracked
        keep = []
        first = fragments.value_digest(tv, keep)
        assert tv.tracked                      # sealed at digest time
        assert first[0] == "tvv"
        assert fragments.value_digest(tv, keep) == first

    def test_fragment_reuse_survives_sealing_between_generations(self):
        """A dynamic cond fragment that closes over a tensor must splice
        on a regeneration forced by an *unrelated* attr failure, even
        though executing the first graph sealed the tensor behind the
        write barrier in between (the ROADMAP digest-flip bug)."""
        weights = R.constant(np.linspace(0.5, 1.5, 8).astype(np.float32))
        knob = type("K", (), {})()
        knob.gain = 2.0

        @janus.function(config=strict())
        def f(x, gate):
            if R.reduce_sum(gate) > 0.0:
                y = x * weights
            else:
                y = x - weights
            return y * knob.gain

        x = R.constant(np.linspace(-1, 1, 8).astype(np.float32))
        pos = R.constant(np.ones(1, np.float32))
        neg = R.constant(-np.ones(1, np.float32))

        for k in range(5):                     # stable direction: unrolled
            f(x, R.constant(np.full(1, 1.0 + k, np.float32)))
        assert f.stats["graph_runs"] > 0
        f(x, neg)                              # branch fails -> dynamic cond
        f(x, neg)                              # regeneration stores fragment
        f(x, pos)

        before = counters()
        knob.gain = 9.0                        # unrelated attr assumption
        out = f(x, pos)                        # guard fails -> fallback
        final = f(x, pos)                      # regenerate: splice the cond
        assert np.allclose(out.numpy(), f.func(x, pos).numpy())
        assert np.allclose(final.numpy(), f.func(x, pos).numpy())
        reused = counters().get("graphgen.fragments_reused", 0) \
            - before.get("graphgen.fragments_reused", 0)
        assert reused >= 1, "cond fragment reconverted instead of splicing"

        health = HEALTH.get("f")
        frag_sites = [s for s in health.sites.values()
                      if s.fragments_reused or s.fragments_reconverted]
        assert frag_sites, "no per-site fragment attribution recorded"
        assert any(s.fragments_reused >= 1 for s in frag_sites)
        assert health.fragment_reuse_ratio > 0.0
