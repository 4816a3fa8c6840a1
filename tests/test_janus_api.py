"""The JanusFunction execution model (paper figure 2) end to end."""

import os
import sys

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.errors import NotConvertible


def strict(**kw):
    return janus.JanusConfig(fail_on_not_convertible=True, **kw)


class TestExecutionPhases:
    def test_profiling_runs_before_conversion(self):
        cfg = strict(profile_runs=3)

        @janus.function(config=cfg)
        def f(x):
            return x * 2.0

        x = R.constant(1.0)
        for i in range(3):
            f(x)
            assert f.stats["graph_runs"] == 0
            assert f.stats["imperative_runs"] == i + 1
        f(x)
        assert f.stats["graphs_generated"] == 1
        assert f.stats["graph_runs"] == 1

    def test_profile_run_count_configurable(self):
        @janus.function(config=strict(profile_runs=1))
        def f(x):
            return x + 1.0

        f(R.constant(1.0))
        f(R.constant(1.0))
        assert f.stats["graph_runs"] == 1

    def test_cache_hit_reuses_graph(self):
        @janus.function(config=strict())
        def f(x):
            return x * 3.0

        x = R.constant(np.ones(4, np.float32))
        for _ in range(10):
            f(x)
        stats = f.cache_stats()
        assert stats["graphs_generated"] == 1
        assert stats["hits"] >= 6

    def test_different_dtypes_get_separate_entries(self):
        @janus.function(config=strict())
        def f(x):
            return x + x

        xf = R.constant(np.ones(2, np.float32))
        xi = R.constant(np.ones(2, np.int64))
        for _ in range(6):
            f(xf)
            f(xi)
        assert f.cache_stats()["entries"] == 2

    def test_results_identical_to_plain_function(self):
        def plain(x, y):
            z = R.tanh(x) * y
            return R.reduce_sum(z * z)

        jf = janus.function(plain, config=strict())
        rng = np.random.default_rng(0)
        for i in range(8):
            x = R.constant(rng.normal(size=(3, 3)).astype(np.float32))
            y = R.constant(rng.normal(size=(3, 3)).astype(np.float32))
            assert float(jf(x, y).numpy()) == \
                pytest.approx(float(plain(x, y).numpy()), rel=1e-5)
        assert jf.stats["graph_runs"] > 0


class TestMethodDecorator:
    def test_decorating_a_method(self):
        class Model:
            def __init__(self):
                self.scale = R.constant(np.float32(2.0))

            @janus.function(config=strict())
            def forward(self, x):
                return x * self.scale

        m = Model()
        for _ in range(5):
            out = m.forward(R.constant(3.0))
        assert float(out.numpy()) == 6.0
        assert m.forward.stats["graph_runs"] > 0


class TestNotConvertibleRouting:
    def test_silent_fallback_by_default(self):
        # coexecution off: this tests the whole-function verdict.
        @janus.function(config=janus.JanusConfig(coexecution=False))
        def f(x):
            import os  # inline import: imperative-only
            return x

        out = None
        for _ in range(6):
            out = f(R.constant(1.0))
        assert float(out.numpy()) == 1.0
        assert f.imperative_only

    def test_strict_mode_raises(self):
        @janus.function(config=strict())
        def f(x):
            yield x

        with pytest.raises(NotConvertible):
            for _ in range(5):
                f(R.constant(1.0))

    def test_imperative_only_skips_profiling_overhead(self):
        @janus.function(config=janus.JanusConfig(coexecution=False))
        def f(x):
            import os  # noqa
            return x

        for _ in range(6):
            f(R.constant(1.0))
        runs_after_marking = f.stats["imperative_runs"]
        f(R.constant(1.0))
        assert f.stats["imperative_runs"] == runs_after_marking + 1


class TestConfigOverrides:
    def test_with_config_creates_independent_function(self):
        @janus.function(config=strict())
        def f(x):
            return x * 2.0

        g = f.with_config(profile_runs=1)
        g(R.constant(1.0))
        g(R.constant(1.0))
        assert g.stats["graph_runs"] == 1
        assert f.stats["calls"] == 0

    def test_ablation_stages_exist(self):
        for stage in ("BASE", "+UNRL", "+SPCN", "+PARL"):
            assert stage in janus.ABLATION_STAGES
        cfg = janus.JanusConfig(**janus.ABLATION_STAGES["BASE"])
        assert cfg.ablation_stage() == "BASE"
        cfg = janus.JanusConfig(**janus.ABLATION_STAGES["+PARL"])
        assert cfg.ablation_stage() == "+PARL"

    def test_base_mode_still_converts(self):
        cfg = strict(**janus.ABLATION_STAGES["BASE"])

        @janus.function(config=cfg)
        def f(x):
            total = x * 0.0
            for i in range(3):
                total = total + x
            return R.reduce_sum(total)

        x = R.constant(np.ones(2, np.float32))
        out = None
        for _ in range(5):
            out = f(x)
        assert float(out.numpy()) == pytest.approx(6.0)
        assert f.stats["graph_runs"] > 0


class TestNumpyArguments:
    def test_numpy_args_accepted(self):
        @janus.function(config=strict())
        def f(x):
            return R.reduce_sum(x)

        for _ in range(5):
            out = f(np.ones((2, 2), np.float32))
        assert float(out.numpy()) == 4.0
        assert f.stats["graph_runs"] > 0

    def test_a_numpy_argument_stays_writeable(self):
        """Speculating on a numpy argument never seals the caller's
        array; a write to it between calls is a precheck miss that runs
        imperatively."""
        @janus.function(config=strict())
        def f(x):
            return R.reduce_sum(x * 2.0)

        arr = np.ones((8, 4), np.float32)
        for _ in range(6):
            assert float(f(arr).numpy()) == 64.0
        assert f.stats["graph_runs"] > 0
        assert arr.flags.writeable
        misses, runs = f.stats["precheck_misses"], f.stats["graph_runs"]
        arr[0, 0] = 5.0
        assert float(f(arr).numpy()) == 72.0
        assert f.stats["precheck_misses"] == misses + 1
        assert f.stats["graph_runs"] == runs
        assert arr.flags.writeable

    def test_a_numpy_argument_stays_writeable_in_a_ledger_program(self):
        ledger = os.path.join(os.path.dirname(__file__), "..",
                              "benchmarks", "ledger")
        sys.path.insert(0, ledger)
        try:
            import programs
        finally:
            sys.path.remove(ledger)
        program = programs.TRAIN_PROGRAMS["AN"]
        step = program.build("janus")
        batches = program.make_batches(1)
        for k in range(12):
            step(*batches[k % len(batches)])
        assert step.stats["graph_runs"] > 0
        assert all(arr.flags.writeable for batch in batches
                   for arr in batch)
        batches[0][0][0, 0, 0, 0] = 1.0
