"""Dynamic control flow conversion (paper section 4.2.1).

Covers speculative unrolling with assertion guards, fallback and
relaxation when assumptions break, and dynamic cond/while conversion.
"""

import numpy as np
import pytest

import repro as R
from repro import janus


def strict(**kw):
    return janus.JanusConfig(fail_on_not_convertible=True, **kw)


def warm(jf, *args, n=5):
    out = None
    for _ in range(n):
        out = jf(*args)
    return out


class TestStaticControlFlow:
    def test_constant_branch_folds(self):
        @janus.function(config=strict())
        def f(x):
            mode = "double"
            if mode == "double":
                return x * 2.0
            return x

        assert float(warm(f, R.constant(3.0)).numpy()) == 6.0
        entry = next(iter(f.cache._entries.values()))
        # No cond node and no assert: folded at build time.
        ops = {n.op_name for n in entry.generated.graph.nodes}
        assert "cond" not in ops

    def test_constant_range_loop_unrolls(self):
        @janus.function(config=strict())
        def f(x):
            total = x * 0.0
            for i in range(4):
                total = total + x * float(i)
            return total

        assert float(warm(f, R.constant(1.0)).numpy()) == \
            pytest.approx(0 + 1 + 2 + 3)


class TestSpeculativeUnrolling:
    def test_stable_tensor_branch_unrolled_with_assert(self):
        @janus.function(config=strict())
        def f(x):
            if R.reduce_sum(x) > 0.0:
                return x * 2.0
            return x - 100.0

        xp = R.constant(np.ones(2, np.float32))
        warm(f, xp)
        entry = next(iter(f.cache._entries.values()))
        ops = [n.op_name for n in entry.generated.graph.nodes]
        assert "assert" in ops          # the guard
        assert "cond" not in ops        # unrolled, not dynamic

    def test_assert_fires_and_falls_back(self):
        @janus.function(config=strict())
        def f(x, gate):
            if R.reduce_sum(gate) > 0.0:
                y = x * 2.0
            else:
                y = x - 100.0
            return y

        x = R.constant(np.ones(2, np.float32))
        neg = R.constant(-np.ones(1, np.float32))
        # Varying positive gates: the gate is not a constant, but the
        # branch direction is stable, so the branch unrolls behind an
        # AssertOp (not a precheck).
        for k in range(5):
            f(x, R.constant(np.full(1, 1.0 + k, np.float32)))
        assert f.stats["graph_runs"] > 0
        # Same shapes, flipped predicate: the runtime assert must fire.
        out = f(x, neg)
        np.testing.assert_allclose(out.numpy(), x.numpy() - 100.0)
        assert f.stats["fallbacks"] == 1

    def test_relaxed_graph_is_dynamic_and_correct_both_ways(self):
        @janus.function(config=strict())
        def f(x, gate):
            if R.reduce_sum(gate) > 0.0:
                y = x * 2.0
            else:
                y = x - 100.0
            return y

        x = R.constant(np.ones(2, np.float32))
        pos = R.constant(np.ones(1, np.float32))
        neg = R.constant(-np.ones(1, np.float32))
        warm(f, x, pos)
        f(x, neg)           # fallback + relaxation
        out_neg = f(x, neg)  # regenerated with dynamic cond
        out_pos = f(x, pos)
        np.testing.assert_allclose(out_neg.numpy(), x.numpy() - 100.0)
        np.testing.assert_allclose(out_pos.numpy(), x.numpy() * 2.0)
        entry = next(iter(f.cache._entries.values()))
        ops = {n.op_name for n in entry.generated.graph.nodes}
        assert "cond" in ops
        assert f.stats["graph_runs"] >= 3

    def test_loop_over_tensor_unrolls_with_shape_assumption(self):
        @janus.function(config=strict())
        def f(seq):
            total = R.constant(0.0)
            for row in seq:
                total = total + R.reduce_sum(row)
            return total

        seq = R.constant(np.ones((4, 2), np.float32))
        assert float(warm(f, seq).numpy()) == pytest.approx(8.0)
        assert f.stats["graph_runs"] > 0

    def test_shape_change_regenerates_via_precheck(self):
        @janus.function(config=strict())
        def f(seq):
            total = R.constant(0.0)
            for row in seq:
                total = total + R.reduce_sum(row)
            return total

        warm(f, R.constant(np.ones((4, 2), np.float32)))
        # Different length: precheck miss, imperative run, regeneration.
        out = f(R.constant(np.ones((6, 2), np.float32)))
        assert float(out.numpy()) == pytest.approx(12.0)
        out = f(R.constant(np.ones((6, 2), np.float32)))
        out = f(R.constant(np.ones((6, 2), np.float32)))
        assert float(out.numpy()) == pytest.approx(12.0)

    # A tensor argument is checked once, at cache retrieval: a same-rank
    # shape change misses the entry's precheck before any kernel runs —
    # a miss served imperatively, neither a graph run nor a fallback.

    def _assert_precheck_miss(self, f, *args):
        before = dict(f.stats)
        out = f(*args)
        np.testing.assert_array_equal(out.numpy(), f.func(*args).numpy())
        assert f.stats["precheck_misses"] == before["precheck_misses"] + 1
        assert f.stats["fallbacks"] == before["fallbacks"]
        assert f.stats["graph_runs"] == before["graph_runs"]

    def test_same_rank_shape_change_is_a_precheck_miss(self):
        @janus.function(config=strict())
        def f(x):
            return R.reduce_sum(R.tanh(x), axis=0)

        rng = np.random.default_rng(0)
        for _ in range(5):      # fresh values: a shape spec, not a constant
            f(R.constant(rng.normal(size=(2, 3)).astype(np.float32)))
        assert f.stats["graph_runs"] > 0
        self._assert_precheck_miss(
            f, R.constant(rng.normal(size=(4, 3)).astype(np.float32)))

    def test_list_item_shape_change_is_a_precheck_miss(self):
        @janus.function(config=strict())
        def f(xs):
            return xs[0] * 2.0 + R.reduce_sum(xs[1])

        rng = np.random.default_rng(1)

        def item(*shape):
            return R.constant(rng.normal(size=shape).astype(np.float32))

        for _ in range(5):
            f([item(3), item(2, 2)])
        assert f.stats["graph_runs"] > 0
        self._assert_precheck_miss(f, [item(3), item(5, 2)])


class TestDynamicLoops:
    def test_unstable_trip_count_becomes_while(self):
        cfg = strict()

        @janus.function(config=cfg)
        def f(seq):
            total = R.constant(0.0)
            for row in seq:
                total = total + R.reduce_sum(row)
            return total

        # Alternate lengths during profiling: trip count never stabilizes
        # and the argument spec relaxes to (?, 2).
        lengths = [3, 5, 3, 5, 3, 5, 4]
        outs = []
        for n in lengths:
            outs.append(float(f(R.constant(
                np.ones((n, 2), np.float32))).numpy()))
        assert outs == [pytest.approx(2.0 * n) for n in lengths]
        entry = next(iter(f.cache._entries.values()), None)
        if entry is not None:
            ops = {n.op_name for n in entry.generated.graph.nodes}
            assert "while_loop" in ops

    def test_while_statement_dynamic(self):
        @janus.function(config=strict(
            unroll_stable_control_flow=False))
        def f(x):
            i = R.constant(0.0)
            total = x * 0.0
            while R.reduce_sum(i) < 3.0:
                total = total + x
                i = i + 1.0
            return total

        out = warm(f, R.constant(np.ones(2, np.float32)))
        np.testing.assert_allclose(out.numpy(), [3.0, 3.0])
        assert f.stats["graph_runs"] > 0

    def test_dynamic_range_loop(self):
        @janus.function(config=strict(unroll_stable_control_flow=False))
        def f(x):
            total = x * 0.0
            for i in range(len(x)):
                total = total + x
            return total

        out = warm(f, R.constant(np.ones(3, np.float32)))
        np.testing.assert_allclose(out.numpy(), [3.0, 3.0, 3.0])

    def test_list_accumulation_in_dynamic_loop(self):
        """outputs += [state] across a dynamic loop -> stacked tensor."""
        @janus.function(config=strict(unroll_stable_control_flow=False))
        def f(seq):
            outputs = [seq[0] * 0.0]
            for row in seq:
                outputs = outputs + [row * 2.0]
            return R.reduce_sum(R.concat([outputs[0], outputs[1]], 0))

        seq = R.constant(np.ones((3, 2), np.float32))
        out = warm(f, seq)
        assert f.stats["graph_runs"] > 0 or f.imperative_only is False


class TestGuardPatterns:
    def test_both_branches_return(self):
        @janus.function(config=strict(unroll_stable_control_flow=False))
        def f(x):
            if R.reduce_sum(x) > 0.0:
                return x * 2.0
            else:
                return x * -1.0

        # alternate during profiling so the branch is dynamic
        xp = R.constant(np.ones(2, np.float32))
        xn = R.constant(-np.ones(2, np.float32))
        for _ in range(3):
            f(xp)
            f(xn)
        np.testing.assert_allclose(f(xp).numpy(), [2.0, 2.0])
        np.testing.assert_allclose(f(xn).numpy(), [1.0, 1.0])
        assert f.stats["graph_runs"] >= 2

    def test_guard_return_consumes_rest(self):
        @janus.function(config=strict(unroll_stable_control_flow=False))
        def f(x):
            if R.reduce_sum(x) > 0.0:
                return x * 2.0
            y = x + 1.0
            return y * 3.0

        xp = R.constant(np.ones(2, np.float32))
        xn = R.constant(-np.ones(2, np.float32))
        for _ in range(3):
            f(xp)
            f(xn)
        np.testing.assert_allclose(f(xp).numpy(), [2.0, 2.0])
        np.testing.assert_allclose(f(xn).numpy(), [0.0, 0.0])

    def test_ifexp(self):
        @janus.function(config=strict(unroll_stable_control_flow=False))
        def f(x):
            y = x * 2.0 if R.reduce_sum(x) > 0.0 else x * -1.0
            return y

        xp = R.constant(np.ones(2, np.float32))
        xn = R.constant(-np.ones(2, np.float32))
        for _ in range(3):
            f(xp)
            f(xn)
        np.testing.assert_allclose(f(xn).numpy(), [1.0, 1.0])


class TestUnrollLimits:
    def test_max_unroll_respected(self):
        @janus.function(config=strict(max_unroll=4))
        def f(seq):
            total = R.constant(0.0)
            for row in seq:
                total = total + R.reduce_sum(row)
            return total

        seq = R.constant(np.ones((32, 2), np.float32))
        out = warm(f, seq)
        assert float(out.numpy()) == pytest.approx(64.0)
        entry = next(iter(f.cache._entries.values()))
        ops = {n.op_name for n in entry.generated.graph.nodes}
        assert "while_loop" in ops  # too long to unroll
