"""The executed form: fusion boundaries, the flat program, feed guards.

The compile step (docs/compilation.md, "Mechanism 4") has three
separately testable properties:

* **Fusion is boundary-respecting** — a producer is absorbed into a
  fused kernel only when *every* consumer is inside the group and its
  value is not a graph output; non-elementwise ops and control
  involvement stop a chain.  Fused nodes must also survive CSE
  untouched (their kernels are distinct closures even when the op
  chains look identical).
* **A fused program is bit-for-bit the unfused one** — fusion and the
  flat closure loop are encoding changes, not semantic ones, for every
  instruction kind including nested control flow and loop gradients.
* **The guard preamble fails before any kernel runs** — top-level
  executors check bound feeds against the placeholder specs; nested
  bodies carry no preamble.
"""

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.graph import GraphBuilder, GraphExecutor, autodiff
from repro.graph.passes import (ELEMENTWISE_OPS,
                                CommonSubexpressionElimination, fuse_graph)
from repro.errors import AssumptionFailed
from repro.observability import counter_values
from repro.ops import api


def count_ops(graph, name):
    return sum(1 for n in graph.nodes if n.op_name == name)


def counters():
    return counter_values()


def strict(**kw):
    kw.setdefault("profile_runs", 1)
    return janus.JanusConfig(fail_on_not_convertible=True,
                             parallel_execution=False, **kw)


# -- fusion boundaries -------------------------------------------------------

class TestElementwiseFusion:
    def test_chain_collapses_to_one_fused_node(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4,), dtype=R.float32)
            y = api.tanh(api.exp(api.mul(api.add(x, 1.0), 2.0)))
            b.mark_outputs([api.reduce_sum(y)])
        feed = np.arange(4, dtype=np.float32)
        before = GraphExecutor(b.graph).run([feed])[0].copy()
        fused = fuse_graph(b.graph)
        assert fused == 4
        assert count_ops(b.graph, "fused") == 1
        for op in ("add", "mul", "exp", "tanh"):
            assert count_ops(b.graph, op) == 0
        after = GraphExecutor(b.graph).run([feed])[0]
        assert np.array_equal(before, after)  # bit-for-bit, not approx

    def test_multi_consumer_intermediate_not_absorbed(self):
        """exp(x) feeds both the chain and reduce_sum: it must survive."""
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4,), dtype=R.float32)
            e = api.exp(x)
            chain = api.mul(api.tanh(e), 2.0)
            b.mark_outputs([api.add(api.reduce_sum(chain),
                                    api.reduce_sum(e))])
        fuse_graph(b.graph)
        assert count_ops(b.graph, "exp") == 1
        assert count_ops(b.graph, "fused") == 1  # tanh+mul still fuse

    def test_graph_output_intermediate_not_absorbed(self):
        """A chain member that is itself a graph output keeps its node."""
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4,), dtype=R.float32)
            e = api.exp(x)
            b.mark_outputs([api.mul(api.tanh(e), 2.0), e])
        feed = np.arange(4, dtype=np.float32)
        before = [o.copy() for o in GraphExecutor(b.graph).run([feed])]
        fuse_graph(b.graph)
        assert count_ops(b.graph, "exp") == 1
        after = GraphExecutor(b.graph).run([feed])
        for want, got in zip(before, after):
            assert np.array_equal(want, got)

    def test_non_elementwise_op_stops_the_chain(self):
        """elementwise -> reduce_sum -> elementwise: two fusion islands."""
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4,), dtype=R.float32)
            pre = api.mul(api.add(x, 1.0), 2.0)
            mid = api.reduce_sum(pre)
            b.mark_outputs([api.exp(api.neg(mid))])
        fuse_graph(b.graph)
        assert count_ops(b.graph, "reduce_sum") == 1
        assert count_ops(b.graph, "fused") == 2

    def test_single_op_group_not_fused(self):
        """MIN_GROUP=2: wrapping one op in a kernel buys nothing."""
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4,), dtype=R.float32)
            b.mark_outputs([api.reduce_sum(api.tanh(x))])
        assert fuse_graph(b.graph) == 0
        assert count_ops(b.graph, "tanh") == 1
        assert count_ops(b.graph, "fused") == 0

    def test_fused_nodes_survive_cse(self):
        """Identical-looking fused kernels are distinct closures; the
        unique fused_id attr must keep CSE from merging them."""
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4,), dtype=R.float32)
            a = api.tanh(api.add(x, 1.0))
            c = api.tanh(api.add(x, 1.0))
            b.mark_outputs([api.reduce_sum(a), api.reduce_sum(c)])
        fuse_graph(b.graph)
        assert count_ops(b.graph, "fused") == 2
        CommonSubexpressionElimination().run(b.graph)
        assert count_ops(b.graph, "fused") == 2

    def test_fusion_counters_advance(self):
        before = counters()
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4,), dtype=R.float32)
            b.mark_outputs([api.reduce_sum(api.exp(api.add(x, 1.0)))])
        fuse_graph(b.graph)
        after = counters()
        assert after.get("lowering.fused_ops", 0) \
            - before.get("lowering.fused_ops", 0) == 2
        assert after.get("lowering.fused_kernels", 0) \
            - before.get("lowering.fused_kernels", 0) == 1

    def test_code_cache_eviction_drops_linecache_sources(self, monkeypatch):
        """Regression: evicting the code cache left every
        ``<janus-fused-N>`` source in linecache forever, so a
        per-topology regenerating workload grew without bound."""
        import linecache
        from repro.graph import passes
        monkeypatch.setattr(passes, "_CODE_CACHE_MAX", 4)
        monkeypatch.setattr(passes, "_CODE_CACHE", {})

        def fused_sources():
            return [k for k in linecache.cache
                    if k.startswith("<janus-fused-")]

        baseline = len(fused_sources())
        feed = np.linspace(-1.0, 1.0, 4).astype(np.float32)
        for depth in range(2, 14):      # 12 distinct chain shapes
            b = GraphBuilder()
            with b:
                x = b.placeholder("x", shape=(4,), dtype=R.float32)
                y = x
                for _ in range(depth):
                    y = api.tanh(api.add(y, 0.5))
                b.mark_outputs([api.reduce_sum(y)])
            want = GraphExecutor(b.graph).run([feed])[0].copy()
            assert fuse_graph(b.graph) == 2 * depth
            assert np.array_equal(GraphExecutor(b.graph).run([feed])[0],
                                  want)
            assert len(fused_sources()) - baseline <= 4

    def test_comparison_ops_are_fusable(self):
        assert "less" in ELEMENTWISE_OPS
        assert "where" in ELEMENTWISE_OPS
        assert "reduce_sum" not in ELEMENTWISE_OPS
        assert "matmul" not in ELEMENTWISE_OPS


# -- the flat program --------------------------------------------------------

class TestFlatProgram:
    def _graph(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(2, 3), dtype=R.float32)
            w = b.convert(np.ones((3, 3), np.float32) * 0.5)
            h = api.tanh(api.add(api.matmul(x, w), 1.0))
            b.mark_outputs([api.reduce_sum(api.mul(h, h))])
        return b.graph

    def test_fused_matches_unfused_bit_for_bit(self):
        graph = self._graph()
        feed = np.arange(6, dtype=np.float32).reshape(2, 3)
        want = [o.copy() for o in GraphExecutor(graph).run([feed])]
        assert fuse_graph(graph) > 0
        got = GraphExecutor(graph).run([feed])
        assert len(want) == len(got)
        for w_, g_ in zip(want, got):
            assert np.array_equal(w_, g_)

    def test_every_program_entry_is_a_callable(self):
        """No instruction-kind dispatch is left for run time."""
        executor = GraphExecutor(self._graph())
        assert executor._program
        assert all(callable(fn) for fn in executor._program)
        assert executor.instruction_count == len(executor._program)

    def test_instruction_count_shrinks_with_fusion(self):
        graph = self._graph()
        unfused = GraphExecutor(graph)
        fuse_graph(graph)
        fused = GraphExecutor(graph)
        assert fused.instruction_count < unfused.instruction_count

    def test_while_loop_and_gradient(self):
        """while + while_grad: records stack through the nested bodies."""
        w = R.Variable(np.float32(2.0))
        cb = GraphBuilder()
        with cb:
            i = cb.placeholder("i", shape=(), dtype=R.int64)
            acc = cb.placeholder("acc", shape=(), dtype=R.float32)
            cb.mark_outputs([api.less(i, 3)])
        cond = cb.finalize_function("cond")
        bb = GraphBuilder()
        with bb:
            i = bb.placeholder("i", shape=(), dtype=R.int64)
            acc = bb.placeholder("acc", shape=(), dtype=R.float32)
            bb.mark_outputs([api.add(i, 1),
                             api.mul(acc, bb.read_variable(w))])
        body = bb.finalize_function("body")
        b = GraphBuilder()
        with b:
            outs = b.while_loop(cond, body,
                                [b.convert(np.int64(0)),
                                 b.convert(np.float32(1.0))])
            grads = autodiff.add_training_gradients(b, outs[1])
            b.mark_outputs([outs[1], grads[w]])
        val, grad = GraphExecutor(b.graph).run([])
        assert val == pytest.approx(8.0)
        assert grad == pytest.approx(12.0)

    def test_repr_names_program(self):
        text = repr(GraphExecutor(self._graph()))
        assert "instructions" in text and "1 guards" in text


# -- guard preamble ----------------------------------------------------------

class TestPreamble:
    def _graph(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(2, 3), dtype=R.float32)
            b.mark_outputs([api.reduce_sum(api.tanh(x))])
        return b.graph

    def _executor(self):
        return GraphExecutor(self._graph())

    def test_one_guard_per_tensor_placeholder(self):
        assert len(self._executor().preamble) == 1

    def test_good_feed_passes(self):
        out, = self._executor().run([np.ones((2, 3), np.float32)])
        assert out == pytest.approx(np.tanh(1.0) * 6)

    def test_dtype_violation_raises_assumption_failed(self):
        with pytest.raises(AssumptionFailed, match="dtype"):
            self._executor().run([np.ones((2, 3), np.float64)])

    def test_shape_violation_raises_assumption_failed(self):
        with pytest.raises(AssumptionFailed, match="shape"):
            self._executor().run([np.ones((4, 3), np.float32)])

    def test_nested_bodies_carry_no_preamble(self):
        """Their inputs are already-validated slots, not user feeds."""
        assert GraphExecutor(self._graph(), _nested=True).preamble == []


# -- end to end through janus.function ---------------------------------------

class TestEndToEnd:
    def test_compiled_entry_is_fused(self):
        @janus.function(config=strict())
        def f(x):
            return R.reduce_sum(R.tanh(x * 2.0 + 1.0))

        # Vary the values (same spec) so the argument stays a
        # placeholder instead of being burned in as a guarded constant.
        rng = np.random.default_rng(0)
        for _ in range(4):
            x = R.constant(rng.normal(size=(8,)).astype(np.float32))
            out = f(x)
        assert f.stats["graph_runs"] > 0
        expect = f.func(x)
        assert np.array_equal(out.numpy(), expect.numpy())
        entries = [e for _, e in f.cache.entries()]
        assert entries
        compiled = entries[0].compiled
        assert compiled.fused_ops >= 2
        assert "ops fused" in repr(compiled)
        assert any(n.op_name == "fused" for n in compiled.graph.nodes)

    def test_nested_control_flow_runs_unfused_bodies(self):
        @janus.function(config=strict(profile_runs=2))
        def f(x):
            if R.reduce_sum(x) > 0.0:
                y = R.tanh(x * 2.0 + 1.0)
            else:
                y = R.tanh(x - 1.0) * 0.5
            return R.reduce_sum(y)

        # Both directions profiled: the branch stays a dynamic cond.
        xp = R.constant(np.ones(4, np.float32))
        xn = R.constant(-np.ones(4, np.float32))
        for x in (xp, xn, xp, xn, xp):
            out = f(x)
            assert np.array_equal(out.numpy(), f.func(x).numpy())
        assert f.stats["graph_runs"] > 0
        # Fusion stops at the top level: every nested body keeps its
        # per-op nodes (they may be re-differentiated).
        stack = [e.compiled.graph for _, e in f.cache.entries()]
        nested = []
        while stack:
            for node in stack.pop().nodes:
                for func in node._nested_functions():
                    if func is not None and func.graph is not None:
                        nested.append(func.graph)
                        stack.append(func.graph)
        assert nested
        assert all(n.op_name != "fused" for g in nested for n in g.nodes)

    def test_health_reports_fusion(self):
        # Health attribution rides the metrics pipeline; enable it.
        import repro.observability as obs
        from repro.observability import HEALTH

        previous = obs.set_metrics_enabled(True)
        try:
            # Two profile runs over varying values keep the argument a
            # placeholder (a single observation would burn it in as a
            # speculated constant and fail prechecks on later values).
            @janus.function(config=strict(profile_runs=2))
            def health_probe(x):
                return R.reduce_sum(x * 2.0 + 1.0)

            rng = np.random.default_rng(2)
            for _ in range(5):
                health_probe(R.constant(rng.normal(size=(4,))
                                        .astype(np.float32)))
            assert health_probe.stats["graph_runs"] > 0
            health = HEALTH.function("health_probe")
            assert health.graphs_generated >= 1
            assert health.fused_ops >= 2
        finally:
            obs.set_metrics_enabled(previous)
