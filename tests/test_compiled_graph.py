"""Compile-once artifact behaviours: guard closures, shared pass
analyses, the bounded LRU graph cache, and the callable registry."""

import copy
import gc

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.graph import AnalysisContext, GraphBuilder, PassManager
from repro.janus import CompiledGraph
from repro.janus.config import JanusConfig
from repro.janus.specialization import CALLABLE_REGISTRY, observe
from repro.observability import counter_values
from repro.ops import api


def _cfg(**overrides):
    return JanusConfig(fail_on_not_convertible=True,
                       parallel_execution=False, **overrides)


class TestGuardClosureSpecialization:
    def test_validated_value_skips_reinternalization(self, monkeypatch):
        """The identity memo: a heap value validated on one run is not
        re-internalized (or re-checked) on later runs while its identity
        is unchanged."""
        from repro.graph import executor as ex
        holder = type("H", (), {})()
        holder.base = R.constant(np.ones((2, 2), np.float32))
        holder.coef = 7

        calls = {"n": 0}
        real = ex._internalize

        def counting(value):
            if type(value) is int:      # count only the coef read
                calls["n"] += 1
            return real(value)
        # Patch before the graph is compiled so the py_get closure binds
        # the counting wrapper.
        monkeypatch.setattr(ex, "_internalize", counting)

        @janus.function(config=_cfg())
        def f():
            return R.reduce_sum(holder.base * holder.coef)

        for _ in range(3):
            f()                       # imperative profiling
        f()                           # generate + compile + first graph run
        assert f.stats["graph_runs"] == 1
        after_first = calls["n"]
        assert after_first >= 1       # the read was internalized once
        f()
        f()
        assert f.stats["graph_runs"] == 3
        # Identity-stable int: later runs reuse the validated raw value.
        assert calls["n"] == after_first
        assert float(f().numpy()) == pytest.approx(28.0)

    def test_memo_does_not_bypass_guard_on_change(self):
        """Changing the heap value still trips the assumption guard —
        the memo only short-circuits identity-equal revalidation."""
        holder = type("H", (), {})()
        holder.base = R.constant(np.ones((2, 2), np.float32))
        holder.coef = 7

        @janus.function(config=_cfg())
        def f():
            return R.reduce_sum(holder.base * holder.coef)

        for _ in range(4):
            f()
        assert f.stats["graph_runs"] >= 1
        holder.coef = 1000            # new identity, new value
        out = f()                     # guard fires -> imperative fallback
        assert f.stats["fallbacks"] == 1
        assert float(out.numpy()) == pytest.approx(4000.0)

    def test_fallback_reports_lifetime_assumption_failures(self):
        """Regression (trace-demo): the failure count survives the
        invalidation of the failing entry."""
        holder = type("H", (), {})()
        holder.state = R.constant(np.zeros((4, 2), np.float32))

        @janus.function(config=_cfg())
        def f():
            return R.reduce_sum(holder.state)

        for _ in range(5):
            f()
        holder.state = R.constant(np.zeros((2, 2), np.float32))
        f()
        stats = f.cache_stats()
        assert stats["fallbacks"] == 1
        assert stats["assumption_failures"] == 1


class TestSharedPassAnalyses:
    def _graph(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            b.mark_outputs([api.add(api.mul(x, 2.0), 1.0)])
        return b.graph

    def test_order_reused_until_mutation(self):
        graph = self._graph()
        ctx = AnalysisContext(graph)
        first = ctx.topological_order()
        assert ctx.topological_order() is first
        assert (ctx.computes, ctx.reuses) == (1, 1)

    def test_invalidated_on_graph_mutation(self):
        graph = self._graph()
        ctx = AnalysisContext(graph)
        first = ctx.topological_order()
        node = graph.new_node("constant")    # bumps graph.version
        from repro.tensor import TensorValue
        node.constant_value = TensorValue.of(np.float32(0.0))
        node.add_output(node.constant_value.shape,
                        node.constant_value.dtype)
        second = ctx.topological_order()
        assert second is not first
        assert ctx.computes == 2

    def test_version_guard_catches_unreported_mutation(self):
        """Even without an explicit invalidate(), a structural change
        (version bump) can never serve a stale order."""
        graph = self._graph()
        ctx = AnalysisContext(graph)
        ctx.topological_order()
        graph.remove_nodes([n for n in graph.nodes
                            if n.op_name == "add"][:0])  # no-op: no bump
        assert ctx.computes == 1
        before_version = graph.version
        graph.version += 1   # simulate a helper mutating behind our back
        ctx.topological_order()
        assert ctx.computes == 2
        graph.version = before_version + 1

    def test_steady_state_run_is_skipped_by_opt_stamp(self):
        """A repeat PassManager run over an already-optimized, unchanged
        graph short-circuits on the (version, pipeline) stamp — no
        rounds, no topological orders, and the executor cache survives."""
        graph = self._graph()
        PassManager().run(graph)     # reach the fixed point + stamp
        graph._executor_cache["nested"] = object()
        before = counter_values()
        PassManager().run(graph)     # steady state: stamped, skipped
        after = counter_values()
        computed = after.get("passes.topo_computed", 0) \
            - before.get("passes.topo_computed", 0)
        skipped = after.get("passes.graphs_skipped", 0) \
            - before.get("passes.graphs_skipped", 0)
        assert computed == 0
        assert skipped == 1
        assert "nested" in graph._executor_cache   # warm executors kept

    def test_structural_change_invalidates_opt_stamp(self):
        """Any node addition bumps graph.version, so a stamped graph
        that was mutated re-optimizes (and shares one topo per round)."""
        graph = self._graph()
        PassManager().run(graph)
        node = graph.new_node("const", name="late")
        import numpy as np
        from repro.tensor import TensorValue
        node.constant_value = TensorValue.of(np.float32(3.0))
        node.add_output(node.constant_value.shape,
                        node.constant_value.dtype)
        before = counter_values()
        PassManager().run(graph)
        after = counter_values()
        computed = after.get("passes.topo_computed", 0) \
            - before.get("passes.topo_computed", 0)
        reused = after.get("passes.topo_reused", 0) \
            - before.get("passes.topo_reused", 0)
        assert computed >= 1
        assert reused >= 2           # cse + folding + simplify share it


class TestBoundedGraphCache:
    def test_lru_eviction_under_novel_structures(self):
        """TreeNN-style workload: every input topology (here: list
        length) is a novel signature, so an unbounded cache would grow
        one entry per shape ever seen."""

        @janus.function(config=_cfg(graph_cache_entries=2,
                                    profile_runs=1))
        def f(xs):
            total = 0.0
            for x in xs:
                total = total + R.reduce_sum(x)
            return total

        def batch(length):
            return [R.constant(np.full((2,), 1.0, np.float32))
                    for _ in range(length)]

        for length in (1, 2, 3, 4, 5):
            for _ in range(3):
                out = f(batch(length))
                assert float(out.numpy()) == pytest.approx(2.0 * length)
        stats = f.cache_stats()
        assert stats["entries"] <= 2
        assert stats["evictions"] >= 3
        assert f.stats["graphs_generated"] >= 5
        # Lifetime totals accumulate across evicted entries.
        assert stats["hits"] >= 5

    def test_lru_keeps_recently_used(self):
        @janus.function(config=_cfg(graph_cache_entries=2,
                                    profile_runs=1))
        def f(xs):
            total = 0.0
            for x in xs:
                total = total + R.reduce_sum(x)
            return total

        def batch(length):
            return [R.constant(np.ones((2,), np.float32))
                    for _ in range(length)]

        def lengths():
            return [len(sig[0][2]) for sig, _entry in f.cache.entries()]

        for length in (1, 2):
            f(batch(length))   # profile this length
            f(batch(length))   # generate + cache it
        assert lengths() == [1, 2]
        f(batch(1))   # refresh len-1: len-2 becomes LRU
        f(batch(3))   # profile len-3
        generated = f.stats["graphs_generated"]
        f(batch(3))   # generate len-3, evicting len-2
        f(batch(1))   # still cached: no regeneration
        assert f.stats["graphs_generated"] == generated + 1
        assert lengths() == [3, 1]

    def test_compiled_artifact_is_exposed(self):
        @janus.function(config=_cfg())
        def f(x):
            return x * 2.0

        for _ in range(4):
            f(R.constant(np.ones((2,), np.float32)))
        ((_sig, entry),) = f.cache.entries()
        assert isinstance(entry.compiled, CompiledGraph)
        assert entry.compiled.node_count == len(entry.generated.graph.nodes)
        assert entry.compiled.executor is entry.executor
        assert entry.compiled.compile_seconds >= 0.0


def _twice(t):
    return t * 2.0


def _thrice(t):
    return t * 3.0


def _tagged(x, tag):
    return x * 2.0


def _applied(x, fn):
    return fn(x)


def _summed(x, xs):
    total = x
    for item in xs:
        total = total + item
    return total


def _gated(x, flag):
    if flag is None:
        return x * 2.0
    return x * flag


def _scaled_by(x, var):
    return x * var.value()


class TestOneProfilePerKey:
    """A cache entry is generated only from its own signature's profile,
    and its prechecks test only what the signature leaves open."""

    def _x(self):
        return R.constant(np.ones((2,), np.float32))

    def test_unprofiled_signature_not_compiled_from_another(self):
        """Profiled with ``flag=None`` only, ``f(x, 3.0)`` is a new key:
        it must not run a graph with ``None`` burned in."""
        f = janus.function(config=_cfg(profile_runs=1))(_gated)
        x = self._x()
        f(x, None)
        for _ in range(4):
            np.testing.assert_array_equal(f(x, 3.0).numpy(),
                                          f.func(x, 3.0).numpy())
        assert f.stats["graph_runs"] == 3
        assert f.stats["precheck_misses"] == 0

    @pytest.mark.parametrize("fn, first, second", [
        (_tagged, "a", "b"),
        (_applied, _twice, _thrice),
        (_summed, [1.0], [1.0, 2.0]),
        (_summed, [1.0, 2.0], (1.0, 2.0)),
    ], ids=["str", "callable", "list_length", "list_vs_tuple"])
    def test_new_key_profiles_then_generates(self, fn, first, second):
        """A key never profiled costs one profile run, then its own
        generation — nothing generated from another key's profile only
        to miss its precheck."""
        f = janus.function(config=_cfg(profile_runs=1))(fn)
        x = self._x()
        f(x, first)
        f(x, first)
        assert f.stats["graphs_generated"] == 1
        runs = f.stats["imperative_runs"]
        for _ in range(3):
            np.testing.assert_array_equal(f(x, second).numpy(),
                                          fn(x, second).numpy())
        assert f.stats["imperative_runs"] == runs + 1
        assert f.stats["graphs_generated"] == 2
        assert f.stats["precheck_misses"] == 0

    def test_deep_copied_variable_is_a_precheck_miss(self):
        """``copy.deepcopy`` keeps a Variable's ``uid``, so the key
        cannot tell the copy apart: the identity precheck must."""
        f = janus.function(config=_cfg())(_scaled_by)
        x = self._x()
        v = R.Variable(np.array([1.0, 2.0], np.float32))
        for _ in range(4):
            f(x, v)
        assert f.stats["graph_runs"] == 1
        w = copy.deepcopy(v)
        w.assign(np.array([5.0, 7.0], np.float32))
        assert f.cache.signature_of((x, w)) == f.cache.signature_of((x, v))
        np.testing.assert_array_equal(f(x, w).numpy(), [5.0, 7.0])
        assert f.stats["precheck_misses"] == 1


class TestCallableRegistry:
    def test_same_callable_same_token(self):
        def fn():
            return 1
        assert observe(fn).signature() == observe(fn).signature()

    def test_distinct_callables_distinct_tokens(self):
        def a():
            return 1

        def b():
            return 2
        assert observe(a).signature() != observe(b).signature()

    def test_gc_reallocated_callable_cannot_alias(self):
        """Regression: a dead function's reused address must not match
        the stale cache-key token minted for the old function."""
        def make():
            def fn():
                return None
            return fn

        f1 = make()
        sig1 = observe(f1).signature()
        addr = id(f1)
        del f1
        gc.collect()
        reused = None
        others = []
        for _ in range(1000):
            candidate = make()
            if id(candidate) == addr:
                reused = candidate
                break
            others.append(candidate)
        if reused is None:
            pytest.skip("allocator never reused the address")
        sig2 = observe(reused).signature()
        assert sig2 != sig1

    def test_dead_entries_are_reaped(self):
        def make():
            def fn():
                return None
            return fn
        f1 = make()
        CALLABLE_REGISTRY.token_for(f1)
        before = len(CALLABLE_REGISTRY)
        del f1
        gc.collect()
        assert len(CALLABLE_REGISTRY) <= before
