"""Graph IR: construction, topological order, liveness, signatures."""

import pickle

import numpy as np
import pytest

import repro as R
from repro import host, janus
from repro.errors import GraphError
from repro.graph import Graph, GraphBuilder, GraphExecutor, autodiff
from repro.graph import executor as executor_mod
from repro.graph.core import GraphFunction, collect_variables
from repro.observability import COUNTERS
from repro.ops import api
from repro.tensor import PyRef


def small_graph():
    b = GraphBuilder(name="g")
    with b:
        x = b.placeholder("x", shape=(2,), dtype=R.float32)
        y = api.add(x, 1.0)
        z = api.mul(y, y)
        b.mark_outputs([z])
    return b.graph, b


class _Holder:
    scale = 1.0


def _const_guard(b, obj):
    """A speculated heap constant: a read whose only job is its check."""
    return b.py_get_attr(PyRef(obj), "scale",
                         expected=("const", R.float32, np.float32(1.0)))


def _guarded_body(name, effect=None):
    """``x * 2`` behind a constant guard and an ``assert``; ``effect`` is
    a ``py_set`` target, or None for a body without effects."""
    b = GraphBuilder(name=name)
    with b:
        x = b.placeholder("x", shape=(), dtype=R.float32)
        _const_guard(b, _Holder())
        api.assert_that(api.greater(x, -1.0))
        if effect is not None:
            b.py_set_attr(PyRef(effect), "seen", x)
        b.mark_outputs([api.mul(x, 2.0)])
    return b.finalize_function(name)


class TestTopology:
    def test_topological_order_respects_edges(self):
        g, _ = small_graph()
        order = g.topological_order()
        position = {id(n): i for i, n in enumerate(order)}
        for node in g.nodes:
            for inp in node.inputs:
                assert position[id(inp.node)] < position[id(node)]

    def test_targets_restrict_to_ancestors(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            used = api.add(x, 1.0)
            _unused = api.mul(x, 50.0)
        order = b.graph.topological_order(targets=[used.node])
        names = {n.op_name for n in order}
        assert "mul" not in names

    def test_cycle_detected(self):
        g, b = small_graph()
        node = g.nodes[-1]
        node.inputs.append(node.outputs[0])  # self-loop
        with pytest.raises(GraphError):
            g.topological_order()

    def test_validate_catches_removed_producer(self):
        g, _ = small_graph()
        add_node = next(n for n in g.nodes if n.op_name == "add")
        g.remove_nodes([add_node])
        with pytest.raises(GraphError):
            g.validate()


class TestLiveness:
    def test_dead_node_not_live(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            out = api.add(x, 1.0)
            _dead = api.mul(x, 2.0)
            b.mark_outputs([out])
        live = b.graph.live_nodes()
        assert all(n.op_name != "mul" for n in live)

    def test_placeholders_always_live(self):
        b = GraphBuilder()
        with b:
            _unused = b.placeholder("u", shape=(), dtype=R.float32)
            out = b.convert(1.0)
            b.mark_outputs([out])
        live = b.graph.live_nodes()
        assert any(n.op_name == "placeholder" for n in live)

    def test_effectful_nodes_live(self):
        v = R.Variable(np.float32(0.0))
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            b.assign_variable(v, x)
            b.mark_outputs([b.convert(0.0)])
        live = b.graph.live_nodes()
        assert any(n.op_name == "var_assign" for n in live)

    def test_assert_nodes_live(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.bool_)
            api.assert_that(x)
            b.mark_outputs([b.convert(0.0)])
        assert any(n.op_name == "assert" for n in b.graph.live_nodes())

    def test_constant_guard_read_live(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            guard = _const_guard(b, _Holder())
            b.mark_outputs([x])
        assert guard.node in b.graph.live_nodes()
        assert guard.node.must_run and not guard.node.has_effects


class TestEffectModel:
    """Effects change state; guards only check it.  Both must run in a
    forward graph, only effects in a gradient body, and only effects
    keep a call out of the invoke memo."""

    def test_guard_is_not_an_effect(self):
        guarded = _guarded_body("guarded")
        assert not guarded.has_effects
        assert _guarded_body("writes", effect=_Holder()).has_effects

    def test_guarded_body_memoizable_effectful_not(self):
        args = [np.asarray(3.0, np.float32)]
        assert executor_mod._invoke_memo_key(
            _guarded_body("guarded"), args) is not None
        assert executor_mod._invoke_memo_key(
            _guarded_body("writes", effect=_Holder()), args) is None

    def test_guarded_body_runs_once_per_argument(self, monkeypatch):
        body = _guarded_body("guarded")
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            spec = [(R.Shape(()), R.float32)]
            first = b.invoke(body, [x], spec)
            second = b.invoke(body, [x], spec)
            b.mark_outputs([api.add(first, second)])
        runs = []
        run_nested = GraphExecutor._run_nested

        def counting(executor, feeds, run_state):
            runs.append(executor.graph.name)
            return run_nested(executor, feeds, run_state)
        monkeypatch.setattr(GraphExecutor, "_run_nested", counting)
        hits = COUNTERS.labels("executor.invoke_memo_hit")
        before = hits.value
        out, = GraphExecutor(b.graph).run([np.float32(3.0)])
        assert float(out) == 12.0
        assert runs == ["guarded"] and hits.value - before == 1

    @pytest.mark.parametrize("write", ["var_assign", "py_call"])
    def test_a_write_empties_the_invoke_memo(self, write):
        """The same pure call before and after a write of the state it
        reads computes twice (``py_set`` is the probe below)."""
        holder = _Holder()
        v = R.Variable(np.float32(1.0))
        body = GraphBuilder(name="reads")
        with body:
            x = body.placeholder("x", shape=(), dtype=R.float32)
            state = body.read_variable(v) if write == "var_assign" \
                else body.py_get_attr(PyRef(holder), "scale",
                                      expected=("tensor", R.float32, ()))
            body.mark_outputs([api.mul(x, state)])
        reads = body.finalize_function("reads")

        def set_scale(value):
            holder.scale = 3.0
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            spec = [(R.Shape(()), R.float32)]
            before = b.invoke(reads, [x], spec)
            if write == "var_assign":
                b.assign_variable(v, 3.0)
            else:
                b.py_call(set_scale, [x])
            after = b.invoke(reads, [x], spec)
            b.mark_outputs([before, after])
        outs = GraphExecutor(b.graph).run([np.float32(2.0)])
        assert [float(o) for o in outs] == [2.0, 6.0]

    def test_gradient_body_drops_recomputed_guarded_cond(self):
        """The forward keeps a ``cond`` whose branches only guard; the
        gradient body that recomputes it does not."""
        guarded = _guarded_body("guarded")
        b = GraphBuilder(name="f")
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            b.cond(api.greater(x, 0.0), guarded, guarded, [x],
                   [(R.Shape(()), R.float32)])
            b.mark_outputs([api.mul(x, x)])
        forward = b.finalize_function("f")
        assert any(n.op_name == "cond" for n in b.graph.live_nodes())

        grad = autodiff.grad_function(forward)
        assert grad.graph.recomputes_forward
        assert any(n.op_name == "cond" for n in grad.graph.nodes)
        assert not any(n.op_name == "cond"
                       for n in grad.graph.live_nodes())
        dx, = GraphExecutor(grad.graph).run([np.float32(3.0),
                                             np.float32(1.0)])
        assert float(dx) == 6.0

    def test_gradient_body_keeps_effects(self):
        grad = autodiff.grad_function(_guarded_body("writes",
                                                    effect=_Holder()))
        live = grad.graph.live_nodes()
        assert any(n.op_name == "py_set_attr" for n in live)
        assert not any(n.op_name == "assert" for n in live)

    def test_unpickled_graph_without_the_flag_keeps_its_guards(self):
        grad = autodiff.grad_function(_guarded_body("guarded"))
        old = pickle.loads(pickle.dumps(grad.graph))
        del old.recomputes_forward    # as pickled before the flag existed
        assert not old.recomputes_forward
        assert any(n.op_name == "assert" for n in old.live_nodes())


class _ProbeNode:
    scale = 1.0

    def __init__(self, v, left=None, right=None):
        self.v, self.left, self.right = v, left, right
        self.is_leaf = left is None


def _probe_total(node):
    if node.is_leaf:
        return R.constant(node.v) * node.scale
    return _probe_total(node.left) + _probe_total(node.right)


def _probe_step(root):
    a = _probe_total(root)
    root.left.scale = 3.0
    b = _probe_total(root)
    return a, b


class TestHeapWriteOrdering:
    """A write between two calls of a pure recursive function: the
    second call must see it, on every run — in order, on the level
    schedule's trials, and whether or not the invoke memo may fire."""

    @pytest.mark.parametrize("parallel", [True, False],
                             ids=["default", "sequential"])
    @pytest.mark.parametrize("memo", [True, False],
                             ids=["memo", "no_memo"])
    def test_probe_matches_imperative_on_every_run(
            self, parallel, memo, monkeypatch):
        monkeypatch.setattr(host, "usable_cpus", lambda: 2)
        if not memo:
            monkeypatch.setattr(executor_mod, "_invoke_memo_key",
                                lambda func, args: None)
        config = janus.JanusConfig() if parallel \
            else janus.JanusConfig(parallel_execution=False)
        step = janus.function(_probe_step, config=config)
        for _ in range(9):
            root = _ProbeNode(0, _ProbeNode(1.0), _ProbeNode(2.0))
            a, b = step(root)
            assert (float(a.numpy()), float(b.numpy())) == (3.0, 5.0)
        assert step.stats["graph_runs"] >= 5


class TestSignatures:
    def test_identical_pure_nodes_share_signature(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(2,), dtype=R.float32)
            a = api.add(x, 1.0)
            c = api.add(x, 1.0)
        assert a.node.signature() == c.node.signature()

    def test_commutative_signature(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(2,), dtype=R.float32)
            y = b.placeholder("y", shape=(2,), dtype=R.float32)
            a = api.add(x, y)
            c = api.add(y, x)
        assert a.node.signature() == c.node.signature()

    def test_noncommutative_order_matters(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(2,), dtype=R.float32)
            y = b.placeholder("y", shape=(2,), dtype=R.float32)
            a = api.sub(x, y)
            c = api.sub(y, x)
        assert a.node.signature() != c.node.signature()

    def test_stateful_not_deduplicable(self):
        b = GraphBuilder()
        with b:
            r = api.random_normal((2,))
        assert r.node.signature() is None


class TestGraphFunction:
    def test_recursive_function_has_effects_terminates(self):
        f = GraphFunction("rec")
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            out = b.invoke(f, [x], [(R.Shape(()), R.float32)])
            b.mark_outputs([out])
        f.finalize(b.graph)
        assert f.has_effects in (True, False)  # terminates

    def test_collect_variables_through_recursion(self):
        v = R.Variable(np.float32(1.0))
        f = GraphFunction("rec")
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            val = api.mul(x, b.read_variable(v))
            out = b.invoke(f, [val], [(R.Shape(()), R.float32)])
            b.mark_outputs([out])
        f.finalize(b.graph)
        assert collect_variables(b.graph) == {v}
        assert f.variables == [v]


class TestNodeOutputProtocol:
    def test_static_len_and_iter(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(3, 2), dtype=R.float32)
            assert len(x) == 3
            rows = list(x)
        assert len(rows) == 3
        assert rows[0].shape == R.Shape((2,))

    def test_dynamic_len_raises(self):
        from repro.errors import ShapeError
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(None, 2), dtype=R.float32)
            with pytest.raises(ShapeError):
                len(x)

    def test_operators_build_nodes(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(2,), dtype=R.float32)
            y = (x + 1.0) * x - 3.0
        assert y.node.op_name == "sub"
