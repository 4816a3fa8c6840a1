"""A loop gradient replays its forward: each iteration's record of its
body register file supplies the forward values, so the body's heap writes,
variable writes and random draws happen once, and only the adjoints
something reads are computed (graph.executor._ReplayExecutor)."""

import os
import sys

import numpy as np
import pytest

import repro as R
from repro import janus, nn
from repro.graph import GraphBuilder, GraphExecutor, autodiff
from repro.modes import ImperativeStep
from repro.observability import TRACER, override_level
from repro.ops import api, random_ops


class _Model:
    """The heap a loss reads and writes; parameters from a fixed seed."""

    def __init__(self, features=1):
        nn.init.seed(3)
        self.count = R.constant(np.float32(0.0))
        self.dense = nn.Dense(4, features, activation=R.tanh)
        self.w = R.Variable(np.float32(0.5))


def _counting_loss(m, xs):
    total = R.constant(0.0)
    for t in range(len(xs)):
        m.count = m.count + 1.0
        total = total + R.reduce_sum(m.dense(R.reshape(xs[t], (1, 4)))) \
            * m.count
    return total


def _dropout_loss(m, xs):
    total = R.constant(0.0)
    for t in range(len(xs)):
        m.count = m.count + 1.0
        h = R.dropout(m.dense(R.reshape(xs[t], (1, 4))), 0.5)
        total = total + R.reduce_sum(h) * m.count
    return total


def _scalar_variable_loss(m, xs):
    total = R.constant(0.0)
    for t in range(len(xs)):
        total = total + xs[t] * m.w.value()
    return total


def _nested_loss(m, xs, ys):
    total = R.constant(0.0)
    for t in range(len(xs)):
        h = R.reshape(xs[t], (1, 4))
        for s in range(len(ys)):
            m.count = m.count + 1.0
            h = R.dropout(m.dense(h), 0.25) + ys[s] * (m.count * 0.125)
        total = total + R.reduce_sum(h * h)
    return total


def _train(loss, batches, features=1):
    """Both arms over ``batches``, the generator reseeded before every
    step: per step ``(loss, count, parameters)``, and the JANUS step."""
    traces = {}
    for arm in ("janus", "oracle"):
        m = _Model(features)
        opt = nn.SGD(0.01)
        step = janus.function(loss, optimizer=opt, config=janus.JanusConfig(
            parallel_execution=False)) if arm == "janus" \
            else ImperativeStep(loss, opt)
        trace = []
        for k, batch in enumerate(batches):
            random_ops.seed(k)
            out = step(m, *[R.constant(b) for b in batch])
            trace.append((out.numpy().copy(), m.count.numpy().copy(),
                          m.dense.kernel.numpy().copy(),
                          m.dense.bias.numpy().copy(), m.w.numpy().copy()))
        traces[arm] = trace
        if arm == "janus":
            janus_step = step
    return traces["janus"], traces["oracle"], janus_step


def _assert_same(got, want):
    assert len(got) == len(want)
    for k, (row, ref) in enumerate(zip(got, want)):
        for a, b in zip(row, ref):
            assert a.shape == b.shape, k
            assert np.allclose(a, b, rtol=1e-5), (k, a, b)


def _rows(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(n, 4)).astype(np.float32),) for n in lengths]


class TestLoopBodyEffectsRunOnce:
    def test_heap_counter_in_a_trained_loop(self):
        """The gradient body used to re-run the counter write: 24 after
        the 4th call against the imperative 18."""
        got, want, step = _train(_counting_loss, _rows([3, 5, 4, 6] * 2))
        _assert_same(got, want)
        assert float(want[3][1]) == 18.0
        assert step.stats["graph_runs"] > 0

    def test_dropout_in_a_trained_loop(self):
        """... and re-draw the dropout mask, so the parameters diverged."""
        got, want, step = _train(_dropout_loss, _rows([3, 5, 4, 6] * 2))
        _assert_same(got, want)
        assert step.stats["graph_runs"] > 0

    def test_nested_dynamic_loops(self):
        rng = np.random.default_rng(1)
        batches = [(rng.normal(size=(n, 4)).astype(np.float32),
                    rng.normal(size=(k, 4)).astype(np.float32))
                   for n, k in [(2, 3), (3, 1), (1, 2), (3, 0), (0, 2),
                                (2, 2), (3, 3), (1, 1)]]
        got, want, step = _train(_nested_loss, batches, features=4)
        _assert_same(got, want)
        assert step.stats["graph_runs"] > 0
        # The inner loop is a while of the outer body, and the outer
        # gradient body binds its clone instead of running it again.
        outer = _only(step, "replay_grad")
        body = outer.attrs["forward_node"].attrs["body_func"].graph
        assert any(n.op_name == "while_loop" for n in body.nodes)
        replay = _replays(outer)
        assert replay and all(ex._bound for ex in replay)
        for ex in replay:
            ran = {entry[0].op_name for entry in ex._entries}
            assert "while_loop" not in ran
            assert "replay_grad" in ran

    def test_zero_trip_loop_keeps_a_scalar_variable_scalar(self):
        """A loop that never ran filled the gradient of a scalar Variable
        with ``zeros(1)``, and SGD made ``w`` shape ``(1,)`` for good."""
        lengths = [2, 3, 4, 0, 2]
        batches = [(np.arange(n, dtype=np.float32),) for n in lengths]
        got, want, step = _train(_scalar_variable_loss, batches)
        _assert_same(got, want)
        assert all(row[4].shape == () for row in got)
        assert step.stats["graph_runs"] > 0


def _only(step, op_name):
    nodes = [n for entry in step.cache.entries()
             for n in entry[-1].compiled.executor.graph.nodes
             if n.op_name == op_name]
    assert len(nodes) == 1
    return nodes[0]


def _replays(replay_grad):
    cache = replay_grad.attrs["grad_funcs"][0].graph._executor_cache
    return [ex for key, ex in cache.items() if key[0] == "replay"]


def _loop(w, c=None):
    """``acc *= w`` (times ``c`` when given) for 3 iterations."""
    cb = GraphBuilder()
    with cb:
        i = cb.placeholder("i", shape=(), dtype=R.int64)
        cb.placeholder("acc", shape=(), dtype=R.float32)
        if c is not None:
            cb.placeholder("c", shape=(), dtype=R.float32)
        cb.mark_outputs([api.less(i, 3)])
    bb = GraphBuilder(name="body")
    with bb:
        i = bb.placeholder("i", shape=(), dtype=R.int64)
        acc = bb.placeholder("acc", shape=(), dtype=R.float32)
        step = api.mul(acc, bb.read_variable(w))
        outs = [api.add(i, 1)]
        if c is None:
            outs.append(step)
        else:
            c = bb.placeholder("c", shape=(), dtype=R.float32)
            outs += [api.mul(step, c), c]
        bb.mark_outputs(outs)
    return cb.finalize_function("cond"), bb.finalize_function("body")


def _trained_loop(w, c=None):
    cond, body = _loop(w, c)
    b = GraphBuilder()
    with b:
        inits = [b.convert(np.int64(0)), b.convert(np.float32(1.0))]
        if c is not None:
            inits.append(b.placeholder("c", shape=(), dtype=R.float32))
        outs = b.while_loop(cond, body, inits)
        grads = autodiff.add_training_gradients(b, outs[1])
        b.mark_outputs([outs[1], grads[w]])
    return b.graph


def _replay_grad_of(graph):
    return next(n for n in graph.nodes if n.op_name == "replay_grad")


class TestReplay:
    def test_loop_invariant_adjoint_is_not_computed(self):
        """d/dw (w c)^3 = 3 w^2 c^3 needs the adjoint of ``acc`` carried
        through the loop, not that of the invariant ``c``."""
        w = R.Variable(np.float32(2.0))
        graph = _trained_loop(w, c=True)
        val, grad = GraphExecutor(graph).run([np.float32(0.5)])
        assert val == pytest.approx(1.0)
        assert grad == pytest.approx(1.5)
        replay, = _replays(_replay_grad_of(graph))
        # Outputs: d_acc, d_c, d_w.
        assert replay.wanted == (0, 2)

    def test_record_keeps_only_what_the_replay_reads(self):
        """The gradient of ``acc * w`` reads ``acc`` and ``w``; an
        iteration's record holds neither ``i``, ``i + 1`` nor the
        product."""
        w = R.Variable(np.float32(2.0))
        graph = _trained_loop(w)
        val, grad = GraphExecutor(graph).run([])
        assert (val, grad) == (pytest.approx(8.0), pytest.approx(12.0))
        replay, = _replays(_replay_grad_of(graph))
        forward = replay.forward
        kept = {node.attrs.get("ph_name", node.op_name)
                for node in forward._live_nodes for out in node.outputs
                if forward._slots[(id(node), out.index)] in replay._layout}
        assert kept == {"acc", "var_read"}

    def test_level2_traces_each_replayed_closure(self):
        w = R.Variable(np.float32(2.0))
        graph = _trained_loop(w)
        executor = GraphExecutor(graph)
        executor.run([])
        replay, = _replays(_replay_grad_of(graph))
        TRACER.clear()
        try:
            with override_level(2):
                executor.run([])
            events = [e for e in TRACER.events if e.category == "op"
                      and e.args and e.args.get("graph") == "body_grad"]
        finally:
            TRACER.clear()
        assert [e.name for e in events] \
            == [entry[0].op_name for entry in replay._entries] * 3


_LEDGER = os.path.join(os.path.dirname(__file__), os.pardir,
                       "benchmarks", "ledger")


class TestA3CGradientCost:
    def test_gradient_body_runs_only_backprop(self):
        """A3C's loop gradient computes the adjoint of ``total`` and the
        six parameter gradients; it never runs a clone of a forward node
        the recorded file holds (110 closures per iteration when it
        recomputed the forward and every adjoint)."""
        sys.path.insert(0, _LEDGER)
        try:
            import programs
        finally:
            sys.path.remove(_LEDGER)
        program = programs.TRAIN_PROGRAMS["A3C"]
        step = program.build("janus")
        for _ in range(3):
            for batch in program.make_batches(1):
                step(*batch)
        node = _only(step, "replay_grad")
        replay, = _replays(node)
        assert len(replay._entries) <= 65
        meta = node.attrs["grad_funcs"][0].grad_meta
        recorded = {clone.name for clone, forward in
                    meta["forward_of"].items()
                    if forward in replay.forward._live_nodes}
        assert recorded and recorded <= {c.name for c in replay._bound}
        assert not recorded & {entry[0].debug_name
                               for entry in replay._entries}
        n_float = len(node.inputs)
        assert len(replay.wanted) < len(node.outputs)
        assert [i for i in replay.wanted if i < n_float] == [0]
