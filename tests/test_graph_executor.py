"""Graph executor: feeds, commits, all-or-nothing aborts, parallelism."""

import os

import numpy as np
import pytest

import repro as R
from repro.errors import AssumptionFailed, ExecutionError
from repro.graph import GraphBuilder, GraphExecutor, autodiff
from repro.graph.core import GraphFunction
from repro.ops import api
from repro.tensor import PyRef


class TestBasicExecution:
    def test_feed_and_fetch(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(3,), dtype=R.float32)
            b.mark_outputs([api.mul(x, 2.0)])
        out, = GraphExecutor(b.graph).run([np.array([1, 2, 3], np.float32)])
        np.testing.assert_array_equal(out, [2, 4, 6])

    def test_wrong_feed_count(self):
        b = GraphBuilder()
        with b:
            b.placeholder("x", shape=(), dtype=R.float32)
            b.mark_outputs([b.convert(0.0)])
        with pytest.raises(ExecutionError):
            GraphExecutor(b.graph).run([])

    def test_multi_output_op(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 2), dtype=R.float32)
            lo, hi = api.split(x, 2, axis=0)
            b.mark_outputs([lo, hi])
        ex = GraphExecutor(b.graph)
        lo_v, hi_v = ex.run([np.arange(8, dtype=np.float32).reshape(4, 2)])
        assert lo_v.shape == (2, 2) and hi_v[0, 0] == 4

    def test_executor_reusable_across_runs(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            b.mark_outputs([api.add(x, 1.0)])
        ex = GraphExecutor(b.graph)
        assert ex.run([np.float32(1.0)])[0] == 2.0
        assert ex.run([np.float32(5.0)])[0] == 6.0


class TestDeferredState:
    def test_variable_commit_on_success(self):
        v = R.Variable(np.float32(0.0))
        b = GraphBuilder()
        with b:
            b.assign_variable(v, 42.0)
            b.mark_outputs([b.convert(0.0)])
        GraphExecutor(b.graph).run([])
        assert float(v.numpy()) == 42.0

    def test_read_after_write_sees_write(self):
        v = R.Variable(np.float32(10.0))
        b = GraphBuilder()
        with b:
            b.assign_variable(v, 1.0)
            out = api.add(b.read_variable(v), 0.5)
            b.mark_outputs([out])
        out, = GraphExecutor(b.graph).run([])
        assert out == pytest.approx(1.5)

    def test_assert_failure_aborts_before_commit(self):
        """The all-or-nothing guarantee of paper section 3.2."""
        v = R.Variable(np.float32(7.0))
        holder = type("S", (), {"attr": 1.0})()
        b = GraphBuilder()
        with b:
            pred = b.placeholder("p", shape=(), dtype=R.bool_)
            b.assign_variable(v, 99.0)
            b.py_set_attr(PyRef(holder), "attr", 99.0)
            guard = api.assert_that(pred, message="boom")
            b.mark_outputs([b.convert(0.0)])
        ex = GraphExecutor(b.graph)
        with pytest.raises(AssumptionFailed):
            ex.run([np.bool_(False)])
        # Nothing was mutated.
        assert float(v.numpy()) == 7.0
        assert holder.attr == 1.0
        # A successful run commits both.
        ex.run([np.bool_(True)])
        assert float(v.numpy()) == 99.0
        assert float(np.asarray(holder.attr.numpy()
                     if hasattr(holder.attr, "numpy")
                     else holder.attr)) == 99.0

    def test_py_attr_local_copy_read_back(self):
        holder = type("S", (), {})()
        holder.state = R.constant(np.float32(5.0))
        b = GraphBuilder()
        with b:
            first = b.py_get_attr(PyRef(holder), "state",
                                  expected=("tensor", R.float32,
                                            R.Shape(())))
            b.py_set_attr(PyRef(holder), "state", api.add(first, 1.0))
            second = b.py_get_attr(PyRef(holder), "state")
            b.mark_outputs([second])
        out, = GraphExecutor(b.graph).run([])
        assert out == pytest.approx(6.0)       # read saw the local copy
        assert float(holder.state.numpy()) == pytest.approx(6.0)

    def test_heap_writeback_produces_eager_tensor(self):
        holder = type("S", (), {})()
        holder.x = R.constant(np.float32(1.0))
        b = GraphBuilder()
        with b:
            b.py_set_attr(PyRef(holder), "x", 3.0)
            b.mark_outputs([b.convert(0.0)])
        GraphExecutor(b.graph).run([])
        assert isinstance(holder.x, R.Tensor)

    def test_expected_tensor_shape_violation(self):
        holder = type("S", (), {})()
        holder.state = R.constant(np.zeros((4, 8), np.float32))
        b = GraphBuilder()
        with b:
            out = b.py_get_attr(PyRef(holder), "state",
                                expected=("tensor", R.float32,
                                          R.Shape((4, 8))))
            b.mark_outputs([out])
        ex = GraphExecutor(b.graph)
        ex.run([])  # matches
        holder.state = R.constant(np.zeros((3, 8), np.float32))
        with pytest.raises(AssumptionFailed):
            ex.run([])

    def test_expected_const_guard(self):
        holder = type("S", (), {"k": 2})()
        from repro.tensor import TensorValue
        b = GraphBuilder()
        with b:
            b.py_get_attr(PyRef(holder), "k",
                          expected=("const", R.int64,
                                    TensorValue.of(2).array))
            b.mark_outputs([b.convert(0.0)])
        ex = GraphExecutor(b.graph)
        ex.run([])
        holder.k = 3
        with pytest.raises(AssumptionFailed):
            ex.run([])


class TestFunctionalControlFlow:
    def _make_branch(self, fn, name):
        b = GraphBuilder(name=name)
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            b.mark_outputs([fn(x)])
        return b.finalize_function(name)

    def test_cond_selects_branch(self):
        t = self._make_branch(lambda x: api.mul(x, 10.0), "t")
        f = self._make_branch(lambda x: api.neg(x), "f")
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            out = b.cond(api.greater(x, 0.0), t, f, [x],
                         [(R.Shape(()), R.float32)])
            b.mark_outputs([out])
        ex = GraphExecutor(b.graph)
        assert ex.run([np.float32(2.0)])[0] == 20.0
        assert ex.run([np.float32(-2.0)])[0] == 2.0

    def test_while_loop_terminates_and_sums(self):
        cb = GraphBuilder()
        with cb:
            i = cb.placeholder("i", shape=(), dtype=R.int64)
            s = cb.placeholder("s", shape=(), dtype=R.float32)
            cb.mark_outputs([api.less(i, 4)])
        cond = cb.finalize_function("c")
        bb = GraphBuilder()
        with bb:
            i = bb.placeholder("i", shape=(), dtype=R.int64)
            s = bb.placeholder("s", shape=(), dtype=R.float32)
            bb.mark_outputs([api.add(i, 1),
                             api.add(s, api.cast(i, "float32"))])
        body = bb.finalize_function("b")
        b = GraphBuilder()
        with b:
            outs = b.while_loop(cond, body,
                                [b.convert(np.int64(0)),
                                 b.convert(np.float32(0.0))])
            b.mark_outputs([outs[1]])
        out, = GraphExecutor(b.graph).run([])
        assert out == pytest.approx(0 + 1 + 2 + 3)

    def test_while_loop_iteration_cap(self):
        cb = GraphBuilder()
        with cb:
            i = cb.placeholder("i", shape=(), dtype=R.int64)
            cb.mark_outputs([api.less(i, 10 ** 9)])
        cond = cb.finalize_function("c")
        bb = GraphBuilder()
        with bb:
            i = bb.placeholder("i", shape=(), dtype=R.int64)
            bb.mark_outputs([api.add(i, 1)])
        body = bb.finalize_function("b")
        b = GraphBuilder()
        with b:
            outs = b.while_loop(cond, body, [b.convert(np.int64(0))])
            b.mark_outputs([outs[0]])
        node = next(n for n in b.graph.nodes
                    if n.op_name == "while_loop")
        node.attrs["max_iterations"] = 50
        with pytest.raises(ExecutionError):
            GraphExecutor(b.graph).run([])

    def test_recursive_invoke(self):
        fib = GraphFunction("countdown")
        gb = GraphBuilder()
        with gb:
            n = gb.placeholder("n", shape=(), dtype=R.float32)
            base = GraphBuilder()
            with base:
                m = base.placeholder("n", shape=(), dtype=R.float32)
                base.mark_outputs([api.mul(m, 0.0)])
            base_f = base.finalize_function("base")
            rec = GraphBuilder()
            with rec:
                m = rec.placeholder("n", shape=(), dtype=R.float32)
                inner = rec.invoke(fib, [api.sub(m, 1.0)],
                                   [(R.Shape(()), R.float32)])
                rec.mark_outputs([api.add(m, inner)])
            rec_f = rec.finalize_function("rec")
            out = gb.cond(api.less_equal(n, 0.0), base_f, rec_f, [n],
                          [(R.Shape(()), R.float32)])
            gb.mark_outputs([out])
        fib.finalize(gb.graph)
        b = GraphBuilder()
        with b:
            n = b.placeholder("n", shape=(), dtype=R.float32)
            out = b.invoke(fib, [n], [(R.Shape(()), R.float32)])
            b.mark_outputs([out])
        out, = GraphExecutor(b.graph).run([np.float32(4.0)])
        assert out == pytest.approx(4 + 3 + 2 + 1)


@pytest.fixture
def two_cores(monkeypatch):
    """+PARL needs real cores; pretend, so one-core CI runs it too."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


_LADDER_DEPTH = 14


def _ladder(x, rng, depth=_LADDER_DEPTH):
    """Two independent matmul chains: every level 1..depth of the graph
    then holds two heavy ops, so each of them fans out — whatever other
    instruction happens to share it."""
    heads = [x, x]
    for _ in range(depth):
        for i in range(2):
            w = (rng.normal(size=(8, 8)) / 4).astype(np.float32)
            heads[i] = api.matmul(heads[i], w)
    return heads


def _fanned_out(executor, op_name):
    """Whether every ``op_name`` closure sits in a thread-pool level."""
    fns = [fn for fn, (name, _) in zip(executor._program, executor._labels)
           if name == op_name]
    assert fns, "graph has no %s instruction" % op_name
    pooled = {id(fn) for fan_out, level in executor._levels if fan_out
              for fn in level}
    return all(id(fn) in pooled for fn in fns)


def _unary_fn(fn, name):
    b = GraphBuilder(name=name)
    with b:
        x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
        b.mark_outputs([fn(x)])
    return b.finalize_function(name)


def _loop(limit):
    """(cond, body) summing ``acc @ w`` for ``limit`` iterations."""
    w = R.Variable((np.eye(8) * 0.5).astype(np.float32))
    cb = GraphBuilder()
    with cb:
        i = cb.placeholder("i", shape=(), dtype=R.int64)
        cb.placeholder("acc", shape=(4, 8), dtype=R.float32)
        cb.mark_outputs([api.less(i, limit)])
    bb = GraphBuilder()
    with bb:
        i = bb.placeholder("i", shape=(), dtype=R.int64)
        acc = bb.placeholder("acc", shape=(4, 8), dtype=R.float32)
        bb.mark_outputs([api.add(i, 1),
                         api.matmul(acc, bb.read_variable(w))])
    return cb.finalize_function("c"), bb.finalize_function("b"), w


class _Kinds:
    """One graph fragment per instruction kind that is more than a
    registered-op kernel call.  Each returns ``(outputs, observe)``:
    graph outputs to compare and a callable reading back whatever the
    run committed to the heap / variables."""

    @staticmethod
    def var_assign(b, x, state):
        v = state["v"]
        return [b.assign_variable(v, x)], lambda: v.numpy().copy()

    @staticmethod
    def py_get_attr(b, x, state):
        got = b.py_get_attr(b.convert(PyRef(state["h"])), "t",  # dynamic
                            expected=("tensor", R.float32, R.Shape((4, 8))))
        return [got], lambda: None

    @staticmethod
    def py_set_attr(b, x, state):
        holder = state["h"]
        b.py_set_attr(PyRef(holder), "t", x)
        return [], lambda: holder.t.numpy().copy()

    @staticmethod
    def py_call(b, x, state):
        seen = state["seen"]

        def record(t):
            seen.append(t.numpy().copy())
            return t * 2.0
        return [b.py_call(record, [x])], lambda: seen[-1]

    @staticmethod
    def invoke(b, x, state):
        f = _unary_fn(lambda t: api.tanh(api.mul(t, 0.5)), "callee")
        return [b.invoke(f, [x], [(R.Shape((4, 8)), R.float32)])], \
            lambda: None

    @staticmethod
    def cond(b, x, state):
        t = _unary_fn(lambda t: api.mul(t, 10.0), "t")
        f = _unary_fn(api.neg, "f")
        pred = b.placeholder("p", shape=(), dtype=R.bool_)
        return [b.cond(pred, t, f, [x], [(R.Shape((4, 8)), R.float32)])], \
            lambda: None

    @staticmethod
    def while_loop(b, x, state):
        cond, body, _ = _loop(3)
        outs = b.while_loop(cond, body, [b.convert(np.int64(0)), x])
        return [outs[1]], lambda: None

    @staticmethod
    def while_grad(b, x, state):
        cond, body, w = _loop(3)
        outs = b.while_loop(cond, body, [b.convert(np.int64(0)), x])
        grads = autodiff.add_training_gradients(b, api.reduce_sum(outs[1]))
        return [outs[1], grads[w]], lambda: None


class TestParallelExecution:
    @pytest.mark.parametrize("kind", [
        "var_assign", "py_get_attr", "py_set_attr", "py_call", "invoke",
        "cond", "while_loop", "while_grad"])
    def test_every_instruction_kind_under_a_fanned_out_level(
            self, kind, two_cores):
        """Level parallelism reorders kernels, never the arithmetic
        inside one: parallel and sequential agree bit for bit, heap and
        variable commits included."""
        rng = np.random.default_rng(7)
        feed = rng.normal(size=(4, 8)).astype(np.float32)
        results = {}
        for parallel in (False, True):
            holder = type("H", (), {})()
            holder.t = R.constant(np.full((4, 8), 3.0, np.float32))
            state = {"h": holder, "seen": [],
                     "v": R.Variable(np.zeros((4, 8), np.float32))}
            b = GraphBuilder()
            with b:
                x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
                outs, observe = getattr(_Kinds, kind)(b, x, state)
                b.mark_outputs(outs + _ladder(x, np.random.default_rng(1)))
            ex = GraphExecutor(b.graph, parallel=parallel)
            assert ex.parallel is parallel
            if parallel:
                assert _fanned_out(ex, kind)
            feeds = [feed] + [np.bool_(True)] * (kind == "cond")
            results[parallel] = ([o.copy() for o in ex.run(feeds)],
                                 observe())
        (seq, seq_seen), (par, par_seen) = results[False], results[True]
        assert len(seq) == len(par)
        for want, got in zip(seq, par):
            assert np.array_equal(want, got)
        if seq_seen is not None:
            assert np.array_equal(seq_seen, par_seen)

    def test_parallel_matches_sequential(self, two_cores):
        rng = np.random.default_rng(0)
        w1 = rng.normal(size=(16, 16)).astype(np.float32)
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 16), dtype=R.float32)
            heads = [api.matmul(x, b.convert(w1 * (i + 1)))
                     for i in range(4)]
            total = heads[0]
            for h in heads[1:]:
                total = api.add(total, h)
            b.mark_outputs([total])
        feed = [rng.normal(size=(4, 16)).astype(np.float32)]
        seq = GraphExecutor(b.graph, parallel=False).run(list(feed))[0]
        par = GraphExecutor(b.graph, parallel=True).run(list(feed))[0]
        assert np.array_equal(seq, par)

    def test_parallel_assert_failure_still_aborts(self, two_cores):
        v = R.Variable(np.float32(1.0))
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(8, 8), dtype=R.float32)
            m1 = api.matmul(x, x)
            m2 = api.matmul(x, api.neg(x))
            api.assert_that(b.convert(False), message="always fails")
            b.assign_variable(v, 2.0)
            b.mark_outputs([api.add(m1, m2)])
        ex = GraphExecutor(b.graph, parallel=True)
        with pytest.raises(AssumptionFailed):
            ex.run([np.zeros((8, 8), np.float32)])
        assert float(v.numpy()) == 1.0

    def test_level_with_two_failures_raises_the_schedule_first(
            self, two_cores):
        """Regression: ``for future in done`` iterated a *set*, so which
        of two failing instructions surfaced depended on object hashes
        and differed run to run."""
        v = R.Variable(np.float32(1.0))
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            # The specs claim these shapes multiply; the kernels find
            # out they do not — two distinguishable errors, one level.
            first = api.matmul(x, b.placeholder(
                "a", shape=(8, 2), dtype=R.float32))
            second = api.matmul(x, b.placeholder(
                "b", shape=(8, 2), dtype=R.float32))
            b.assign_variable(v, 2.0)
            b.mark_outputs([first, second])
        ex = GraphExecutor(b.graph, parallel=True)
        assert ex.parallel and _fanned_out(ex, "matmul")
        seq = GraphExecutor(b.graph, parallel=False)
        seq.preamble = ex.preamble = []   # bad shapes reach the kernels
        feeds = [np.zeros((4, 8), np.float32), np.zeros((5, 2), np.float32),
                 np.zeros((7, 2), np.float32)]
        with pytest.raises(ValueError) as err:
            seq.run(feeds)
        want = str(err.value)
        assert "5" in want
        for _ in range(20):
            with pytest.raises(ValueError) as err:
                ex.run(feeds)
            assert str(err.value) == want
            assert float(v.numpy()) == 1.0

    def test_level2_tracing_per_op_sequential_per_level_parallel(
            self, two_cores):
        from repro.observability import TRACER, override_level
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            b.mark_outputs(_ladder(x, np.random.default_rng(1), depth=3))
        feed = [np.ones((4, 8), np.float32)]
        seq = GraphExecutor(b.graph, parallel=False)
        par = GraphExecutor(b.graph, parallel=True)
        assert par.parallel

        def traced(executor):
            TRACER.clear()
            try:
                with override_level(2):
                    executor.run(list(feed))
                return [e for e in TRACER.events if e.args
                        and e.args.get("graph") == b.graph.name]
            finally:
                TRACER.clear()

        events = traced(seq)
        assert [e.category for e in events] \
            == ["op"] * seq.instruction_count
        assert [e.name for e in events] == [n for n, _ in seq._labels]
        events = traced(par)
        assert [e.category for e in events] == ["level"] * len(par._levels)
        assert [e.args["parallel"] for e in events] \
            == [fan_out for fan_out, _ in par._levels]
