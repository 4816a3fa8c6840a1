"""Graph executor: feeds, commits, all-or-nothing aborts, parallelism,
the rendered program."""

import collections
import gc
import linecache
import os
import sys
import threading
import time
import traceback

import numpy as np
import pytest

import repro as R
from repro import host, janus, nn
from repro.errors import AssumptionFailed, ExecutionError
from repro.graph import GraphBuilder, GraphExecutor, autodiff
from repro.graph import executor as executor_mod
from repro.graph.core import GraphFunction
from repro.janus import compiled as compiled_mod
from repro.modes import make_step
from repro.observability import TRACER, counter_values, override_level
from repro.ops import api, random_ops
from repro.tensor import PyRef, TensorValue

from progen import (assert_arguments_prechecked,
                    closure_loops as _closure_loops)


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


def _pin(executor, verdict=True):
    """Give every candidate level its verdict without measuring."""
    assert executor._candidates
    for level in executor._candidates:
        level.verdict = verdict
    return executor


def _fanned_out(executor, op_name):
    """Whether every ``op_name`` closure sits in a level whose verdict
    is fan-out."""
    fns = [fn for fn, (name, _) in zip(executor._program, executor._labels)
           if name == op_name]
    assert fns, "graph has no %s instruction" % op_name
    pooled = {id(fn) for level in executor._candidates if level.verdict
              for fn in level.fns}
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


@pytest.fixture
def two_cores(monkeypatch):
    """+PARL needs two usable CPUs; pretend, so a one-CPU CI runs it too."""
    monkeypatch.setattr(host, "usable_cpus", lambda: 2)


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
                # A loop's gradient is a replay_grad instruction.
                op = "replay_grad" if kind == "while_grad" else kind
                assert _fanned_out(_pin(ex), op)
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
        par = _pin(GraphExecutor(b.graph, parallel=True))
        assert np.array_equal(seq, par.run(list(feed))[0])
        # Left to measure, every trial and whatever it settles on agree.
        measured = GraphExecutor(b.graph, parallel=True)
        for _ in range(2 * executor_mod._TRIALS):
            assert np.array_equal(seq, measured.run(list(feed))[0])
        assert all(level.verdict is not None
                   for level in measured._candidates)

    def test_parallel_assert_failure_still_aborts(self, two_cores):
        v = R.Variable(np.float32(1.0))
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(8, 8), dtype=R.float32)
            ok = b.placeholder("ok", shape=(), dtype=R.bool_)
            m1 = api.matmul(x, x)
            m2 = api.matmul(x, b.convert(np.eye(8, dtype=np.float32)))
            api.assert_that(ok, message="fails on request")
            b.assign_variable(v, 2.0)
            b.mark_outputs([api.add(m1, m2)])
        ex = _pin(GraphExecutor(b.graph, parallel=True))
        assert _fanned_out(ex, "assert")
        with pytest.raises(AssumptionFailed):
            ex.run([np.zeros((8, 8), np.float32), np.bool_(False)])
        assert float(v.numpy()) == 1.0
        ex.run([np.zeros((8, 8), np.float32), np.bool_(True)])
        assert float(v.numpy()) == 2.0

    def test_level_with_two_failures_raises_the_schedule_first(
            self, two_cores):
        """Every closure of a fanned-out level is joined, the
        schedule-first error is raised every time, nothing is committed.
        (Regression: ``for future in done`` iterated a *set*, so which
        of two failing instructions surfaced differed run to run.)"""
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
        ex = _pin(GraphExecutor(b.graph, parallel=True))
        assert ex.parallel and _fanned_out(ex, "matmul")
        seq = GraphExecutor(b.graph, parallel=False)
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

    def test_an_interrupt_on_the_pool_is_raised_after_every_join(
            self, two_cores):
        """A ``BaseException`` from user code on a pool thread reaches
        the caller only once the level's other closures are done."""
        done = []

        def stop(t):
            raise KeyboardInterrupt

        def slow(t):
            time.sleep(0.05)
            done.append(True)
            return t
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            b.mark_outputs([b.py_call(stop, [x]), b.py_call(slow, [x])]
                           + _ladder(x, np.random.default_rng(1), depth=1))
        ex = _pin(GraphExecutor(b.graph, parallel=True))
        assert _fanned_out(ex, "py_call")
        with pytest.raises(KeyboardInterrupt):
            ex.run([np.ones((4, 8), np.float32)])
        assert done == [True]

    def test_level2_tracing_per_op_sequential_per_level_parallel(
            self, two_cores):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            b.mark_outputs(_ladder(x, np.random.default_rng(1), depth=3))
        feed = [np.ones((4, 8), np.float32)]

        def traced(executor):
            TRACER.clear()
            try:
                with override_level(2):
                    executor.run(list(feed))
                return [e for e in TRACER.events if e.args
                        and e.args.get("graph") == b.graph.name]
            finally:
                TRACER.clear()

        seq = GraphExecutor(b.graph, parallel=False)
        events = traced(seq)
        assert [e.category for e in events] \
            == ["op"] * seq.instruction_count
        assert [e.name for e in events] == [n for n, _ in seq._labels]

        # A live level schedule: one event per level.
        par = _pin(GraphExecutor(b.graph, parallel=True))
        assert par.parallel and len(par._candidates) == 3
        events = traced(par)
        assert [e.category for e in events] == ["level"] * len(par._levels)
        assert [e.args["parallel"] for e in events] \
            == [type(level) is not list for level in par._levels]
        assert [e.args["instructions"] for e in events] \
            == [len(level if type(level) is list else level.fns)
                for level in par._levels]
        assert not any("trial" in e.args for e in events)

        # Trials say which schedule they timed: in order first.
        measuring = GraphExecutor(b.graph, parallel=True)
        for want in ("seq", "par"):
            events = traced(measuring)
            assert len(events) == len(measuring._levels)
            trials = [e for e in events if "trial" in e.args]
            assert [e.args["trial"] for e in trials] == [want] * 3
            assert [e.args["parallel"] for e in trials] \
                == [want == "par"] * 3


class _ScriptedClock:
    """A ``time`` stand-in: readings come in (start, end) pairs, each
    pair as far apart as the next scripted duration."""

    def __init__(self, durations):
        self.durations = list(durations)
        self.now = 0.0
        self.started = False

    def perf_counter(self):
        if self.started:
            self.now += self.durations.pop(0)
        self.started = not self.started
        return self.now


class TestMeasuredSchedule:
    """The verdict is a measurement: adjacent (in order, fanned out)
    pairs, fan-out kept only if it won every pair by the margin."""

    @pytest.fixture(autouse=True)
    def _untimed_run(self, monkeypatch, two_cores):
        # The trial's two clock readings must be the run's only ones.
        from repro.observability import METRICS
        monkeypatch.setattr(METRICS, "enabled", False)
        with override_level(0):
            yield

    @staticmethod
    def _one_candidate():
        rng = np.random.default_rng(3)
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            w = [b.placeholder(n, shape=(8, 8), dtype=R.float32)
                 for n in "ab"]
            b.mark_outputs([api.add(api.matmul(x, w[0]),
                                    api.matmul(x, w[1]))])
        feeds = [rng.normal(size=(4, 8)).astype(np.float32),
                 rng.normal(size=(8, 8)).astype(np.float32),
                 rng.normal(size=(8, 8)).astype(np.float32)]
        ex = GraphExecutor(b.graph, parallel=True)
        level, = ex._candidates
        return ex, level, feeds

    def _measure(self, monkeypatch, durations):
        ex, level, feeds = self._one_candidate()
        clock = _ScriptedClock(durations)
        monkeypatch.setattr(executor_mod, "time", clock)
        want = GraphExecutor(ex.graph).run(list(feeds))[0]
        before = counter_values()
        for n in range(len(durations)):
            assert level.verdict is None and ex.parallel
            assert level.trials == n
            assert np.array_equal(ex.run(list(feeds))[0], want)
        assert not clock.durations      # nothing is timed but trials
        assert level.verdict is not None
        assert np.array_equal(ex.run(list(feeds))[0], want)
        after = counter_values()
        landed = {name: after.get(name, 0) - before.get(name, 0)
                  for name in ("executor.levels_parallel",
                               "executor.levels_sequential")}
        return ex, level, landed

    def test_fan_out_40_percent_faster_every_time_is_kept(
            self, monkeypatch):
        ex, level, landed = self._measure(
            monkeypatch, [1.0, 0.6] * executor_mod._TRIALS)
        assert level.verdict is True and ex.parallel
        assert landed == {"executor.levels_parallel": 1,
                          "executor.levels_sequential": 0}
        assert "1/1 levels parallel" in repr(ex)

    def test_fan_out_20_percent_faster_is_dropped_at_once(
            self, monkeypatch):
        ex, level, landed = self._measure(monkeypatch, [1.0, 0.8])
        assert level.verdict is False
        assert landed == {"executor.levels_parallel": 0,
                          "executor.levels_sequential": 1}
        # After the last verdict there is no schedule left: runs take
        # the sequential loop over the flat program.
        assert ex.parallel is False
        assert "0/1 levels parallel" in repr(ex)

    def test_one_lost_pair_drops_a_fan_out_that_won_the_others(
            self, monkeypatch):
        # Each fanned-out time is held against the in-order time just
        # before it, not against the best so far.
        _, level, _ = self._measure(monkeypatch,
                                    [1.0, 0.5, 1.0, 0.5, 0.6, 0.5])
        assert level.verdict is False

    def test_a_raising_trial_is_not_counted(self, monkeypatch):
        ex, level, feeds = self._one_candidate()
        bad = list(feeds)
        bad[1] = np.zeros((5, 8), np.float32)
        for _ in range(6):
            with pytest.raises(ValueError):
                ex.run(bad)
        assert level.trials == 0 and level.verdict is None
        ex.run(list(feeds))
        assert level.trials == 1

    def test_a_kept_level_keeps_the_schedule_for_the_others(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            b.mark_outputs(_ladder(x, np.random.default_rng(1), depth=4))
        ex = GraphExecutor(b.graph, parallel=True)
        assert len(ex._candidates) == 4
        for level, keep in zip(ex._candidates, (False, True, False, False)):
            ex._decide(level, keep)
        assert ex.parallel and "1/4 levels parallel" in repr(ex)
        feed = [np.ones((4, 8), np.float32)]
        for want, got in zip(GraphExecutor(b.graph).run(list(feed)),
                             ex.run(list(feed))):
            assert np.array_equal(want, got)

    def test_eight_threads_share_one_executor_through_its_trials(self):
        """Verdict state is unlocked on purpose: concurrent runs may
        repeat a trial, never compute a different result, and the level
        list a run is iterating is never changed under it."""
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            b.mark_outputs(_ladder(x, np.random.default_rng(1), depth=3))
        feed = np.random.default_rng(5).normal(size=(4, 8)) \
            .astype(np.float32)
        want = GraphExecutor(b.graph).run([feed])
        ex = GraphExecutor(b.graph, parallel=True)
        assert len(ex._candidates) == 3
        levels = ex._levels
        was = [list(level) if type(level) is list else list(level.fns)
               for level in levels]

        before = counter_values()
        errors = []
        start = threading.Barrier(8)

        def client():
            try:
                start.wait(timeout=30)
                for _ in range(25):
                    for w, got in zip(want, ex.run([feed])):
                        assert np.array_equal(w, got)
            except BaseException as exc:    # reported below
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert all(level.verdict is not None for level in ex._candidates)
        after = counter_values()
        assert sum(after.get(name, 0) - before.get(name, 0)
                   for name in ("executor.levels_parallel",
                                "executor.levels_sequential")) >= 3
        assert ex._levels is levels
        assert was == [list(level) if type(level) is list
                       else list(level.fns) for level in levels]


class TestUsableCpus:
    def test_affinity_mask_wins_over_the_machine_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert host.usable_cpus() == 3

    def test_platform_without_affinity_asks_the_machine(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert host.usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert host.usable_cpus() == 1

    def test_one_usable_cpu_no_candidate_no_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(executor_mod, "_POOL", None)
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            b.mark_outputs(_ladder(x, np.random.default_rng(1), depth=3))
        ex = GraphExecutor(b.graph, parallel=True)
        assert ex.parallel is False and not ex._candidates
        assert "0/0 levels parallel" in repr(ex)
        ex.run([np.ones((4, 8), np.float32)])
        assert executor_mod._POOL is None


class TestNestedRun:
    def test_rejects_a_wrong_feed_count(self):
        f = _unary_fn(api.neg, "body")
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            b.mark_outputs([b.invoke(f, [x, x],
                                     [(R.Shape((4, 8)), R.float32)])])
        ex = GraphExecutor(b.graph)
        with pytest.raises(ExecutionError, match="expects 1 feeds, got 2"):
            ex.run([np.zeros((4, 8), np.float32)])

    def test_binds_runs_returns_and_commits_nothing(self):
        v = R.Variable(np.float32(1.0))
        b = GraphBuilder(name="body")
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            b.assign_variable(v, api.mul(x, 3.0))
            b.mark_outputs([api.add(x, 1.0)])
        body = b.finalize_function("body")
        outer = GraphBuilder()
        with outer:
            x = outer.placeholder("x", shape=(), dtype=R.float32)
            outer.mark_outputs([outer.invoke(body, [x],
                                             [(R.Shape(()), R.float32)])])
        ex = GraphExecutor(outer.graph)
        run_state = executor_mod.RunState()
        # A python float is internalized by the top-level bind; the call
        # site hands the internal value on.
        values = ex._bind([2.0])
        ex._rendered(values, run_state)
        out = values[ex._output_slots[0]]
        assert out.dtype == np.float32 and out == 3.0
        assert float(v.numpy()) == 1.0          # the top-level run commits
        assert run_state.var_local[v] == 6.0
        ref = PyRef(object())
        values = ex._bind([ref])
        assert values[ex._ph_slot_order[0]] is ref

    def test_emits_per_op_events_at_level_2(self):
        f = _unary_fn(lambda t: api.tanh(api.mul(t, 0.5)), "callee")
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4, 8), dtype=R.float32)
            b.mark_outputs([b.invoke(f, [x],
                                     [(R.Shape((4, 8)), R.float32)])])
        ex = GraphExecutor(b.graph)
        body = executor_mod._function_executor(f)
        TRACER.clear()
        try:
            with override_level(2):
                ex.run([np.ones((4, 8), np.float32)])
            nested = [e for e in TRACER.events if e.args
                      and e.args.get("graph") == f.graph.name]
        finally:
            TRACER.clear()
        assert [e.category for e in nested] \
            == ["op"] * body.instruction_count
        assert [e.name for e in nested] == [n for n, _ in body._labels]


def _reachable_graphs(graph):
    """Every graph nested in ``graph``: bodies, branches, gradients."""
    found, stack = {}, [graph]
    while stack:
        for node in stack.pop().nodes:
            for func in node._nested_functions():
                if func is not None and func.graph is not None \
                        and id(func.graph) not in found:
                    found[id(func.graph)] = func.graph
                    stack.append(func.graph)
    return list(found.values())


def _loop_model(w, limit=3, width=(), invoke=True):
    """A graph running ``acc = acc * w`` ``limit`` times from ones, plus
    (``invoke``) an invoke of ``tanh(x * w)``, and the gradient of the
    sum of both with respect to ``w``: a while, an invoke and their
    ``replay_grad``s.  Returns the graph and the callees by graph
    name."""
    cb = GraphBuilder(name="loop_cond")
    with cb:
        i = cb.placeholder("i", shape=(), dtype=R.int64)
        cb.placeholder("acc", shape=width, dtype=R.float32)
        cb.mark_outputs([api.less(i, limit)])
    cond = cb.finalize_function("loop_cond")
    bb = GraphBuilder(name="loop_body")
    with bb:
        i = bb.placeholder("i", shape=(), dtype=R.int64)
        acc = bb.placeholder("acc", shape=width, dtype=R.float32)
        bb.mark_outputs([api.add(i, 1),
                         api.mul(acc, bb.read_variable(w))])
    body = bb.finalize_function("loop_body")
    fb = GraphBuilder(name="squash")
    with fb:
        x = fb.placeholder("x", shape=width, dtype=R.float32)
        fb.mark_outputs([api.tanh(api.mul(x, fb.read_variable(w)))])
    squash = fb.finalize_function("squash")
    b = GraphBuilder()
    with b:
        ones = b.convert(np.ones(width, np.float32))
        outs = b.while_loop(cond, body, [b.convert(np.int64(0)), ones])
        loss = api.reduce_sum(outs[1])
        if invoke:
            y = b.invoke(squash, [ones], [(R.Shape(width), R.float32)])
            loss = api.add(loss, api.reduce_sum(y))
        grads = autodiff.add_training_gradients(b, loss)
        b.mark_outputs([loss, grads[w]])
    return b.graph, {f.name: f for f in (cond, body, squash)}


class TestCallSites:
    """An invoke, cond, while or replay_grad pins its callee on first
    run and calls the function generated for the pin."""

    @pytest.mark.parametrize("cleared", ["callees", "gradients", "both"])
    def test_a_cleared_cache_repins(self, cleared):
        w = R.Variable(np.float32(1.5))
        graph, funcs = _loop_model(w)
        ex = GraphExecutor(graph)
        first = ex.run([])
        callees = [f.graph for f in funcs.values()]
        gradients = [g for g in _reachable_graphs(graph)
                     if g not in callees]
        old = {id(g): dict(g._executor_cache) for g in callees + gradients}
        assert all(old.values())
        clear = {"callees": callees, "gradients": gradients,
                 "both": callees + gradients}[cleared]
        for nested in clear:
            nested._executor_cache.clear()
        second = ex.run([])
        # Each cleared cache is filled again, with new executors.
        for nested in clear:
            cache = nested._executor_cache
            assert cache.keys() == old[id(nested)].keys()
            assert all(cache[key] is not old[id(nested)][key]
                       for key in cache)
        fresh_graph, _ = _loop_model(w)
        fresh = GraphExecutor(fresh_graph).run([])
        for a, b, c in zip(first, second, fresh):
            assert a.tobytes() == b.tobytes() == c.tobytes()
            assert a.dtype == b.dtype == c.dtype

    def test_level_2_emits_one_op_event_per_closure_of_every_body_run(
            self):
        w = R.Variable(np.float32(1.5))
        graph, funcs = _loop_model(w, limit=3)
        ex = GraphExecutor(graph)
        ex.run([])          # pins every site
        TRACER.clear()
        try:
            with override_level(2):
                ex.run([])
            ops = collections.Counter(
                e.args["graph"] for e in TRACER.events
                if e.category == "op" and e.args and "node" in e.args)
        finally:
            TRACER.clear()
        runs = {"loop_cond": 4, "loop_body": 3, "squash": 1}
        for name, count in runs.items():
            executor = funcs[name].graph._executor_cache["nested"]
            assert ops[name] == count * executor.instruction_count
        replays = [(key, executor) for nested in _reachable_graphs(graph)
                   for key, executor in nested._executor_cache.items()
                   if key != "record" and key[0] == "replay"]
        assert len(replays) == 2
        for _, replay in replays:
            count = runs[replay.forward.graph.name]
            assert ops[replay.graph.name] \
                == count * replay.instruction_count

    def test_a_loop_past_max_iterations_raises(self):
        graph, _ = _loop_model(R.Variable(np.float32(1.0)), limit=10 ** 9)
        node, = [n for n in graph.nodes if n.op_name == "while_loop"]
        node.attrs["max_iterations"] = 50
        with pytest.raises(ExecutionError,
                           match="while_loop exceeded 50 iterations"):
            GraphExecutor(graph).run([])

    @pytest.mark.parametrize("width", [(), (2, 3)])
    def test_a_zero_trip_loop_gradient_is_zeros_of_the_variable(
            self, width):
        w = R.Variable(np.full(width, 1.5, np.float32))
        graph, _ = _loop_model(w, limit=0, width=width, invoke=False)
        loss, grad = GraphExecutor(graph).run([])
        assert loss == np.prod(width)
        assert grad.shape == width and grad.dtype == np.float32
        assert not grad.any()

    @staticmethod
    def _dynamic_read(expected=None, site=None, write=None):
        b = GraphBuilder()
        with b:
            h = b.placeholder("h", shape=(), dtype=None)
            if write is not None:
                b.py_set_attr(h, "k", write)
            out = b.py_get_attr(h, "k", expected=expected)
            if site is not None:
                out.node.attrs["prof_site"] = site
            b.mark_outputs([out])
        return GraphExecutor(b.graph)

    @pytest.fixture(params=["rendered", "per-op"])
    def form(self, request):
        """Run the rendered program, or the per-op closures (level-2
        tracing): the read's template either way."""
        if request.param == "rendered":
            yield
            return
        with override_level(2):
            yield
        TRACER.clear()

    def test_a_dynamic_read_rejects_a_non_pyref_receiver(self, form):
        ex = self._dynamic_read()
        with pytest.raises(ExecutionError,
                           match="py_get on non-PyRef input"):
            ex.run([np.float32(1.0)])

    def test_a_dynamic_read_guard_miss_names_its_site(self, form):
        holder = type("S", (), {"k": 2})()
        ex = self._dynamic_read(
            expected=("const", R.int64, TensorValue.of(2).array),
            site=("attr", "s7"))
        assert ex.run([PyRef(holder)])[0] == 2
        holder.k = 3
        with pytest.raises(AssumptionFailed) as info:
            ex.run([PyRef(holder)])
        assert info.value.site == ("attr", "s7")

    def test_a_dynamic_read_sees_the_runs_own_write(self, form):
        holder = type("S", (), {"k": 2.0})()
        ex = self._dynamic_read(write=np.float32(5.0))
        out, = ex.run([PyRef(holder)])
        assert out == 5.0
        assert float(holder.k.numpy()) == 5.0

    def test_a_dynamic_read_renders_its_per_op_form_on_first_use(
            self, monkeypatch):
        """Building compiles only the program; the read's line template
        is rendered alone when a per-op run first calls its closure,
        which then emits one ``op`` event per closure as before."""
        monkeypatch.setattr(executor_mod, "_CODE_CACHE", {})
        holder = type("S", (), {"k": 2.0})()
        ex = self._dynamic_read(write=np.float32(5.0))
        assert len(executor_mod._CODE_CACHE) == 1
        assert ex.run([PyRef(holder)])[0] == 5.0
        assert len(executor_mod._CODE_CACHE) == 1
        TRACER.clear()
        try:
            with override_level(2):
                for _ in range(2):
                    assert ex.run([PyRef(holder)])[0] == 5.0
            ops = [e.name for e in TRACER.events
                   if e.category == "op" and e.args and "node" in e.args]
        finally:
            TRACER.clear()
        assert len(executor_mod._CODE_CACHE) == 2
        assert ops == ["constant", "py_set_attr", "py_get_attr"] * 2
        assert len(ops) == 2 * ex.instruction_count

    def test_the_same_recursive_model_twice_compiles_no_new_source(
            self, monkeypatch):
        """Site sources hold slot indices, never an id: a second build
        of the same recursive model reuses every generated code."""
        monkeypatch.setattr(executor_mod, "_CODE_CACHE", {})
        TestFunctionalControlFlow().test_recursive_invoke()
        sources = dict(executor_mod._CODE_CACHE)
        assert any("(tr if _T.level >= 2 else rd)(w, rs)" in source
                   for source in sources)
        TestFunctionalControlFlow().test_recursive_invoke()
        assert executor_mod._CODE_CACHE == sources


def _legacy_internalize(value):
    """The ``isinstance`` chain ``_internalize`` was before it became a
    table; kept as the reference the table is compared against."""
    if type(value) is np.ndarray:
        return value
    if isinstance(value, R.Tensor):
        return value.value.array
    if isinstance(value, TensorValue):
        return value.array
    if isinstance(value, PyRef):
        return value
    if isinstance(value, R.Variable):
        return PyRef(value)
    if isinstance(value, bool):
        return np.asarray(value, np.bool_)
    if isinstance(value, int):
        return np.asarray(value, np.int64)
    if isinstance(value, float):
        return np.asarray(value, np.float32)
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return np.asarray(value)
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, (list, tuple)):
        try:
            arr = np.asarray(value)
        except (ValueError, TypeError):
            return PyRef(value)
        if arr.dtype.kind in "bif":
            if arr.dtype == np.float64:
                arr = arr.astype(np.float32)
            return arr
        return PyRef(value)
    return PyRef(value)


class _MyInt(int):
    pass


class _MyFloat(float):
    pass


class _MyList(list):
    pass


class _MyTuple(tuple):
    pass


class _MyTensor(R.Tensor):
    pass


class _MyValue(TensorValue):
    pass


class _MyVariable(R.Variable):
    pass


class _MyRef(PyRef):
    pass


class _MyArray(np.ndarray):
    pass


class _TreeNode:
    pass


_ARRAY = np.arange(6, dtype=np.float32).reshape(2, 3)

#: value, and what it must become: an ``(dtype, shape)`` for a fresh
#: array, ``"same"`` / a callable picking the existing object the result
#: must *be*, or ``"ref"`` for a PyRef around the value itself.
_INTERNALIZE_CASES = [
    (True, ("bool", ())),                       # bool before int
    (7, ("int64", ())),
    (2.5, ("float32", ())),                     # python floats are float32
    ([1.0, 2.5], ("float32", (2,))),            # float64 list -> float32
    ((1.5, 2.5), ("float32", (2,))),
    ([1, 2, 3], ("int64", (3,))),
    ([True, False], ("bool", (2,))),
    ([[1.0, 2.0], [3.0, 4.0]], ("float32", (2, 2))),
    ([[1, 2], [3]], "ref"),                     # ragged
    (["a", "b"], "ref"),
    ([], ("float32", (0,))),
    (np.float32(1.5), ("float32", ())),
    (np.float64(1.5), ("float32", ())),         # a python-float subclass
    (np.int32(3), ("int32", ())),
    (np.int64(3), ("int64", ())),
    (np.uint8(3), ("uint8", ())),
    (np.bool_(True), ("bool", ())),
    (_ARRAY, "same"),
    (_ARRAY.view(_MyArray), "same"),
    (R.constant(_ARRAY), lambda t: t.value.array),
    (TensorValue.of(_ARRAY), lambda tv: tv.array),
    (_MyTensor(TensorValue.of(_ARRAY)), lambda t: t.value.array),
    (_MyValue(_ARRAY, R.float32), lambda tv: tv.array),
    (PyRef(_TreeNode()), "same"),
    (_MyRef(_TreeNode()), "same"),
    (R.Variable(_ARRAY), "ref"),
    (_MyVariable(_ARRAY), "ref"),
    (_MyInt(7), ("int64", ())),
    (_MyFloat(2.5), ("float32", ())),
    (_MyList([1.0, 2.0]), ("float32", (2,))),
    (_MyTuple((1, 2)), ("int64", (2,))),
    (_MyList([[1], [2, 3]]), "ref"),
    (_TreeNode(), "ref"),
    (None, "ref"),
    ("text", "ref"),
    ({"k": 1}, "ref"),
    (1 + 2j, "ref"),
]


class TestInternalize:
    @pytest.mark.parametrize(
        "value, want", _INTERNALIZE_CASES,
        ids=["%d-%s" % (n, type(v).__name__)
             for n, (v, _) in enumerate(_INTERNALIZE_CASES)])
    def test_every_branch_converts_as_the_isinstance_chain_did(
            self, value, want):
        got = executor_mod._internalize(value)
        ref = _legacy_internalize(value)
        assert type(got) is type(ref)
        if want == "ref":
            assert type(got) is PyRef and got.obj is value
            assert ref.obj is value
        elif want == "same":
            assert got is value and ref is value
        elif callable(want):
            assert got is want(value) and ref is got
        else:
            dtype, shape = want
            assert isinstance(got, np.ndarray)
            assert (got.dtype, got.shape) == (np.dtype(dtype), shape)
            assert (ref.dtype, ref.shape) == (got.dtype, got.shape)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("pred", [
        np.bool_(True), np.array(False), np.array([True]),
        np.array([[0.0]]), np.array([1, 1, 1]), np.array([1, 0, 1]),
        np.array([], np.bool_), np.array(2.5, np.float32)])
    def test_truth_is_bool_of_np_all(self, pred):
        pred = np.asarray(pred)
        assert executor_mod._truth(pred) is bool(np.all(pred))


_LEDGER = os.path.join(os.path.dirname(__file__), os.pardir,
                       "benchmarks", "ledger")


def _ledger_programs():
    sys.path.insert(0, _LEDGER)
    try:
        import programs
    finally:
        sys.path.remove(_LEDGER)
    return programs


class TestRenderedProgram:
    """The generated function of each executor runs what its closure
    list runs: same outputs, same state, bit for bit."""

    def _train(self, name, steps=2):
        """``(step, per-step outputs, final Variable arrays)`` of a
        fresh ledger program: three passes to warm it, then ``steps``
        more, each step reseeded."""
        programs = _ledger_programs()
        program = programs.TRAIN_PROGRAMS[name]
        model = program.make_model(programs.MODEL_SEED)
        step = make_step(program.make_loss(model), nn.SGD(0.01), "janus",
                         config=R.janus.JanusConfig(
                             parallel_execution=False))
        outputs = []
        k = 0
        for _ in range(3 + steps):
            for batch in program.make_batches(1):
                random_ops.seed(k)
                k += 1
                outputs.append(step(*batch))
        assert step.stats["graph_runs"] > 0
        return step, outputs, [v.storage.array for v in model.variables]

    @staticmethod
    def _assert_same(a, b):
        if isinstance(a, (tuple, list)):
            assert type(a) is type(b) and len(a) == len(b)
            for x, y in zip(a, b):
                TestRenderedProgram._assert_same(x, y)
            return
        x = np.asarray(a.numpy() if isinstance(a, R.Tensor) else a)
        y = np.asarray(b.numpy() if isinstance(b, R.Tensor) else b)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("name", ["A3C", "TreeRNN"])
    def test_rendered_equals_closure_loop(self, name, monkeypatch):
        """A3C: a top-level program that keeps intermediates in locals
        and a loop gradient; TreeRNN: a recursive gradient (invoke and
        cond replays)."""
        step, rendered_out, rendered_vars = self._train(name)
        entries = [entry for _, entry in step.cache.entries()]
        assert any(entry.compiled.executor.local_ops > 0
                   for entry in entries)
        for entry in entries:
            code = entry.compiled.executor._rendered.__code__
            assert code.co_filename.startswith("<janus-render-")

        loops = _closure_loops(monkeypatch)
        _, loop_out, loop_vars = self._train(name)
        # Every executor of the second model, nested and replay ones
        # too, was compiled under the stand-in.
        assert len(loops) > len(entries)
        assert sum(loop.runs for loop in loops) > len(loop_out)
        self._assert_same(rendered_out, loop_out)
        self._assert_same(rendered_vars, loop_vars)

    def test_same_model_twice_compiles_no_new_source(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_CODE_CACHE", {})
        first, _, _ = self._train("TreeRNN", steps=0)
        sources = dict(executor_mod._CODE_CACHE)
        assert any(name.startswith("<janus-render-")
                   for _, name in sources.values())
        second, _, _ = self._train("TreeRNN", steps=0)
        assert executor_mod._CODE_CACHE == sources
        codes = [{id(entry.compiled.executor._rendered.__code__)
                  for _, entry in step.cache.entries()}
                 for step in (first, second)]
        assert codes[0] == codes[1]

    def test_a_raising_kernel_shows_its_rendered_line(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(None,), dtype=R.float32)
            b.mark_outputs([api.reshape(api.tanh(x), (5,))])
        executor = GraphExecutor(b.graph)
        with pytest.raises(ValueError) as info:
            executor.run([np.zeros(6, np.float32)])
        frame, = [frame for frame in traceback.extract_tb(info.tb)
                  if frame.filename.startswith("<janus-render-")]
        line = linecache.getline(frame.filename, frame.lineno)
        assert line.strip() == frame.line
        assert line.strip().startswith("r = k")

    def test_code_cache_eviction_drops_linecache_sources(self, monkeypatch):
        """Regression: evicting the code cache left every generated
        source in linecache forever, so a per-topology regenerating
        workload grew without bound.  A source's lines go once no
        program runs its code."""
        monkeypatch.setattr(executor_mod, "_CODE_CACHE_MAX", 4)
        monkeypatch.setattr(executor_mod, "_CODE_CACHE", {})
        gc.collect()
        baseline = len(_rendered_sources())
        feed = np.linspace(-1.0, 1.0, 4).astype(np.float32)
        for depth in range(2, 14):      # 12 distinct programs
            GraphExecutor(_tanh_chain(depth)).run([feed])
        gc.collect()
        assert len(_rendered_sources()) - baseline <= 4

    def test_a_live_program_keeps_its_lines_after_eviction(
            self, monkeypatch):
        """Evicting the code cache takes no lines from a program that
        still runs: its traceback still shows the line that raised."""
        monkeypatch.setattr(executor_mod, "_CODE_CACHE_MAX", 2)
        monkeypatch.setattr(executor_mod, "_CODE_CACHE", {})
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(None,), dtype=R.float32)
            b.mark_outputs([api.reshape(api.tanh(x), (5,))])
        executor = GraphExecutor(b.graph)
        for depth in range(2, 5):       # 3 other distinct sources
            GraphExecutor(_tanh_chain(depth))
        assert executor._rendered.__code__.co_filename not in {
            name for _, name in executor_mod._CODE_CACHE.values()}
        gc.collect()
        with pytest.raises(ValueError) as info:
            executor.run([np.zeros(6, np.float32)])
        frame, = [frame for frame in traceback.extract_tb(info.tb)
                  if frame.filename.startswith("<janus-render-")]
        line = linecache.getline(frame.filename, frame.lineno)
        assert line.strip().startswith("r = k")
        assert line.strip() == frame.line

    def test_regions_equal_closure_loop(self, monkeypatch):
        """Three nodes to a region: A3C's locals cross region
        boundaries, and each region is its own generated function, yet
        the program still runs what its closures run."""
        step, _, _ = self._train("A3C", steps=0)
        whole = sum(entry.compiled.executor.local_ops
                    for _, entry in step.cache.entries())
        monkeypatch.setattr(executor_mod, "_REGION_OPS", 3)
        step, rendered_out, rendered_vars = self._train("A3C")
        executors = [entry.compiled.executor
                     for _, entry in step.cache.entries()]
        for executor in executors:
            regions = [cell.cell_contents
                       for cell in executor._rendered.__closure__]
            assert len(regions) == -(-len(executor._program) // 3) > 1
            assert all(region.__code__.co_filename.startswith(
                "<janus-render-") for region in regions)
        # A value read in a later region than its own is stored.
        assert 0 < sum(executor.local_ops for executor in executors) \
            < whole

        loops = _closure_loops(monkeypatch)
        _, loop_out, loop_vars = self._train("A3C")
        assert sum(loop.runs for loop in loops) > len(loop_out)
        self._assert_same(rendered_out, loop_out)
        self._assert_same(rendered_vars, loop_vars)

    def test_a_function_executor_stores_every_inline_result(self):
        """A caller's record may copy any slot of a body's register
        file, so a body's rendered program stores every result; a
        top-level program over the same graph keeps its intermediates
        and constants out of the file."""
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(4,), dtype=R.float32)
            y = api.tanh(api.mul(api.add(x, 1.0), 2.0))
            b.mark_outputs([api.reduce_sum(y)])
        body = b.finalize_function("body")
        nested = executor_mod._function_executor(body)
        top = GraphExecutor(body.graph)
        feed = np.arange(4, dtype=np.float32)
        files = [executor._bind([feed]) for executor in (nested, top)]
        for executor, file in zip((nested, top), files):
            executor._rendered(file, executor_mod.RunState())
        assert (nested.local_ops, top.local_ops) == (0, 3)
        assert all(value is not None for value in files[0])
        # add, mul, tanh and the two constants.
        assert sum(value is None for value in files[1]) == 5
        assert files[0][nested._output_slots[0]].tobytes() \
            == files[1][top._output_slots[0]].tobytes()

    def test_level_schedule_equals_in_order_run(self, monkeypatch):
        """A3C's loop record is made in one level and read by its
        ``replay_grad`` in a later one: run level by level, dropping
        each slot after the last level that reads it, every step gives
        the in-order run's bits and dtypes."""
        monkeypatch.setattr(host, "usable_cpus", lambda: 2)
        _, want_out, want_vars = self._train("A3C")

        def leveled(graph, parallel=False):
            executor = GraphExecutor(graph, parallel=True)
            # Level by level on every run, candidate levels or none.
            executor.parallel = True
            return executor
        monkeypatch.setattr(compiled_mod, "GraphExecutor", leveled)
        step, got_out, got_vars = self._train("A3C")
        for _, entry in step.cache.entries():
            assert entry.compiled.executor.parallel
            assert any(entry.compiled.executor._frees)
        self._assert_same(want_out, got_out)
        self._assert_same(want_vars, got_vars)


def _tanh_chain(depth):
    b = GraphBuilder()
    with b:
        x = b.placeholder("x", shape=(4,), dtype=R.float32)
        y = x
        for _ in range(depth):
            y = api.tanh(api.add(y, 0.5))
        b.mark_outputs([api.reduce_sum(y)])
    return b.graph


def _rendered_sources():
    return [name for name in linecache.cache
            if name.startswith("<janus-render-")]


class TestFlatProgram:
    def _graph(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(2, 3), dtype=R.float32)
            w = b.convert(np.ones((3, 3), np.float32) * 0.5)
            h = api.tanh(api.add(api.matmul(x, w), 1.0))
            b.mark_outputs([api.reduce_sum(api.mul(h, h))])
        return b.graph

    def test_while_loop_and_gradient(self):
        """while + replay_grad: the loop's record reaches its gradient."""
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
        assert "instructions" in text and "levels parallel" in text


def strict(**kw):
    kw.setdefault("profile_runs", 1)
    return janus.JanusConfig(fail_on_not_convertible=True,
                             parallel_execution=False, **kw)


class TestEndToEnd:
    """Through ``janus.function``: the executor checks no feed; a
    tensor argument's dtype and shape are checked once, by the
    cache-retrieval prechecks."""

    def test_one_precheck_per_tensor_placeholder(self):
        @janus.function(config=strict())
        def f(x, pair):
            return R.reduce_sum(x * pair[0]) + R.reduce_sum(pair[1])

        rng = np.random.default_rng(0)

        def vec(n):
            return R.constant(rng.normal(size=(n,)).astype(np.float32))

        for _ in range(4):
            f(vec(3), [vec(3), vec(2)])
        assert f.stats["graph_runs"] > 0
        (_sig, entry), = f.cache.entries()
        assert assert_arguments_prechecked(entry) == 3

    def test_nested_bodies_keep_every_store(self):
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
        # Every nested body that ran keeps each result in its file.
        stack = [e.compiled.graph for _, e in f.cache.entries()]
        nested = []
        while stack:
            for node in stack.pop().nodes:
                for func in node._nested_functions():
                    if func is not None and func.graph is not None:
                        nested.append(func.graph)
                        stack.append(func.graph)
        executors = [graph._executor_cache["nested"] for graph in nested
                     if "nested" in graph._executor_cache]
        assert len(executors) == 2
        assert all(executor.local_ops == 0 for executor in executors)

    def test_health_reports_ops_in_locals(self):
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
            (_sig, entry), = health_probe.cache.entries()
            assert entry.compiled.fused_ops == 2     # mul, add
            assert "2 ops in locals" in repr(entry.compiled)
            health = HEALTH.function("health_probe")
            assert health.graphs_generated >= 1
            assert health.fused_ops >= 2
        finally:
            obs.set_metrics_enabled(previous)
