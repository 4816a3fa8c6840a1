"""Symbolic autodiff: static graphs, cond, while, and recursive invoke."""

import numpy as np
import pytest

import repro as R
from repro.graph import GraphBuilder, GraphExecutor, autodiff
from repro.graph.core import GraphFunction
from repro.ops import api


def build_and_run(build_fn, feeds=()):
    b = GraphBuilder()
    with b:
        outputs = build_fn(b)
        b.mark_outputs(list(outputs))
    return GraphExecutor(b.graph).run(list(feeds))


class TestStaticGradients:
    @pytest.mark.parametrize("rows", [2, None], ids=["static", "dynamic"])
    def test_broadcast_grad_only_where_it_reduces(self, rows):
        """``(x + y) + z`` with ``z`` broadcast: only ``z``'s gradient is
        reduced when the static shapes are fully known and equal (so no
        node reads ``x``, ``y`` or ``x + y`` for its shape); with an
        unknown dimension every operand's gradient goes through
        ``broadcast_grad``."""
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(rows, 3), dtype=R.float32)
            y = b.placeholder("y", shape=(rows, 3), dtype=R.float32)
            z = b.placeholder("z", shape=(3,), dtype=R.float32)
            out = api.reduce_sum(api.add(api.add(x, y), z))
            b.mark_outputs(autodiff.gradients(b, [out], [x, y, z]))
        reduces = [n for n in b.graph.nodes if n.op_name == "broadcast_grad"]
        assert len(reduces) == (1 if rows else 4)
        ones = np.ones((2, 3), np.float32)
        gx, gy, gz = GraphExecutor(b.graph).run([ones, ones, ones[0]])
        assert gx.tolist() == gy.tolist() == ones.tolist()
        assert gz.tolist() == [2.0, 2.0, 2.0]

    def test_matches_tape(self):
        w = R.Variable(np.array([[1.5]], np.float32))
        x = np.random.randn(5, 1).astype(np.float32)
        y = 2.0 * x

        def build(b):
            xp = b.placeholder("x", shape=(5, 1), dtype=R.float32)
            yp = b.placeholder("y", shape=(5, 1), dtype=R.float32)
            pred = api.matmul(xp, b.read_variable(w))
            loss = api.reduce_mean(api.square(api.sub(pred, yp)))
            grads = autodiff.add_training_gradients(b, loss)
            return [loss, grads[w]]

        loss_g, grad_g = build_and_run(build, [x, y])

        with R.GradientTape() as tape:
            loss_e = R.reduce_mean(R.square(
                R.matmul(R.constant(x), w.value()) - R.constant(y)))
        grad_e = tape.gradient(loss_e, w)
        assert loss_g == pytest.approx(float(loss_e.numpy()), rel=1e-5)
        np.testing.assert_allclose(grad_g, grad_e.numpy(), rtol=1e-5)

    def test_gradient_through_multiple_reads(self):
        v = R.Variable(np.float32(3.0))

        def build(b):
            x = api.mul(b.read_variable(v), b.read_variable(v))
            grads = autodiff.add_training_gradients(b, x)
            return [grads[v]]

        grad, = build_and_run(build)
        assert grad == pytest.approx(6.0)

    def test_gradients_for_outputs_wrt_placeholders(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(3,), dtype=R.float32)
            y = api.reduce_sum(api.square(x))
            gx, = autodiff.gradients(b, [y], [x])
            b.mark_outputs([gx])
        out, = GraphExecutor(b.graph).run(
            [np.array([1.0, 2.0, 3.0], np.float32)])
        np.testing.assert_allclose(out, [2.0, 4.0, 6.0])

    def test_stop_gradient_in_graph(self):
        v = R.Variable(np.float32(2.0))

        def build(b):
            x = b.read_variable(v)
            y = api.add(api.mul(x, 3.0),
                        api.mul(api.stop_gradient(x), 100.0))
            grads = autodiff.add_training_gradients(b, y)
            return [grads[v]]

        grad, = build_and_run(build)
        assert grad == pytest.approx(3.0)


class TestCondGradients:
    def _branch(self, fn, name, var=None):
        b = GraphBuilder(name=name)
        with b:
            x = b.placeholder("x", shape=(), dtype=R.float32)
            b.mark_outputs([fn(b, x)])
        return b.finalize_function(name)

    def test_gradient_follows_taken_branch(self):
        t = self._branch(lambda b, x: api.mul(x, 5.0), "t")
        f = self._branch(lambda b, x: api.mul(x, -2.0), "f")

        def make(pred_value):
            b = GraphBuilder()
            with b:
                x = b.placeholder("x", shape=(), dtype=R.float32)
                out = b.cond(b.convert(pred_value), t, f, [x],
                             [(R.Shape(()), R.float32)])
                gx, = autodiff.gradients(b, [out], [x])
                b.mark_outputs([gx])
            return GraphExecutor(b.graph).run([np.float32(1.0)])[0]

        assert make(True) == pytest.approx(5.0)
        assert make(False) == pytest.approx(-2.0)

    def test_variable_in_one_branch_gets_zero_from_other(self):
        v = R.Variable(np.float32(2.0))
        t = self._branch(lambda b, x: api.mul(x, b.read_variable(v)), "t")
        f = self._branch(lambda b, x: api.neg(x), "f")

        def run(pred_value):
            b = GraphBuilder()
            with b:
                x = b.placeholder("x", shape=(), dtype=R.float32)
                out = b.cond(b.convert(pred_value), t, f, [x],
                             [(R.Shape(()), R.float32)])
                grads = autodiff.add_training_gradients(b, out)
                b.mark_outputs([grads[v]])
            return GraphExecutor(b.graph).run([np.float32(4.0)])[0]

        assert run(True) == pytest.approx(4.0)
        assert run(False) == pytest.approx(0.0)


class TestWhileGradients:
    def _loop_funcs(self, var):
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
                             api.mul(acc, bb.read_variable(var))])
        body = bb.finalize_function("body")
        return cond, body

    def test_power_rule_through_loop(self):
        """acc = w^3 after 3 iterations; d/dw = 3 w^2."""
        w = R.Variable(np.float32(2.0))
        cond, body = self._loop_funcs(w)
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

    def test_loop_var_initial_gradient(self):
        w = R.Variable(np.float32(2.0))
        cond, body = self._loop_funcs(w)
        b = GraphBuilder()
        with b:
            x0 = b.placeholder("x0", shape=(), dtype=R.float32)
            outs = b.while_loop(cond, body,
                                [b.convert(np.int64(0)), x0])
            gx, = autodiff.gradients(b, [outs[1]], [x0])
            b.mark_outputs([gx])
        grad, = GraphExecutor(b.graph).run([np.float32(5.0)])
        assert grad == pytest.approx(8.0)  # d(w^3 * x0)/dx0 = 8


class TestInvokeGradients:
    def test_recursive_gradient(self):
        """f(n) = w*n + f(n-1), f(0) = 0 -> df/dw = sum(1..n)."""
        w = R.Variable(np.float32(3.0))
        func = GraphFunction("sumrec")
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
                inner = rec.invoke(func, [api.sub(m, 1.0)],
                                   [(R.Shape(()), R.float32)])
                rec.mark_outputs([
                    api.add(api.mul(rec.read_variable(w), m), inner)])
            rec_f = rec.finalize_function("rec")
            out = gb.cond(api.less_equal(n, 0.0), base_f, rec_f, [n],
                          [(R.Shape(()), R.float32)])
            gb.mark_outputs([out])
        func.finalize(gb.graph)

        b = GraphBuilder()
        with b:
            n = b.placeholder("n", shape=(), dtype=R.float32)
            out = b.invoke(func, [n], [(R.Shape(()), R.float32)])
            grads = autodiff.add_training_gradients(b, out)
            b.mark_outputs([out, grads[w]])
        ex = GraphExecutor(b.graph)
        val, grad = ex.run([np.float32(4.0)])
        assert val == pytest.approx(3.0 * (4 + 3 + 2 + 1))
        assert np.asarray(grad).reshape(()) == pytest.approx(10.0)

    def test_gradient_function_cached(self):
        func = GraphFunction("f")
        gb = GraphBuilder()
        with gb:
            x = gb.placeholder("x", shape=(), dtype=R.float32)
            gb.mark_outputs([api.square(x)])
        func.finalize(gb.graph)
        g1 = autodiff.grad_function(func)
        g2 = autodiff.grad_function(func)
        assert g1 is g2
