"""Elementwise math ops: kernels, dtype rules, shape inference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro as R
from repro.ops import api, get_op
from repro.tensor.shape import Shape

floats = hnp.arrays(np.float32, hnp.array_shapes(max_dims=3, max_side=4),
                    elements=st.floats(-10, 10, width=32))


def run(name, *arrays, **attrs):
    op = get_op(name)
    return op.kernel(attrs, *[np.asarray(a) for a in arrays])


class TestArithmeticKernels:
    @given(floats)
    @settings(max_examples=25, deadline=None)
    def test_add_matches_numpy(self, a):
        np.testing.assert_array_equal(run("add", a, a), a + a)

    @given(floats)
    @settings(max_examples=25, deadline=None)
    def test_neg_double_is_identity(self, a):
        np.testing.assert_array_equal(run("neg", run("neg", a)), a)

    def test_div_of_ints_is_float32(self):
        out = run("div", np.array([3], np.int64), np.array([2], np.int64))
        assert out.dtype == np.float32
        assert out[0] == pytest.approx(1.5)

    def test_floordiv(self):
        np.testing.assert_array_equal(
            run("floordiv", np.array([7]), np.array([2])), [3])

    def test_pow(self):
        np.testing.assert_allclose(
            run("pow", np.array([2.0], np.float32),
                np.array([3.0], np.float32)), [8.0])

    def test_where(self):
        out = run("where", np.array([True, False]),
                  np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_clip(self):
        out = run("clip", np.array([-5.0, 0.5, 5.0]), min=0.0, max=1.0)
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])


class TestActivations:
    def test_sigmoid_range_and_extremes(self):
        x = np.array([-100.0, 0.0, 100.0], np.float32)
        out = run("sigmoid", x)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-6)
        assert not np.isnan(out).any()

    def test_sigmoid_numpy_fallback_matches_expit(self, monkeypatch):
        """Without scipy (the optional ``fast`` extra) the op runs the
        piecewise numpy kernel: same dtype and shape, same values to
        float32 rounding, no overflow at the extremes."""
        expit = pytest.importorskip("scipy.special").expit
        from repro.ops import math_ops
        rng = np.random.default_rng(0)
        for x in (np.array([-1e4, -100.0, -20.0, -1.0, -0.0, 0.0, 1e-8,
                            1.0, 20.0, 100.0, 1e4], np.float32),
                  rng.normal(scale=8.0, size=(5, 7)).astype(np.float32),
                  np.array(0.25, np.float32),
                  np.zeros((0, 3), np.float32)):
            fast = run("sigmoid", x)
            with monkeypatch.context() as patch, np.errstate(over="raise"):
                patch.setattr(math_ops, "_expit", False)
                slow = run("sigmoid", x)
            assert slow.dtype == fast.dtype == np.float32
            assert slow.shape == fast.shape == x.shape
            np.testing.assert_allclose(slow, fast, rtol=1e-6, atol=1e-30)
            np.testing.assert_allclose(fast, expit(x), rtol=0, atol=0)
            assert ((slow >= 0) & (slow <= 1)).all()

    def test_sigmoid_resolves_scipy_on_first_call_only(self, monkeypatch):
        import builtins
        from repro.ops import math_ops
        monkeypatch.setattr(math_ops, "_expit", None)
        real_import = builtins.__import__

        def no_scipy(name, *args, **kwargs):
            if name.startswith("scipy"):
                raise ImportError(name)
            return real_import(name, *args, **kwargs)
        monkeypatch.setattr(builtins, "__import__", no_scipy)
        out = run("sigmoid", np.array([-100.0, 0.0, 100.0], np.float32))
        assert math_ops._expit is False
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-6)

    def test_import_repro_does_not_import_scipy(self):
        import os
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        code = ("import sys, repro, repro.serving; "
                "assert not any(m.split('.')[0] == 'scipy' "
                "for m in sys.modules), 'scipy imported'")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       timeout=60)

    def test_relu(self):
        np.testing.assert_array_equal(
            run("relu", np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_leaky_relu(self):
        out = run("leaky_relu", np.array([-1.0, 2.0], np.float32),
                  alpha=0.1)
        np.testing.assert_allclose(out, [-0.1, 2.0], atol=1e-6)

    @given(floats)
    @settings(max_examples=25, deadline=None)
    def test_tanh_bounded(self, a):
        out = run("tanh", a)
        assert np.all(np.abs(out) <= 1.0)


class TestComparisons:
    def test_bool_dtype(self):
        out = run("less", np.array([1.0]), np.array([2.0]))
        assert out.dtype == np.bool_

    def test_logical_ops(self):
        t, f = np.array([True]), np.array([False])
        assert run("logical_and", t, f)[0] == False  # noqa: E712
        assert run("logical_or", t, f)[0] == True  # noqa: E712
        assert run("logical_not", f)[0] == True  # noqa: E712


class TestShapeInference:
    def _infer(self, name, shapes, dtypes=None, **attrs):
        op = get_op(name)
        dtypes = dtypes or [R.float32] * len(shapes)
        return op.shape_fn(attrs, [Shape.of(s) for s in shapes], dtypes)

    def test_broadcast_shape(self):
        (shape, dtype), = self._infer("add", [(2, 1), (1, 3)])
        assert shape == Shape((2, 3))

    def test_partial_broadcast(self):
        (shape, _), = self._infer("mul", [(None, 3), (3,)])
        assert shape == Shape((None, 3))

    def test_comparison_dtype(self):
        (_, dtype), = self._infer("equal", [(2,), (2,)])
        assert dtype is R.bool_

    def test_cast_dtype(self):
        (_, dtype), = self._infer("cast", [(2,)], dtype="int64")
        assert dtype is R.int64


class TestBroadcastGradKernel:
    def test_scalar_stays_scalar(self):
        out = run("broadcast_grad", np.float32(1.0), np.float32(0.0))
        assert out.shape == ()

    def test_sums_broadcast_axes(self):
        grad = np.ones((4, 3), np.float32)
        ref = np.zeros((3,), np.float32)
        out = run("broadcast_grad", grad, ref)
        np.testing.assert_array_equal(out, [4.0, 4.0, 4.0])

    def test_keepdim_axes(self):
        grad = np.ones((4, 3), np.float32)
        ref = np.zeros((4, 1), np.float32)
        out = run("broadcast_grad", grad, ref)
        np.testing.assert_array_equal(out, [[3.0]] * 4)
