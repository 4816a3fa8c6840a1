"""Bound op forms against the numpy expressions they replace.

An op's ``bind(attrs)`` is what every compiled program calls.  For each
op registered with a ``bind`` body, the bound callable must give what the
numpy expression of its former kernel gave — kept here as the reference —
in dtype, shape, bytes and memory layout, and must be a view of an input
exactly where that expression is.  Inputs cover negative axes,
``keepdims``, 0-d arrays and C-ordered, F-ordered and strided layouts.
"""

import linecache
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro as R
from repro.errors import GraphError
from repro.graph import GraphBuilder
from repro.graph import executor as executor_mod
from repro.ops import all_ops, api, get_op
from repro.ops.array_ops import decode_index_spec, encode_index
from repro.ops.registry import OpDef, _call_bound
from repro.tensor import dtype as dtypes

DTYPES = [np.float32, np.float64, np.int32, np.int64, np.bool_]


@st.composite
def arrays(draw, dtypes=DTYPES, min_dims=0, max_dims=4, min_side=0):
    """An array of one of ``dtypes``, C-ordered, F-ordered or a strided
    view."""
    dtype = draw(st.sampled_from(dtypes))
    shape = draw(hnp.array_shapes(min_dims=min_dims, max_dims=max_dims,
                                  min_side=min_side, max_side=4))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided" and shape:
        shape = (shape[0] * 2,) + shape[1:]
    elements = st.floats(-8, 8, width=32) if dtype in (
        np.float32, np.float64) else None
    base = draw(hnp.arrays(dtype, shape, elements=elements))
    if layout == "F":
        return np.asfortranarray(base)
    if layout == "strided" and shape:
        return base[::2]
    return base


def assert_same(got, want, inputs):
    """``got`` is ``want`` as the executors see it (every caller makes a
    result an ndarray): dtype, shape, bytes, layout, and aliasing."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    if got.size:
        assert [s for s, n in zip(got.strides, got.shape) if n > 1] \
            == [s for s, n in zip(want.strides, want.shape) if n > 1]
    for a in inputs:
        assert np.shares_memory(got, a) == np.shares_memory(want, a)


def check(name, reference, *inputs, **attrs):
    """``get_op(name).bind(attrs)(*inputs)`` against ``reference``, and
    the derived eager kernel against both; where ``reference`` raises,
    the bound form raises the same."""
    op = get_op(name)
    try:
        want = reference(*inputs)
    except Exception as exc:
        with pytest.raises(type(exc)):
            op.bind(attrs)(*inputs)
        return
    got = op.bind(attrs)(*inputs)
    eager = op.kernel(attrs, *inputs)
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, e, w in zip(got, eager, want):
            assert_same(g, w, inputs)
            assert_same(e, w, inputs)
    else:
        assert_same(got, want, inputs)
        assert_same(eager, want, inputs)


def axes_of(a, extra=0):
    return st.integers(-a.ndim - extra, a.ndim - 1 + extra)


class TestStructure:
    def test_every_op_has_one_body(self):
        """Of ``kernel`` and ``bind`` exactly one is the op's own; the
        other is derived from it."""
        for name, op in all_ops().items():
            derived_kernel = isinstance(op.kernel, partial) \
                and op.kernel.func is _call_bound
            derived_bind = isinstance(op.bind, partial) \
                and op.bind.func is partial
            assert derived_kernel != derived_bind, name

    def test_there_is_no_direct_form(self):
        assert "direct" not in OpDef.__slots__

    def test_registering_both_bodies_or_neither_fails(self):
        with pytest.raises(GraphError, match="exactly one"):
            OpDef("x", lambda attrs, a: a, None, bind=lambda attrs: abs)
        with pytest.raises(GraphError, match="exactly one"):
            OpDef("x", None, None)

    def test_a_kernel_op_binds_its_attrs_once(self):
        calls = []

        def kernel(attrs, a):
            calls.append(attrs)
            return a + attrs["k"]

        op = OpDef("x", kernel, None)
        bound = op.bind({"k": 2})
        assert bound(1) == 3 and bound(2) == 4
        assert calls == [{"k": 2}] * 2

    def test_rendered_op_lines_carry_no_attrs(self):
        b = GraphBuilder()
        with b:
            x = b.placeholder("x", shape=(2, 3), dtype=R.float32)
            y = api.reduce_sum(api.expand_dims(api.tanh(x), -1), axis=1)
            b.mark_outputs([api.reshape(y, (-1,))])
        ex = executor_mod.GraphExecutor(b.graph)
        code = ex._rendered.__code__
        source = "".join(linecache.getlines(code.co_filename))
        op_lines = [line.strip() for line in source.splitlines()
                    if line.strip().startswith("r = ")]
        assert len(op_lines) == 4
        assert all(line.startswith("r = k") for line in op_lines)
        header = source.splitlines()[0]
        assert ", a" not in header
        out, = ex.run([np.ones((2, 3), np.float32)])
        np.testing.assert_array_equal(
            out, np.full((2,), 3 * np.tanh(np.float32(1))))


class TestArrayOps:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reshape(self, data):
        a = data.draw(arrays())
        shape = data.draw(st.sampled_from(
            [(-1,), (a.size,), a.shape[::-1], (1, -1), a.shape + (1,)]))
        check("reshape", lambda a: np.reshape(a, shape), a, shape=shape)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reshape_like(self, data):
        a = data.draw(arrays())
        ref = np.empty(a.shape[::-1], np.int8)
        check("reshape_like", lambda a, r: np.reshape(a, r.shape), a, ref)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_transpose(self, data):
        a = data.draw(arrays())
        perm = data.draw(st.none() | st.permutations(range(a.ndim)).map(
            tuple))
        check("transpose", lambda a: np.transpose(a, perm), a, perm=perm)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_expand_dims(self, data):
        a = data.draw(arrays())
        axis = data.draw(axes_of(a, extra=1))
        check("expand_dims", lambda a: np.expand_dims(a, axis), a,
              axis=axis)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_squeeze(self, data):
        a = data.draw(arrays())
        ones = [k for k, n in enumerate(a.shape) if n == 1]
        axis = data.draw(st.none() | st.sampled_from(
            ones + [k - a.ndim for k in ones] or [None]))
        check("squeeze", lambda a: np.squeeze(a, axis=axis), a, axis=axis)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_concat(self, data):
        a = data.draw(arrays(min_dims=1))
        axis = data.draw(axes_of(a))
        check("concat", lambda *xs: np.concatenate(xs, axis=axis), a,
              np.ascontiguousarray(a[::-1]), a, axis=axis)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_split(self, data):
        a = data.draw(arrays(min_dims=1))
        num = data.draw(st.integers(0, 5))
        axis = data.draw(axes_of(a))
        check("split",
              lambda a: tuple(np.array_split(a, num, axis=axis)), a,
              num=num, axis=axis)

    def test_split_reuses_its_slices_per_length(self):
        split = get_op("split").bind({"num": 3, "axis": -1})
        for n in (7, 7, 2, 7):
            a = np.arange(2 * n).reshape(2, n)
            got = split(a)
            for g, w in zip(got, np.array_split(a, 3, axis=-1)):
                assert_same(g, w, [a])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_getitem(self, data):
        a = data.draw(arrays(min_side=1))
        items = []
        dims = list(a.shape)
        for n in dims[:data.draw(st.integers(0, a.ndim))]:
            kind = data.draw(st.sampled_from(["int", "slice", "newaxis"]))
            if kind == "int":
                items.append(data.draw(st.integers(-n, n - 1)))
            elif kind == "slice":
                items.append(slice(*data.draw(st.tuples(
                    st.none() | st.integers(-n, n),
                    st.none() | st.integers(-n, n),
                    st.none() | st.sampled_from([-2, -1, 1, 2])))))
            else:
                items.append(None)
        if data.draw(st.booleans()):
            items.insert(data.draw(st.integers(0, len(items))), Ellipsis)
        spec = encode_index(tuple(items))
        check("getitem", lambda a: a[decode_index_spec(spec)], a,
              spec=spec)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_gather(self, data):
        params = data.draw(arrays(min_dims=1, min_side=1))
        axis = data.draw(axes_of(params))
        n = params.shape[axis]
        indices = data.draw(hnp.arrays(
            np.int64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3),
            elements=st.integers(-n, n - 1)))
        check("gather", lambda p, i: np.take(p, i, axis=axis), params,
              indices, axis=axis)

    @given(arrays())
    @settings(max_examples=60, deadline=None)
    def test_zeros_and_ones_like(self, a):
        check("zeros_like", np.zeros_like, a)
        check("ones_like", np.ones_like, a)

    @given(arrays())
    @settings(max_examples=30, deadline=None)
    def test_identity(self, a):
        check("identity", lambda a: a, a)
        check("stop_gradient", lambda a: a, a)


class TestMathOps:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cast(self, data):
        a = data.draw(arrays())
        name = data.draw(st.sampled_from(
            ["float32", "float64", "int32", "int64", "bool"]))
        check("cast",
              lambda a: a.astype(dtypes.DType.of(name).np_dtype), a,
              dtype=name)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_clip(self, data):
        a = data.draw(arrays(dtypes=DTYPES[:4]))
        if a.dtype.kind == "f" or data.draw(st.booleans()):
            lo = data.draw(st.floats(-8, 0, width=32))
            hi = data.draw(st.floats(0, 8, width=32))
        else:
            info = np.iinfo(a.dtype)
            lo = data.draw(st.sampled_from([-3, int(info.min), -2 ** 40]))
            hi = data.draw(st.sampled_from([3, int(info.max), 2 ** 40]))
        check("clip", lambda a: np.clip(a, lo, hi), a, min=lo, max=hi)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_where(self, data):
        a = data.draw(arrays(dtypes=[np.float32]))
        c = a > 0
        check("where", np.where, c, a, a[::-1] if a.ndim else a)

    @given(arrays(dtypes=[np.float32, np.float64]))
    @settings(max_examples=30, deadline=None)
    def test_elementwise(self, a):
        check("add", np.add, a, a)
        check("tanh", np.tanh, a)


def _old_reduce(np_fn):
    """The reduction kernel before binding: the numpy function, then a
    0-d array of the result's dtype."""
    def reference(axis, keepdims, a):
        out = np_fn(a, axis=axis, keepdims=keepdims)
        return np.asarray(out, dtype=out.dtype if hasattr(out, "dtype")
                          else a.dtype)
    return reference


def _old_mean(axis, keepdims, a):
    out = np.mean(a, axis=axis, keepdims=keepdims)
    if a.dtype.kind in "ib":
        out = out.astype(np.float32)
    else:
        out = out.astype(a.dtype)
    return np.asarray(out, dtype=out.dtype)


class TestReductions:
    @pytest.mark.parametrize("name, reference", [
        ("reduce_sum", _old_reduce(np.sum)),
        ("reduce_max", _old_reduce(np.max)),
        ("reduce_min", _old_reduce(np.min)),
        ("reduce_prod", _old_reduce(np.prod)),
        ("reduce_mean", _old_mean),
    ])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_reduction(self, name, reference, data):
        a = data.draw(arrays(dtypes=[np.float32, np.float64, np.int32,
                                     np.int64, np.bool_, np.float16]))
        axis = None
        if a.ndim:
            axis = data.draw(st.none() | axes_of(a) | st.lists(
                axes_of(a), min_size=1, max_size=a.ndim,
                unique_by=lambda k: k % a.ndim))
        keepdims = data.draw(st.booleans())
        attrs = {"keepdims": keepdims}
        if axis is not None:
            attrs["axis"] = axis
        axis_arg = tuple(axis) if isinstance(axis, list) else axis
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            check(name, partial(reference, axis_arg, keepdims), a, **attrs)

    def test_mean_of_an_empty_slice_warns_as_numpy_does(self):
        a = np.zeros((3, 0), np.float32)
        with pytest.warns(RuntimeWarning, match="Mean of empty slice"), \
                np.errstate(invalid="ignore"):
            out = get_op("reduce_mean").bind({"axis": 1})(a)
        assert out.dtype == np.float32 and np.isnan(out).all()
