"""Array manipulation ops: kernels and static shape inference."""

import numpy as np
import pytest

import repro as R
from repro.ops import get_op
from repro.ops.array_ops import encode_index, decode_index_spec
from repro.tensor.shape import Shape


def run(name, *arrays, **attrs):
    op = get_op(name)
    return op.kernel(attrs, *[np.asarray(a) for a in arrays])


class TestReshapeTranspose:
    def test_reshape(self):
        out = run("reshape", np.arange(6), shape=(2, 3))
        assert out.shape == (2, 3)

    def test_reshape_minus_one(self):
        out = run("reshape", np.arange(6), shape=(2, -1))
        assert out.shape == (2, 3)

    def test_reshape_like(self):
        out = run("reshape_like", np.arange(6), np.zeros((3, 2)))
        assert out.shape == (3, 2)

    def test_transpose_default(self):
        out = run("transpose", np.zeros((2, 3)), perm=None)
        assert out.shape == (3, 2)

    def test_transpose_perm(self):
        out = run("transpose", np.zeros((2, 3, 4)), perm=(2, 0, 1))
        assert out.shape == (4, 2, 3)


class TestConcatSplitStack:
    def test_concat(self):
        out = run("concat", np.ones((2, 1)), np.zeros((2, 2)), axis=1)
        assert out.shape == (2, 3)

    def test_split_roundtrip(self):
        x = np.arange(12).reshape(3, 4)
        parts = run("split", x, num=2, axis=1)
        assert len(parts) == 2
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), x)

    def test_stack_unstack_roundtrip(self):
        xs = [np.full((2,), i) for i in range(3)]
        stacked = run("stack", *xs, axis=0)
        assert stacked.shape == (3, 2)
        parts = run("unstack", stacked, num=3, axis=0)
        for orig, part in zip(xs, parts):
            np.testing.assert_array_equal(orig, part)


class TestIndexSpec:
    def test_roundtrip_ints_and_slices(self):
        spec = encode_index((1, slice(None, 2), Ellipsis, None))
        idx = decode_index_spec(spec)
        assert idx == (1, slice(None, 2, None), Ellipsis, None)

    def test_spec_is_hashable(self):
        hash(encode_index((slice(1, 5, 2), 3)))

    def test_getitem_matches_numpy(self):
        x = np.arange(24).reshape(2, 3, 4)
        for index in (0, (1, 2), (slice(None), 1), (Ellipsis, 0),
                      (0, slice(1, 3))):
            out = run("getitem", x, spec=encode_index(index))
            np.testing.assert_array_equal(out, x[index])

    def test_getitem_grad_scatters(self):
        x = np.zeros((3, 4))
        grad = np.ones((4,))
        out = run("getitem_grad", grad, x, spec=encode_index(1))
        assert out[1].sum() == 4 and out.sum() == 4


class TestGather:
    def test_gather(self):
        params = np.arange(10) * 10
        out = run("gather", params, np.array([3, 3, 7]), axis=0)
        np.testing.assert_array_equal(out, [30, 30, 70])

    def test_gather_grad_accumulates_duplicates(self):
        params = np.zeros((5, 2))
        idx = np.array([1, 1, 4])
        grad = np.ones((3, 2))
        out = run("gather_grad", grad, idx, params, axis=0)
        np.testing.assert_array_equal(out[1], [2.0, 2.0])
        np.testing.assert_array_equal(out[4], [1.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index_shape", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("ref_rank", [1, 2, 3])
    def test_axis0_gather_grad_matches_general_path(
            self, dtype, index_shape, ref_rank):
        """The axis-0 kernel scatters without moving or flattening; it
        sums duplicates in the general path's order, bit for bit."""
        from repro.ops.array_ops import _scatter_add
        rng = np.random.default_rng(len(index_shape) * 10 + ref_rank)
        ref = np.zeros((4, 3, 2)[:ref_rank], dtype)
        indices = rng.integers(0, 3, size=index_shape)   # duplicates
        grad = rng.standard_normal(
            index_shape + ref.shape[1:]).astype(dtype)
        want = np.zeros_like(ref, dtype=grad.dtype)
        _scatter_add(want, 0, indices, grad)
        got = run("gather_grad", grad, indices, ref, axis=0)
        assert got.dtype == want.dtype == dtype
        assert got.shape == ref.shape
        assert got.tobytes() == want.tobytes()


class TestConstruction:
    def test_fill(self):
        out = run("fill", shape=(2, 2), value=7, dtype="int32")
        assert out.dtype == np.int32 and out[0, 0] == 7

    def test_one_hot(self):
        out = run("one_hot", np.array([0, 2]), depth=3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_out_of_range_is_zero_row(self):
        out = run("one_hot", np.array([-1, 5]), depth=3)
        assert out.sum() == 0

    def test_range(self):
        np.testing.assert_array_equal(
            run("range", start=2, stop=8, step=2), [2, 4, 6])

    def test_shape_of(self):
        np.testing.assert_array_equal(
            run("shape_of", np.zeros((4, 5))), [4, 5])


class TestPadTile:
    def test_pad(self):
        out = run("pad", np.ones((2, 2)), paddings=((1, 0), (0, 2)))
        assert out.shape == (3, 4)
        assert out[0].sum() == 0

    def test_pad_grad_slices_back(self):
        grad = np.ones((3, 4))
        out = run("pad_grad", grad, paddings=((1, 0), (0, 2)))
        assert out.shape == (2, 2)

    def test_tile(self):
        out = run("tile", np.array([[1, 2]]), multiples=(2, 3))
        assert out.shape == (2, 6)


class TestShapeFns:
    def _infer(self, name, shapes, **attrs):
        op = get_op(name)
        return op.shape_fn(attrs, [Shape.of(s) for s in shapes],
                           [R.float32] * len(shapes))

    def test_concat_partial(self):
        (shape, _), = self._infer("concat", [(None, 2), (3, 2)], axis=0)
        assert shape == Shape((None, 2))

    def test_concat_sums_axis(self):
        (shape, _), = self._infer("concat", [(1, 2), (3, 2)], axis=0)
        assert shape == Shape((4, 2))

    def test_stack_inserts_dim(self):
        (shape, _), = self._infer("stack", [(2,), (2,)], axis=0)
        assert shape == Shape((2, 2))

    def test_expand_squeeze(self):
        (shape, _), = self._infer("expand_dims", [(2, 3)], axis=1)
        assert shape == Shape((2, 1, 3))
        (shape, _), = self._infer("squeeze", [(2, 1, 3)], axis=1)
        assert shape == Shape((2, 3))

    def test_gather_shape(self):
        (shape, _), = self._infer("gather", [(10, 4), (3,)], axis=0)
        assert shape == Shape((3, 4))
