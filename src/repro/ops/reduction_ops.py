"""Reduction op kernels (sum, mean, max, min, prod, argmax, argmin)."""

from functools import partial

import numpy as np

from ..tensor import dtype as dtypes
from ..tensor.shape import Shape
from .registry import register_op


def _normalize_axes(axis, rank):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % rank if rank is not None and a < 0 else a for a in axis)


def _reduced_shape(shape, axis, keepdims):
    shape = Shape.of(shape)
    if shape.dims is None:
        return Shape.unknown()
    rank = len(shape.dims)
    axes = _normalize_axes(axis, rank)
    if axes is None:
        axes = tuple(range(rank))
    dims = []
    for i, d in enumerate(shape.dims):
        if i in axes:
            if keepdims:
                dims.append(1)
        else:
            dims.append(d)
    return Shape(dims)


def _reduce_args(attrs):
    axis = attrs.get("axis")
    if isinstance(axis, list):
        axis = tuple(axis)
    return axis, attrs.get("keepdims", False)


def _make_reduce(name, bind, dtype_fn=None):
    def shape_fn(attrs, in_shapes, in_dtypes):
        out_shape = _reduced_shape(in_shapes[0], attrs.get("axis"),
                                   attrs.get("keepdims", False))
        out_dtype = in_dtypes[0] if dtype_fn is None else dtype_fn(in_dtypes)
        return [(out_shape, out_dtype)]

    return register_op(name, bind=bind, shape_fn=shape_fn)


def _ufunc_reduce(ufunc):
    """The bind of a reduction ``np.sum``/``max``/``min``/``prod`` makes:
    for an ndarray each of them is its ufunc's ``reduce``.  A whole
    reduction gives a numpy scalar, which every caller makes a 0-d
    array."""
    reduce = ufunc.reduce

    def bind(attrs):
        axis, keepdims = _reduce_args(attrs)

        def reduced(a):
            return reduce(a, axis, None, None, keepdims)
        return reduced
    return bind


def _mean_dtype(in_dtypes):
    dt = in_dtypes[0]
    return dt if dt.is_floating else dtypes.default_float


def _np_mean(a, axis=None, keepdims=False):
    """``np.mean`` less its wrapper, then the input's float dtype (int
    and bool input give float32) without ``astype``'s copy when the mean
    already has it."""
    out = a.mean(axis, None, None, keepdims)
    return np.asarray(out.astype(
        np.float32 if a.dtype.kind in "ib" else a.dtype, copy=False))


def _bind_mean(attrs):
    axis, keepdims = _reduce_args(attrs)
    return partial(_np_mean, axis=axis, keepdims=keepdims)


REDUCE_SUM = _make_reduce("reduce_sum", _ufunc_reduce(np.add))
REDUCE_MEAN = _make_reduce("reduce_mean", _bind_mean, dtype_fn=_mean_dtype)
REDUCE_MAX = _make_reduce("reduce_max", _ufunc_reduce(np.maximum))
REDUCE_MIN = _make_reduce("reduce_min", _ufunc_reduce(np.minimum))
REDUCE_PROD = _make_reduce("reduce_prod", _ufunc_reduce(np.multiply))


def _arg_shape_fn(attrs, in_shapes, in_dtypes):
    shape = Shape.of(in_shapes[0])
    if shape.dims is None:
        return [(Shape.unknown(), dtypes.int64)]
    axis = attrs.get("axis", 0)
    rank = len(shape.dims)
    axis = axis % rank if axis < 0 else axis
    dims = [d for i, d in enumerate(shape.dims) if i != axis]
    return [(Shape(dims), dtypes.int64)]


ARGMAX = register_op(
    "argmax",
    kernel=lambda attrs, a: np.argmax(a, axis=attrs.get("axis", 0)),
    shape_fn=_arg_shape_fn)

ARGMIN = register_op(
    "argmin",
    kernel=lambda attrs, a: np.argmin(a, axis=attrs.get("axis", 0)),
    shape_fn=_arg_shape_fn)
