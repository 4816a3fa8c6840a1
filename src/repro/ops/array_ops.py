"""Array manipulation op kernels (reshape, concat, slicing, gather, ...).

Most bound forms (``bind``) call the ndarray method or index that the
numpy function they stand for forwards to — ``np.reshape(a, s)`` is
``a.reshape(s)`` — so results are that function's bit for bit, views
included (``tests/test_op_bind.py``).
"""

from operator import itemgetter, methodcaller

import numpy as np

from ..errors import ShapeError
from ..tensor import dtype as dtypes
from ..tensor.shape import Shape
from .registry import register_op


def _passthrough_shape_fn(attrs, in_shapes, in_dtypes):
    return [(in_shapes[0], in_dtypes[0])]


def _same(a):
    return a


IDENTITY = register_op("identity", bind=lambda attrs: _same,
                       shape_fn=_passthrough_shape_fn)

STOP_GRADIENT = register_op("stop_gradient", bind=lambda attrs: _same,
                            shape_fn=_passthrough_shape_fn)

# -- reshape ------------------------------------------------------------------


def _bind_reshape(attrs):
    return methodcaller("reshape", attrs["shape"])


def _reshape_shape_fn(attrs, in_shapes, in_dtypes):
    target = list(attrs["shape"])
    in_shape = Shape.of(in_shapes[0])
    if -1 in target and in_shape.is_fully_known:
        known = 1
        for d in target:
            if d != -1:
                known *= d
        total = in_shape.num_elements
        target[target.index(-1)] = total // known if known else 0
    dims = [None if d == -1 else d for d in target]
    return [(Shape(dims), in_dtypes[0])]


RESHAPE = register_op("reshape", bind=_bind_reshape,
                      shape_fn=_reshape_shape_fn)

# -- transpose ----------------------------------------------------------------


def _bind_transpose(attrs):
    return methodcaller("transpose", attrs.get("perm"))


def _transpose_shape_fn(attrs, in_shapes, in_dtypes):
    shape = Shape.of(in_shapes[0])
    if shape.dims is None:
        return [(Shape.unknown(), in_dtypes[0])]
    perm = attrs.get("perm")
    if perm is None:
        perm = tuple(reversed(range(len(shape.dims))))
    return [(Shape([shape.dims[p] for p in perm]), in_dtypes[0])]


TRANSPOSE = register_op("transpose", bind=_bind_transpose,
                        shape_fn=_transpose_shape_fn)

# -- concat / split / stack / unstack -----------------------------------------


def _bind_concat(attrs):
    axis = attrs.get("axis", 0)
    concatenate = np.concatenate

    def concat(*arrays):
        return concatenate(arrays, axis)
    return concat


def _concat_shape_fn(attrs, in_shapes, in_dtypes):
    axis = attrs.get("axis", 0)
    shapes = [Shape.of(s) for s in in_shapes]
    if any(s.dims is None for s in shapes):
        return [(Shape.unknown(), dtypes.result_dtype(*in_dtypes))]
    rank = len(shapes[0].dims)
    axis = axis % rank
    dims = list(shapes[0].dims)
    total = 0
    for s in shapes:
        d = s.dims[axis]
        if d is None or total is None:
            total = None
        else:
            total += d
    dims[axis] = total
    for i in range(rank):
        if i == axis:
            continue
        for s in shapes[1:]:
            if dims[i] is None:
                dims[i] = s.dims[i]
    return [(Shape(dims), dtypes.result_dtype(*in_dtypes))]


CONCAT = register_op("concat", bind=_bind_concat,
                     shape_fn=_concat_shape_fn)


def _bind_split(attrs):
    """``tuple(np.array_split(a, num, axis))``: the same views, as basic
    slices along ``axis``.  The slices depend only on the length of that
    axis, so each length's are made once."""
    num, axis = attrs["num"], attrs.get("axis", 0)
    if num <= 0:
        return lambda a: tuple(np.array_split(a, num, axis=axis))  # raises
    lead = (slice(None),) * axis if axis >= 0 else (Ellipsis,)
    trail = () if axis >= 0 else (slice(None),) * (-axis - 1)
    indexes = {}

    def split(a):
        n = a.shape[axis]
        index = indexes.get(n)
        if index is None:
            each, extras = divmod(n, num)
            bounds = [0]
            for k in range(num):
                bounds.append(bounds[-1] + each + (k < extras))
            index = indexes[n] = [
                lead + (slice(bounds[k], bounds[k + 1]),) + trail
                for k in range(num)]
        return tuple([a[i] for i in index])
    return split


def _split_shape_fn(attrs, in_shapes, in_dtypes):
    num = attrs["num"]
    axis = attrs.get("axis", 0)
    shape = Shape.of(in_shapes[0])
    if shape.dims is None:
        return [(Shape.unknown(), in_dtypes[0])] * num
    dims = list(shape.dims)
    axis = axis % len(dims)
    if dims[axis] is not None and dims[axis] % num == 0:
        dims[axis] //= num
    else:
        dims[axis] = None
    return [(Shape(dims), in_dtypes[0])] * num


def _split_num_outputs(attrs):
    return attrs["num"]


SPLIT = register_op("split", bind=_bind_split, shape_fn=_split_shape_fn,
                    num_outputs=_split_num_outputs)


def _stack_kernel(attrs, *arrays):
    return np.stack(arrays, axis=attrs.get("axis", 0))


def _stack_shape_fn(attrs, in_shapes, in_dtypes):
    axis = attrs.get("axis", 0)
    shape = Shape.of(in_shapes[0])
    if shape.dims is None:
        return [(Shape.unknown(), dtypes.result_dtype(*in_dtypes))]
    dims = list(shape.dims)
    axis = axis % (len(dims) + 1)
    dims.insert(axis, len(in_shapes))
    return [(Shape(dims), dtypes.result_dtype(*in_dtypes))]


STACK = register_op("stack", kernel=_stack_kernel, shape_fn=_stack_shape_fn)


def _unstack_kernel(attrs, a):
    axis = attrs.get("axis", 0)
    return tuple(np.moveaxis(a, axis, 0))


def _unstack_shape_fn(attrs, in_shapes, in_dtypes):
    num = attrs["num"]
    axis = attrs.get("axis", 0)
    shape = Shape.of(in_shapes[0])
    if shape.dims is None:
        return [(Shape.unknown(), in_dtypes[0])] * num
    dims = list(shape.dims)
    axis = axis % len(dims)
    del dims[axis]
    return [(Shape(dims), in_dtypes[0])] * num


UNSTACK = register_op("unstack", kernel=_unstack_kernel,
                      shape_fn=_unstack_shape_fn,
                      num_outputs=lambda attrs: attrs["num"])

# -- subscripting ---------------------------------------------------------------


def decode_index_spec(spec):
    """Turn the hashable index spec used in attrs back into a numpy index."""
    out = []
    for item in spec:
        kind = item[0]
        if kind == "int":
            out.append(item[1])
        elif kind == "slice":
            out.append(slice(item[1], item[2], item[3]))
        elif kind == "ellipsis":
            out.append(Ellipsis)
        elif kind == "newaxis":
            out.append(None)
        else:
            raise ShapeError("bad index spec item %r" % (item,))
    return tuple(out)


def encode_index(index):
    """Encode a Python index expression into a hashable attr spec."""
    if not isinstance(index, tuple):
        index = (index,)
    spec = []
    for item in index:
        if isinstance(item, (int, np.integer)):
            spec.append(("int", int(item)))
        elif isinstance(item, slice):
            def _c(v):
                return None if v is None else int(v)
            spec.append(("slice", _c(item.start), _c(item.stop),
                         _c(item.step)))
        elif item is Ellipsis:
            spec.append(("ellipsis",))
        elif item is None:
            spec.append(("newaxis",))
        else:
            raise TypeError("unsupported static index component %r" % (item,))
    return tuple(spec)


def _bind_getitem(attrs):
    return itemgetter(decode_index_spec(attrs["spec"]))


def _getitem_shape_fn(attrs, in_shapes, in_dtypes):
    shape = Shape.of(in_shapes[0])
    if not shape.is_fully_known:
        return [(Shape.unknown(), in_dtypes[0])]
    probe = np.empty(shape.as_tuple(), dtype=np.int8)
    out = probe[decode_index_spec(attrs["spec"])]
    return [(Shape(out.shape), in_dtypes[0])]


GETITEM = register_op("getitem", bind=_bind_getitem,
                      shape_fn=_getitem_shape_fn)


def _getitem_grad_kernel(attrs, grad, ref):
    out = np.zeros_like(ref)
    out[decode_index_spec(attrs["spec"])] = grad
    return out


GETITEM_GRAD = register_op(
    "getitem_grad", kernel=_getitem_grad_kernel,
    shape_fn=lambda attrs, in_shapes, in_dtypes:
        [(in_shapes[1], in_dtypes[0])])

# -- gather / scatter -----------------------------------------------------------


def _bind_gather(attrs):
    axis = attrs.get("axis", 0)

    def gather(params, indices):
        return params.take(indices, axis)
    return gather


def _gather_shape_fn(attrs, in_shapes, in_dtypes):
    p, i = Shape.of(in_shapes[0]), Shape.of(in_shapes[1])
    if p.dims is None or i.dims is None:
        return [(Shape.unknown(), in_dtypes[0])]
    axis = attrs.get("axis", 0) % len(p.dims)
    dims = list(p.dims[:axis]) + list(i.dims) + list(p.dims[axis + 1:])
    return [(Shape(dims), in_dtypes[0])]


GATHER = register_op("gather", bind=_bind_gather,
                     shape_fn=_gather_shape_fn)


def _gather_grad_kernel(attrs, grad, indices, ref):
    axis = attrs.get("axis", 0)
    out = np.zeros_like(ref, dtype=grad.dtype)
    if axis == 0:
        # ``out[indices]`` has ``grad``'s shape: no axis to move and no
        # index to flatten.  ``np.add.at`` visits ``indices`` in C
        # order, the order of ``_scatter_add``'s flat index, so the sums
        # agree bit for bit.
        np.add.at(out, indices, grad)
    else:
        _scatter_add(out, axis, indices, grad)
    return out


def _scatter_add(out, axis, indices, grad):
    """``out`` += ``grad`` scattered along ``axis`` at ``indices``: the
    general form, over a flat index with ``axis`` moved to the front."""
    moved = np.moveaxis(out, axis, 0)
    flat_idx = indices.reshape(-1)
    g = np.moveaxis(grad, tuple(range(axis, axis + indices.ndim)),
                    tuple(range(indices.ndim)))
    g = g.reshape((flat_idx.size,) + moved.shape[1:])
    np.add.at(moved, flat_idx, g)


GATHER_GRAD = register_op(
    "gather_grad", kernel=_gather_grad_kernel,
    shape_fn=lambda attrs, in_shapes, in_dtypes:
        [(in_shapes[2], in_dtypes[0])])

# -- padding / tiling / dim fiddling ---------------------------------------------


def _pad_kernel(attrs, a):
    return np.pad(a, attrs["paddings"], mode=attrs.get("mode", "constant"))


def _pad_shape_fn(attrs, in_shapes, in_dtypes):
    shape = Shape.of(in_shapes[0])
    if shape.dims is None:
        return [(Shape.unknown(), in_dtypes[0])]
    dims = []
    for d, (lo, hi) in zip(shape.dims, attrs["paddings"]):
        dims.append(None if d is None else d + lo + hi)
    return [(Shape(dims), in_dtypes[0])]


PAD = register_op("pad", kernel=_pad_kernel, shape_fn=_pad_shape_fn)


def _pad_grad_kernel(attrs, grad):
    idx = tuple(slice(lo, grad.shape[i] - hi)
                for i, (lo, hi) in enumerate(attrs["paddings"]))
    return grad[idx]


PAD_GRAD = register_op(
    "pad_grad", kernel=_pad_grad_kernel,
    shape_fn=lambda attrs, in_shapes, in_dtypes:
        [(Shape.unknown(), in_dtypes[0])])


def _tile_kernel(attrs, a):
    return np.tile(a, attrs["multiples"])


def _tile_shape_fn(attrs, in_shapes, in_dtypes):
    shape = Shape.of(in_shapes[0])
    mult = attrs["multiples"]
    if shape.dims is None:
        return [(Shape.unknown(), in_dtypes[0])]
    dims = [None if d is None else d * m for d, m in zip(shape.dims, mult)]
    return [(Shape(dims), in_dtypes[0])]


TILE = register_op("tile", kernel=_tile_kernel, shape_fn=_tile_shape_fn)


def _expand_dims_shape_fn(attrs, in_shapes, in_dtypes):
    shape = Shape.of(in_shapes[0])
    if shape.dims is None:
        return [(Shape.unknown(), in_dtypes[0])]
    dims = list(shape.dims)
    axis = attrs["axis"]
    axis = axis % (len(dims) + 1)
    dims.insert(axis, 1)
    return [(Shape(dims), in_dtypes[0])]


def _bind_expand_dims(attrs):
    """``np.expand_dims(a, axis)`` as the index that inserts the axis
    (a view either way); an axis past the rank raises ``IndexError``
    where ``expand_dims`` raises its subclass ``AxisError``."""
    axis = attrs["axis"]
    if axis >= 0:
        return itemgetter((slice(None),) * axis + (None,))
    return itemgetter((Ellipsis, None) + (slice(None),) * (-axis - 1))


EXPAND_DIMS = register_op("expand_dims", bind=_bind_expand_dims,
                          shape_fn=_expand_dims_shape_fn)


def _bind_squeeze(attrs):
    axis = attrs.get("axis")
    if axis is None:
        return methodcaller("squeeze")
    return methodcaller("squeeze", axis=axis)


def _squeeze_shape_fn(attrs, in_shapes, in_dtypes):
    shape = Shape.of(in_shapes[0])
    if shape.dims is None:
        return [(Shape.unknown(), in_dtypes[0])]
    axis = attrs.get("axis")
    dims = list(shape.dims)
    if axis is None:
        dims = [d for d in dims if d != 1]
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = {a % len(dims) for a in axes}
        dims = [d for i, d in enumerate(dims) if i not in axes]
    return [(Shape(dims), in_dtypes[0])]


SQUEEZE = register_op("squeeze", bind=_bind_squeeze,
                      shape_fn=_squeeze_shape_fn)

# -- construction -----------------------------------------------------------------


def _fill_kernel(attrs, *unused):
    dt = dtypes.DType.of(attrs.get("dtype", "float32"))
    return np.full(attrs["shape"], attrs["value"], dtype=dt.np_dtype)


def _fill_shape_fn(attrs, in_shapes, in_dtypes):
    return [(Shape(attrs["shape"]),
             dtypes.DType.of(attrs.get("dtype", "float32")))]


FILL = register_op("fill", kernel=_fill_kernel, shape_fn=_fill_shape_fn)


def _filled_like(value):
    """``np.zeros_like``/``np.ones_like`` for ``value`` 0/1: the same
    ``empty_like`` (order ``'K'``), filled."""
    empty_like = np.empty_like

    def filled(a):
        out = empty_like(a)
        out.fill(value)
        return out
    return filled


_ZEROS_LIKE = _filled_like(0)
_ONES_LIKE = _filled_like(1)

ZEROS_LIKE = register_op("zeros_like", bind=lambda attrs: _ZEROS_LIKE,
                         shape_fn=_passthrough_shape_fn)

ONES_LIKE = register_op("ones_like", bind=lambda attrs: _ONES_LIKE,
                        shape_fn=_passthrough_shape_fn)


def _range_kernel(attrs, *unused):
    dt = dtypes.DType.of(attrs.get("dtype", "int64"))
    return np.arange(attrs["start"], attrs["stop"], attrs.get("step", 1),
                     dtype=dt.np_dtype)


def _range_shape_fn(attrs, in_shapes, in_dtypes):
    n = max(0, int(np.ceil((attrs["stop"] - attrs["start"])
                           / attrs.get("step", 1))))
    return [(Shape([n]), dtypes.DType.of(attrs.get("dtype", "int64")))]


RANGE = register_op("range", kernel=_range_kernel, shape_fn=_range_shape_fn)


def _one_hot_kernel(attrs, indices):
    depth = attrs["depth"]
    dt = dtypes.DType.of(attrs.get("dtype", "float32"))
    flat = indices.reshape(-1).astype(np.int64)
    out = np.zeros((flat.size, depth), dtype=dt.np_dtype)
    valid = (flat >= 0) & (flat < depth)
    out[np.arange(flat.size)[valid], flat[valid]] = 1
    return out.reshape(indices.shape + (depth,))


def _one_hot_shape_fn(attrs, in_shapes, in_dtypes):
    shape = Shape.of(in_shapes[0])
    if shape.dims is None:
        return [(Shape.unknown(), dtypes.DType.of(attrs.get("dtype",
                                                            "float32")))]
    return [(Shape(list(shape.dims) + [attrs["depth"]]),
             dtypes.DType.of(attrs.get("dtype", "float32")))]


ONE_HOT = register_op("one_hot", kernel=_one_hot_kernel,
                      shape_fn=_one_hot_shape_fn)


def _reshape_like(a, ref):
    return a.reshape(ref.shape)


RESHAPE_LIKE = register_op(
    "reshape_like", bind=lambda attrs: _reshape_like,
    shape_fn=lambda attrs, in_shapes, in_dtypes:
        [(in_shapes[1], in_dtypes[0])])


def _shape_of_kernel(attrs, a):
    return np.asarray(a.shape, dtype=np.int64)


def _shape_of_shape_fn(attrs, in_shapes, in_dtypes):
    shape = Shape.of(in_shapes[0])
    rank = None if shape.dims is None else len(shape.dims)
    return [(Shape([rank]), dtypes.int64)]


SHAPE_OF = register_op("shape_of", kernel=_shape_of_kernel,
                       shape_fn=_shape_of_shape_fn)
