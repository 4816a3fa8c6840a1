"""Gradient definitions for every differentiable primitive op.

Each gradient receives a :class:`~repro.ops.registry.GradContext` whose
``inputs``/``outputs`` are execution-mode handles (eager tensors or
symbolic nodes) and combines them exclusively through the dispatching API
in :mod:`repro.ops.api`.  Consequently the same definitions power both the
imperative gradient tape and symbolic graph autodiff — mirroring how the
paper reuses TensorFlow's gradient registry in both execution modes.
"""

from ..errors import ShapeError
from ..graph.core import NodeOutput
from . import api
from .registry import register_gradient


def _bg(grad, ref):
    """Reduce a broadcast gradient back onto ``ref``'s shape.

    In a graph, a gradient whose static shape is fully known and already
    ``ref``'s reduces nothing: it is returned as is, so no node reads
    ``ref`` only for its shape, and a loop or call record need not keep
    ``ref``'s value for the gradient.  The imperative tape always reduces.
    """
    if type(grad) is NodeOutput and grad.shape.is_fully_known \
            and grad.shape == ref.shape:
        return grad
    return api.broadcast_grad(grad, ref)


# -- arithmetic -------------------------------------------------------------

@register_gradient("add")
def _add_grad(ctx, grads):
    g = grads[0]
    a, b = ctx.inputs
    return [_bg(g, a), _bg(g, b)]


@register_gradient("sub")
def _sub_grad(ctx, grads):
    g = grads[0]
    a, b = ctx.inputs
    return [_bg(g, a), _bg(api.neg(g), b)]


@register_gradient("mul")
def _mul_grad(ctx, grads):
    g = grads[0]
    a, b = ctx.inputs
    return [_bg(api.mul(g, b), a), _bg(api.mul(g, a), b)]


@register_gradient("div")
def _div_grad(ctx, grads):
    g = grads[0]
    a, b = ctx.inputs
    ga = api.div(g, b)
    gb = api.neg(api.div(api.mul(g, a), api.mul(b, b)))
    return [_bg(ga, a), _bg(gb, b)]


@register_gradient("pow")
def _pow_grad(ctx, grads):
    g = grads[0]
    a, b = ctx.inputs
    out = ctx.outputs[0]
    ga = api.mul(g, api.mul(b, api.pow(a, api.sub(b, 1.0))))
    gb = api.mul(g, api.mul(out, api.log(api.maximum(a, 1e-30))))
    return [_bg(ga, a), _bg(gb, b)]


@register_gradient("maximum")
def _maximum_grad(ctx, grads):
    g = grads[0]
    a, b = ctx.inputs
    take_a = api.greater_equal(a, b)
    zero = api.zeros_like(g)
    return [_bg(api.where(take_a, g, zero), a),
            _bg(api.where(take_a, zero, g), b)]


@register_gradient("minimum")
def _minimum_grad(ctx, grads):
    g = grads[0]
    a, b = ctx.inputs
    take_a = api.less_equal(a, b)
    zero = api.zeros_like(g)
    return [_bg(api.where(take_a, g, zero), a),
            _bg(api.where(take_a, zero, g), b)]


@register_gradient("neg")
def _neg_grad(ctx, grads):
    return [api.neg(grads[0])]


@register_gradient("abs")
def _abs_grad(ctx, grads):
    return [api.mul(grads[0], api.sign(ctx.inputs[0]))]


@register_gradient("exp")
def _exp_grad(ctx, grads):
    return [api.mul(grads[0], ctx.outputs[0])]


@register_gradient("log")
def _log_grad(ctx, grads):
    return [api.div(grads[0], ctx.inputs[0])]


@register_gradient("sqrt")
def _sqrt_grad(ctx, grads):
    return [api.div(api.mul(grads[0], 0.5), ctx.outputs[0])]


@register_gradient("square")
def _square_grad(ctx, grads):
    return [api.mul(grads[0], api.mul(ctx.inputs[0], 2.0))]


@register_gradient("tanh")
def _tanh_grad(ctx, grads):
    y = ctx.outputs[0]
    return [api.mul(grads[0], api.sub(1.0, api.mul(y, y)))]


@register_gradient("sigmoid")
def _sigmoid_grad(ctx, grads):
    y = ctx.outputs[0]
    return [api.mul(grads[0], api.mul(y, api.sub(1.0, y)))]


@register_gradient("relu")
def _relu_grad(ctx, grads):
    g = grads[0]
    positive = api.greater(ctx.inputs[0], 0.0)
    return [api.where(positive, g, api.zeros_like(g))]


@register_gradient("leaky_relu")
def _leaky_relu_grad(ctx, grads):
    g = grads[0]
    alpha = ctx.attrs.get("alpha", 0.2)
    positive = api.greater(ctx.inputs[0], 0.0)
    return [api.where(positive, g, api.mul(g, alpha))]


@register_gradient("clip")
def _clip_grad(ctx, grads):
    g = grads[0]
    x = ctx.inputs[0]
    inside = api.logical_and(api.greater_equal(x, ctx.attrs["min"]),
                             api.less_equal(x, ctx.attrs["max"]))
    return [api.where(inside, g, api.zeros_like(g))]


@register_gradient("where")
def _where_grad(ctx, grads):
    g = grads[0]
    cond, a, b = ctx.inputs
    zero = api.zeros_like(g)
    return [None, _bg(api.where(cond, g, zero), a),
            _bg(api.where(cond, zero, g), b)]


@register_gradient("cast")
def _cast_grad(ctx, grads):
    src = ctx.inputs[0]
    if not src.dtype.is_floating:
        return [None]
    return [api.cast(grads[0], src.dtype)]


@register_gradient("identity")
def _identity_grad(ctx, grads):
    return [grads[0]]


# -- matmul -------------------------------------------------------------------

@register_gradient("matmul")
def _matmul_grad(ctx, grads):
    g = grads[0]
    a, b = ctx.inputs
    ta = ctx.attrs.get("transpose_a", False)
    tb = ctx.attrs.get("transpose_b", False)
    if not ta and not tb:
        ga = api.matmul(g, b, transpose_b=True)
        gb = api.matmul(a, g, transpose_a=True)
    elif ta and not tb:
        ga = api.matmul(b, g, transpose_b=True)
        gb = api.matmul(a, g)
    elif not ta and tb:
        ga = api.matmul(g, b)
        gb = api.matmul(g, a, transpose_a=True)
    else:
        ga = api.matmul(b, g, transpose_a=True, transpose_b=True)
        gb = api.matmul(g, a, transpose_a=True, transpose_b=True)
    return [_bg(ga, a), _bg(gb, b)]


# -- reductions ------------------------------------------------------------------


def _reduction_axes(x, axis):
    rank = x.shape.rank
    if rank is None:
        raise ShapeError("reduction gradient needs a known input rank")
    if axis is None:
        return tuple(range(rank))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % rank for a in axis)


def _restore_dims(g, x, axes, keepdims):
    if keepdims:
        return g
    for a in sorted(axes):
        g = api.expand_dims(g, a)
    return g


@register_gradient("reduce_sum")
def _reduce_sum_grad(ctx, grads):
    x = ctx.inputs[0]
    axes = _reduction_axes(x, ctx.attrs.get("axis"))
    g = _restore_dims(grads[0], x, axes, ctx.attrs.get("keepdims", False))
    return [api.mul(api.ones_like(x), g)]


@register_gradient("reduce_mean")
def _reduce_mean_grad(ctx, grads):
    x = ctx.inputs[0]
    axes = _reduction_axes(x, ctx.attrs.get("axis"))
    g = _restore_dims(grads[0], x, axes, ctx.attrs.get("keepdims", False))
    count = 1
    unknown = []
    for a in axes:
        d = x.shape[a]
        if d is None:
            unknown.append(a)
        else:
            count *= d
    scaled = api.div(g, float(count))
    if unknown:
        dyn = api.cast(api.gather(api.shape_of(x),
                                  api.constant(list(unknown), dtype="int64")),
                       "float32")
        scaled = api.div(scaled, api.reduce_prod(dyn))
    return [api.mul(api.ones_like(x), scaled)]


def _extreme_grad(ctx, grads):
    x = ctx.inputs[0]
    y = ctx.outputs[0]
    axes = _reduction_axes(x, ctx.attrs.get("axis"))
    keepdims = ctx.attrs.get("keepdims", False)
    g = _restore_dims(grads[0], x, axes, keepdims)
    y_full = _restore_dims(y, x, axes, keepdims)
    mask = api.cast(api.equal(x, y_full), g.dtype
                    if hasattr(g, "dtype") else "float32")
    ties = api.reduce_sum(mask, axis=ctx.attrs.get("axis"), keepdims=True)
    return [api.mul(api.div(mask, ties), g)]


register_gradient("reduce_max")(_extreme_grad)
register_gradient("reduce_min")(_extreme_grad)


@register_gradient("reduce_prod")
def _reduce_prod_grad(ctx, grads):
    x = ctx.inputs[0]
    y = ctx.outputs[0]
    axes = _reduction_axes(x, ctx.attrs.get("axis"))
    keepdims = ctx.attrs.get("keepdims", False)
    g = _restore_dims(grads[0], x, axes, keepdims)
    y_full = _restore_dims(y, x, axes, keepdims)
    return [api.mul(g, api.div(y_full, x))]


# -- array manipulation ------------------------------------------------------------


@register_gradient("reshape")
def _reshape_grad(ctx, grads):
    return [api.reshape_like(grads[0], ctx.inputs[0])]


@register_gradient("reshape_like")
def _reshape_like_grad(ctx, grads):
    return [api.reshape_like(grads[0], ctx.inputs[0]), None]


@register_gradient("transpose")
def _transpose_grad(ctx, grads):
    perm = ctx.attrs.get("perm")
    if perm is None:
        return [api.transpose(grads[0])]
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    return [api.transpose(grads[0], inverse)]


@register_gradient("concat")
def _concat_grad(ctx, grads):
    g = grads[0]
    axis = ctx.attrs.get("axis", 0)
    out = []
    offset = 0
    for x in ctx.inputs:
        dim = x.shape[axis]
        if dim is None:
            raise ShapeError("concat gradient needs static concat dims")
        index = [slice(None)] * (axis % len(x.shape.dims)) + \
            [slice(offset, offset + dim)]
        out.append(api.getitem(g, tuple(index)))
        offset += dim
    return out


@register_gradient("split")
def _split_grad(ctx, grads):
    return [api.concat(list(grads), axis=ctx.attrs.get("axis", 0))]


@register_gradient("stack")
def _stack_grad(ctx, grads):
    parts = api.unstack(grads[0], num=len(ctx.inputs),
                        axis=ctx.attrs.get("axis", 0))
    return list(parts)


@register_gradient("unstack")
def _unstack_grad(ctx, grads):
    return [api.stack(list(grads), axis=ctx.attrs.get("axis", 0))]


@register_gradient("getitem")
def _getitem_grad(ctx, grads):
    from . import array_ops
    from .dispatch import dispatch
    return [dispatch(array_ops.GETITEM_GRAD, (grads[0], ctx.inputs[0]),
                     dict(ctx.attrs))]


@register_gradient("gather")
def _gather_grad(ctx, grads):
    from . import array_ops
    from .dispatch import dispatch
    params, indices = ctx.inputs
    return [dispatch(array_ops.GATHER_GRAD, (grads[0], indices, params),
                     dict(ctx.attrs)), None]


@register_gradient("pad")
def _pad_grad(ctx, grads):
    from . import array_ops
    from .dispatch import dispatch
    return [dispatch(array_ops.PAD_GRAD, (grads[0],), dict(ctx.attrs))]


@register_gradient("tile")
def _tile_grad(ctx, grads):
    x = ctx.inputs[0]
    mult = ctx.attrs["multiples"]
    dims = x.shape.dims
    if dims is None or any(d is None for d in dims):
        raise ShapeError("tile gradient needs a static input shape")
    interleaved = []
    for m, d in zip(mult, dims):
        interleaved.extend([m, d])
    g = api.reshape(grads[0], interleaved)
    g = api.reduce_sum(g, axis=tuple(range(0, 2 * len(dims), 2)))
    return [g]


@register_gradient("expand_dims")
def _expand_dims_grad(ctx, grads):
    return [api.reshape_like(grads[0], ctx.inputs[0])]


@register_gradient("squeeze")
def _squeeze_grad(ctx, grads):
    return [api.reshape_like(grads[0], ctx.inputs[0])]


# -- nn ops ------------------------------------------------------------------------


@register_gradient("conv2d")
def _conv2d_grad(ctx, grads):
    from . import nn_ops
    from .dispatch import dispatch
    g = grads[0]
    x, filters = ctx.inputs
    attrs = dict(ctx.attrs)
    gx = dispatch(nn_ops.CONV2D_INPUT_GRAD, (g, filters, x), attrs)
    gf = dispatch(nn_ops.CONV2D_FILTER_GRAD, (g, x, filters), attrs)
    return [gx, gf]


@register_gradient("conv2d_transpose")
def _conv2d_transpose_grad(ctx, grads):
    from . import nn_ops
    from .dispatch import dispatch
    g = grads[0]
    x, filters = ctx.inputs
    attrs = {"strides": ctx.attrs["strides"],
             "padding": ctx.attrs["padding"]}
    gx = api.conv2d(g, filters, strides=ctx.attrs["strides"],
                    padding=ctx.attrs["padding"])
    gf = dispatch(nn_ops.CONV2D_FILTER_GRAD, (x, g, filters), attrs)
    return [gx, gf]


@register_gradient("max_pool")
def _max_pool_grad(ctx, grads):
    from . import nn_ops
    from .dispatch import dispatch
    return [dispatch(nn_ops.MAX_POOL_GRAD,
                     (grads[0], ctx.inputs[0], ctx.outputs[0]),
                     dict(ctx.attrs))]


@register_gradient("avg_pool")
def _avg_pool_grad(ctx, grads):
    from . import nn_ops
    from .dispatch import dispatch
    return [dispatch(nn_ops.AVG_POOL_GRAD, (grads[0], ctx.inputs[0]),
                     dict(ctx.attrs))]


@register_gradient("softmax")
def _softmax_grad(ctx, grads):
    g = grads[0]
    y = ctx.outputs[0]
    axis = ctx.attrs.get("axis", -1)
    inner = api.reduce_sum(api.mul(g, y), axis=axis, keepdims=True)
    return [api.mul(api.sub(g, inner), y)]


@register_gradient("log_softmax")
def _log_softmax_grad(ctx, grads):
    g = grads[0]
    y = ctx.outputs[0]
    axis = ctx.attrs.get("axis", -1)
    total = api.reduce_sum(g, axis=axis, keepdims=True)
    return [api.sub(g, api.mul(api.exp(y), total))]


@register_gradient("softmax_cross_entropy")
def _sce_grad(ctx, grads):
    from . import nn_ops
    from .dispatch import dispatch
    logits, labels = ctx.inputs
    gl = dispatch(nn_ops.SOFTMAX_CROSS_ENTROPY_GRAD,
                  (grads[0], logits, labels), {})
    return [gl, None]


@register_gradient("sigmoid_cross_entropy")
def _bce_grad(ctx, grads):
    from . import nn_ops
    from .dispatch import dispatch
    logits, targets = ctx.inputs
    gl = dispatch(nn_ops.SIGMOID_CROSS_ENTROPY_GRAD,
                  (grads[0], logits, targets), {})
    gt = _bg(api.mul(grads[0], api.neg(logits)), targets)
    return [gl, gt]


# -- extended activations (post-v1 additions) ----------------------------------


@register_gradient("softplus")
def _softplus_grad(ctx, grads):
    return [api.mul(grads[0], api.sigmoid(ctx.inputs[0]))]


@register_gradient("elu")
def _elu_grad(ctx, grads):
    g = grads[0]
    x = ctx.inputs[0]
    y = ctx.outputs[0]
    alpha = ctx.attrs.get("alpha", 1.0)
    positive = api.greater(x, 0.0)
    return [api.where(positive, g, api.mul(g, api.add(y, alpha)))]


@register_gradient("gelu")
def _gelu_grad(ctx, grads):
    g = grads[0]
    x = ctx.inputs[0]
    c = 0.7978845608028654
    inner = api.mul(api.add(x, api.mul(api.pow(x, 3.0), 0.044715)), c)
    t = api.tanh(inner)
    sech2 = api.sub(1.0, api.mul(t, t))
    d_inner = api.mul(api.add(1.0, api.mul(api.square(x),
                                           3.0 * 0.044715)), c)
    dydx = api.add(api.mul(0.5, api.add(1.0, t)),
                   api.mul(api.mul(api.mul(x, 0.5), sech2), d_inner))
    return [api.mul(g, dydx)]


@register_gradient("log1p")
def _log1p_grad(ctx, grads):
    return [api.div(grads[0], api.add(ctx.inputs[0], 1.0))]


@register_gradient("expm1")
def _expm1_grad(ctx, grads):
    return [api.mul(grads[0], api.add(ctx.outputs[0], 1.0))]


@register_gradient("cumsum")
def _cumsum_grad(ctx, grads):
    # reverse-cumsum of the incoming gradient along the same axis.
    from . import math_ops
    from .dispatch import dispatch
    axis = ctx.attrs.get("axis", 0)
    g = grads[0]
    rank = ctx.inputs[0].shape.rank
    index = [slice(None)] * (axis % (rank or 1))
    flipped = api.getitem(g, tuple(index + [slice(None, None, -1)]))
    summed = dispatch(math_ops.CUMSUM, (flipped,), {"axis": axis})
    return [api.getitem(summed,
                        tuple(index + [slice(None, None, -1)]))]
