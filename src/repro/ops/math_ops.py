"""Elementwise math, comparison, and logical op kernels."""

import numpy as np

from ..tensor import dtype as dtypes
from ..tensor.shape import Shape, broadcast_shapes
from .registry import register_op


def _broadcast_shape_fn(result_dtype_fn):
    def shape_fn(attrs, in_shapes, in_dtypes):
        out = in_shapes[0]
        for s in in_shapes[1:]:
            out = broadcast_shapes(out, s)
        return [(out, result_dtype_fn(in_dtypes))]
    return shape_fn


def _promote(in_dtypes):
    return dtypes.result_dtype(*in_dtypes)


def _same(in_dtypes):
    return in_dtypes[0]


def _bool(in_dtypes):
    return dtypes.bool_


def _float_promote(in_dtypes):
    dt = dtypes.result_dtype(*in_dtypes)
    return dt if dt.is_floating else dtypes.default_float


def _unary_shape_fn(result_dtype_fn=_same):
    def shape_fn(attrs, in_shapes, in_dtypes):
        return [(in_shapes[0], result_dtype_fn(in_dtypes))]
    return shape_fn


def _binary(name, fn, dtype_fn=_promote, commutative=False):
    return register_op(
        name,
        kernel=lambda attrs, a, b: fn(a, b),
        shape_fn=_broadcast_shape_fn(dtype_fn),
        commutative=commutative)


def _unary(name, fn, dtype_fn=_same):
    return register_op(
        name,
        kernel=lambda attrs, a: fn(a),
        shape_fn=_unary_shape_fn(dtype_fn))


def _true_div(a, b):
    out = np.true_divide(a, b)
    if out.dtype == np.float64 and \
            a.dtype.kind in "ib" and b.dtype.kind in "ib":
        out = out.astype(np.float32)
    return out


# -- arithmetic -------------------------------------------------------------

ADD = _binary("add", np.add, commutative=True)
SUB = _binary("sub", np.subtract)
MUL = _binary("mul", np.multiply, commutative=True)
DIV = _binary("div", _true_div, dtype_fn=_float_promote)
FLOORDIV = _binary("floordiv", np.floor_divide)
MOD = _binary("mod", np.mod)
POW = _binary("pow", np.power)
MAXIMUM = _binary("maximum", np.maximum, commutative=True)
MINIMUM = _binary("minimum", np.minimum, commutative=True)

NEG = _unary("neg", np.negative)
ABS = _unary("abs", np.abs)
SIGN = _unary("sign", np.sign)
EXP = _unary("exp", np.exp, dtype_fn=_float_promote)
LOG = _unary("log", np.log, dtype_fn=_float_promote)
SQRT = _unary("sqrt", np.sqrt, dtype_fn=_float_promote)
SQUARE = _unary("square", np.square)
TANH = _unary("tanh", np.tanh, dtype_fn=_float_promote)
FLOOR = _unary("floor", np.floor)


#: ``scipy.special.expit``, resolved by the first sigmoid call (False
#: without scipy).  Importing ``scipy.special`` costs more than the rest
#: of ``import repro``, so only programs that run a sigmoid pay for it.
_expit = None


def _sigmoid(a):
    global _expit
    if _expit is None:
        try:
            from scipy.special import expit as _expit
        except ImportError:  # scipy is the optional ``fast`` extra
            _expit = False
    if _expit:
        out = _expit(a)
        if out.dtype == np.float64 and np.asarray(a).dtype == np.float32:
            out = out.astype(np.float32)
        return out
    # Numerically stable piecewise fallback.
    out = np.empty_like(a, dtype=np.result_type(a.dtype, np.float32))
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


SIGMOID = register_op(
    "sigmoid",
    kernel=lambda attrs, a: _sigmoid(np.asarray(a)),
    shape_fn=_unary_shape_fn(_float_promote))

RELU = _unary("relu", lambda a: np.maximum(a, 0))


def _leaky_relu_kernel(attrs, a):
    alpha = attrs.get("alpha", 0.2)
    return np.where(a > 0, a, alpha * a).astype(a.dtype)


LEAKY_RELU = register_op("leaky_relu", kernel=_leaky_relu_kernel,
                         shape_fn=_unary_shape_fn())


def _clip_kernel(attrs, a):
    return np.clip(a, attrs["min"], attrs["max"])


CLIP = register_op("clip", kernel=_clip_kernel, shape_fn=_unary_shape_fn())

# -- comparisons (not differentiable) ----------------------------------------

EQUAL = _binary("equal", np.equal, dtype_fn=_bool, commutative=True)
NOT_EQUAL = _binary("not_equal", np.not_equal, dtype_fn=_bool,
                    commutative=True)
LESS = _binary("less", np.less, dtype_fn=_bool)
LESS_EQUAL = _binary("less_equal", np.less_equal, dtype_fn=_bool)
GREATER = _binary("greater", np.greater, dtype_fn=_bool)
GREATER_EQUAL = _binary("greater_equal", np.greater_equal, dtype_fn=_bool)

# -- logical -----------------------------------------------------------------

LOGICAL_AND = _binary("logical_and", np.logical_and, dtype_fn=_bool,
                      commutative=True)
LOGICAL_OR = _binary("logical_or", np.logical_or, dtype_fn=_bool,
                     commutative=True)
LOGICAL_NOT = _unary("logical_not", np.logical_not, dtype_fn=_bool)

# -- select / where ------------------------------------------------------------


def _where_shape_fn(attrs, in_shapes, in_dtypes):
    out = broadcast_shapes(broadcast_shapes(in_shapes[0], in_shapes[1]),
                           in_shapes[2])
    return [(out, dtypes.result_dtype(in_dtypes[1], in_dtypes[2]))]


WHERE = register_op(
    "where",
    kernel=lambda attrs, c, a, b: np.where(c, a, b),
    shape_fn=_where_shape_fn)

# -- cast ---------------------------------------------------------------------


def _cast_kernel(attrs, a):
    return a.astype(dtypes.DType.of(attrs["dtype"]).np_dtype)


def _cast_shape_fn(attrs, in_shapes, in_dtypes):
    return [(in_shapes[0], dtypes.DType.of(attrs["dtype"]))]


CAST = register_op("cast", kernel=_cast_kernel, shape_fn=_cast_shape_fn)

# -- gradient helper: reduce a broadcast gradient back to an input's shape ----


def _broadcast_grad_kernel(attrs, grad, ref):
    target = ref.shape
    g = grad
    while g.ndim > len(target):
        g = g.sum(axis=0)
    for axis, dim in enumerate(target):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    if g.shape != target:
        g = np.broadcast_to(g, target)
    # np.ascontiguousarray would promote 0-d arrays to 1-d; avoid that.
    if g.ndim and not g.flags["C_CONTIGUOUS"]:
        g = np.ascontiguousarray(g)
    return np.asarray(g)


def _broadcast_grad_shape_fn(attrs, in_shapes, in_dtypes):
    return [(Shape.of(in_shapes[1]), in_dtypes[0])]


BROADCAST_GRAD = register_op("broadcast_grad", kernel=_broadcast_grad_kernel,
                             shape_fn=_broadcast_grad_shape_fn)


# -- extended activations / math (post-v1 additions) --------------------------


def _softplus_kernel(attrs, a):
    # log(1 + exp(a)), stable for large |a|.
    out = np.logaddexp(0.0, a)
    if out.dtype == np.float64 and np.asarray(a).dtype == np.float32:
        out = out.astype(np.float32)
    return out


SOFTPLUS = register_op("softplus", kernel=_softplus_kernel,
                       shape_fn=_unary_shape_fn(_float_promote))


def _elu_kernel(attrs, a):
    alpha = attrs.get("alpha", 1.0)
    return np.where(a > 0, a, alpha * np.expm1(a)).astype(
        np.result_type(a.dtype, np.float32))


ELU = register_op("elu", kernel=_elu_kernel,
                  shape_fn=_unary_shape_fn(_float_promote))


def _gelu_kernel(attrs, a):
    # tanh approximation of GELU (Hendrycks & Gimpel).
    c = np.float32(0.7978845608028654)  # sqrt(2/pi)
    inner = c * (a + 0.044715 * a ** 3)
    return (0.5 * a * (1.0 + np.tanh(inner))).astype(
        np.result_type(a.dtype, np.float32))


GELU = register_op("gelu", kernel=_gelu_kernel,
                   shape_fn=_unary_shape_fn(_float_promote))

LOG1P = _unary("log1p", np.log1p, dtype_fn=_float_promote)
EXPM1 = _unary("expm1", np.expm1, dtype_fn=_float_promote)


def _cumsum_kernel(attrs, a):
    return np.cumsum(a, axis=attrs.get("axis", 0)).astype(a.dtype)


CUMSUM = register_op("cumsum", kernel=_cumsum_kernel,
                     shape_fn=_unary_shape_fn())
