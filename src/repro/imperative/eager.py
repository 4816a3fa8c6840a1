"""The imperative (eager) executor.

This is the reproduction's stand-in for TensorFlow Eager: every op runs
immediately on numpy buffers, Python control flow just executes, and an
optional :class:`~repro.imperative.tape.GradientTape` records the op stream
for reverse-mode differentiation.  Its per-op Python dispatch overhead is
exactly the cost JANUS amortizes by converting programs to symbolic graphs.
"""

import numpy as np

import time

from ..errors import DTypeError
from ..observability import COUNTERS, METRICS, TRACER
from ..tensor import TensorValue
from ..ops.dispatch import ExecutionContext, set_default_context
from . import tape as tape_module
from .variable import Variable


class Tensor:
    """An eagerly-computed tensor.

    Immutable through the functional op API; the explicit in-place ops
    (``assign_``/``add_``/``sub_``/``mul_``) are the one sanctioned
    mutation path and route through the tensor write barrier
    (:meth:`repro.tensor.TensorValue.inplace_write`), which bumps the
    version stamp — and copies first when the buffer is sealed by a
    guarded memo — so specialized graphs always observe the change.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if not isinstance(value, TensorValue):
            value = TensorValue.of(value)
        self.value = value

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    @property
    def ndim(self):
        return self.value.ndim

    def numpy(self):
        return self.value.array

    def item(self):
        return self.value.item()

    def __repr__(self):
        arr = self.value.array
        return "Tensor(%s, shape=%s, dtype=%s)" % (
            np.array2string(arr, threshold=6, precision=4),
            tuple(arr.shape), self.dtype.name)

    # -- python protocol ---------------------------------------------------

    def __bool__(self):
        return bool(self.value.array)

    def __int__(self):
        return int(self.value.array)

    def __float__(self):
        return float(self.value.array)

    def __len__(self):
        if self.value.ndim == 0:
            raise TypeError("len() of a 0-d tensor")
        return self.value.array.shape[0]

    def __iter__(self):
        if self.value.ndim == 0:
            raise TypeError("iteration over a 0-d tensor")
        from ..ops import api
        for i in range(self.value.array.shape[0]):
            yield api.getitem(self, i)

    def __hash__(self):
        return id(self)

    def __getitem__(self, index):
        from ..ops import api
        return api.getitem(self, index)

    # -- sanctioned in-place mutation --------------------------------------

    def _inplace_operand(self, other):
        if isinstance(other, Tensor):
            return other.value.array
        if isinstance(other, TensorValue):
            return other.array
        return np.asarray(other, dtype=self.value.dtype.np_dtype)

    def assign_(self, other):
        """Overwrite this tensor's buffer in place (not tape-recorded)."""
        src = self._inplace_operand(other)
        self.value.inplace_write(lambda dst: np.copyto(dst, src))
        return self

    def add_(self, other):
        src = self._inplace_operand(other)
        self.value.inplace_write(lambda dst: np.add(dst, src, out=dst))
        return self

    def sub_(self, other):
        src = self._inplace_operand(other)
        self.value.inplace_write(
            lambda dst: np.subtract(dst, src, out=dst))
        return self

    def mul_(self, other):
        src = self._inplace_operand(other)
        self.value.inplace_write(
            lambda dst: np.multiply(dst, src, out=dst))
        return self

    # -- operators -----------------------------------------------------------

    def _binop(self, other, fn, reverse=False):
        from ..ops import api
        f = getattr(api, fn)
        return f(other, self) if reverse else f(self, other)

    def __add__(self, o):
        return self._binop(o, "add")

    def __radd__(self, o):
        return self._binop(o, "add", True)

    def __sub__(self, o):
        return self._binop(o, "sub")

    def __rsub__(self, o):
        return self._binop(o, "sub", True)

    def __mul__(self, o):
        return self._binop(o, "mul")

    def __rmul__(self, o):
        return self._binop(o, "mul", True)

    def __truediv__(self, o):
        return self._binop(o, "div")

    def __rtruediv__(self, o):
        return self._binop(o, "div", True)

    def __floordiv__(self, o):
        return self._binop(o, "floordiv")

    def __rfloordiv__(self, o):
        return self._binop(o, "floordiv", True)

    def __mod__(self, o):
        return self._binop(o, "mod")

    def __rmod__(self, o):
        return self._binop(o, "mod", True)

    def __pow__(self, o):
        return self._binop(o, "pow")

    def __rpow__(self, o):
        return self._binop(o, "pow", True)

    def __matmul__(self, o):
        return self._binop(o, "matmul")

    def __rmatmul__(self, o):
        return self._binop(o, "matmul", True)

    def __neg__(self):
        from ..ops import api
        return api.neg(self)

    def __abs__(self):
        from ..ops import api
        return api.abs(self)

    def __eq__(self, o):
        return self._binop(o, "equal")

    def __ne__(self, o):
        return self._binop(o, "not_equal")

    def __lt__(self, o):
        return self._binop(o, "less")

    def __le__(self, o):
        return self._binop(o, "less_equal")

    def __gt__(self, o):
        return self._binop(o, "greater")

    def __ge__(self, o):
        return self._binop(o, "greater_equal")


_DISPATCHES = COUNTERS.labels("eager.dispatch")
_DISPATCH_SECONDS = METRICS.histogram(
    "janus_eager_dispatch_seconds", "Per-op eager dispatch latency.").labels()


class EagerContext(ExecutionContext):
    """Executes ops immediately and records them on active tapes."""

    def convert(self, value, dtype=None):
        if isinstance(value, Tensor):
            if dtype is not None and value.dtype is not dtype:
                raise DTypeError("tensor already has dtype %s"
                                 % value.dtype.name)
            return value
        if isinstance(value, Variable):
            return read_variable(value)
        return Tensor(TensorValue.of(value, dtype=dtype))

    def assign_variable(self, variable, value):
        variable._assign_raw(self.convert(value))
        return variable.value()

    def execute(self, op_def, inputs, attrs):
        # One attribute load + truth test per gate when tracing and
        # metrics are off: the eager dispatch path stays as hot as
        # before.
        if TRACER.level:
            _DISPATCHES.inc()
            COUNTERS.labels("eager.dispatch." + op_def.name).inc()
        dispatch_start = time.perf_counter() if METRICS.enabled else 0.0
        arrays = [t.value.array for t in inputs]
        result = op_def.kernel(attrs, *arrays)
        if isinstance(result, tuple):
            outputs = tuple(Tensor(TensorValue.of(np.asarray(r)))
                            for r in result)
            out_list = list(outputs)
        else:
            outputs = Tensor(TensorValue.of(np.asarray(result)))
            out_list = [outputs]
        if op_def.differentiable:
            tape_module.record_operation(op_def, attrs, inputs, out_list)
        if dispatch_start:
            _DISPATCH_SECONDS.observe(time.perf_counter() - dispatch_start)
        return outputs


_EAGER_CONTEXT = EagerContext()
set_default_context(_EAGER_CONTEXT)


def eager_context():
    """The process-wide eager context instance."""
    return _EAGER_CONTEXT


def read_variable(variable):
    """Read a Variable into a Tensor, notifying active tapes."""
    tensor = Tensor(variable.storage)
    tape_module.record_variable_read(variable, tensor)
    return tensor


def constant(value, dtype=None):
    """Create an eager tensor from a Python value."""
    return _EAGER_CONTEXT.convert(value, dtype=dtype)
