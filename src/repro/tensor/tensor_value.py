"""Concrete tensor values.

``TensorValue`` is the runtime payload flowing along dataflow-graph edges
and held by eager tensors: an immutable-by-convention numpy array plus one
of our interned dtypes.  Non-numerical Python values crossing the graph
boundary are carried by ``PyRef`` handles, mirroring the paper's rule of
converting arbitrary objects into scalar tensors holding pointers into the
Python heap (section 4.2.2).

Write barrier (``docs/compilation.md#write-barrier``): every TensorValue
carries a monotonically increasing ``version`` stamp, bumped by each
sanctioned in-place write (:meth:`TensorValue.inplace_write` — the backend
of eager ``Tensor.assign_/add_/...``).  A value enrolled in a guarded
heap-read memo is *sealed* (:meth:`TensorValue.track`): its numpy buffer
is made read-only, so unsanctioned in-place mutation raises instead of
silently bypassing an assumption guard, and sanctioned writes go through a
copy-on-write step that rebinds ``array`` to a private buffer.  Identity
plus version therefore pins content — the soundness condition that lets
the graph executor extend its identity memo to heap Tensor reads (JANUS
section 4.2's guards must observe every state change before graph reuse).
"""

import numpy as np

from . import dtype as dtypes
from .dtype import DType
from .shape import Shape

#: Ownership modes.  UNKNOWN: provenance unclear (may alias a caller's
#: ndarray), in-place writes copy unless the buffer is demonstrably ours.
#: PRIVATE: exclusively owned (post-COW), writes go straight through.
#: SEALED: enrolled in a guarded memo, buffer frozen, writes always COW.
#: BORROWED: wraps an ndarray its caller passed and still holds; never
#: sealed, so the caller's array stays writeable (in-place writes as
#: UNKNOWN).
_UNKNOWN, _PRIVATE, _SEALED, _BORROWED = 0, 1, 2, 3

_OBS = None


def _obs():
    """Lazy (cow-copy counter, TRACER) import — tensor is below
    observability."""
    global _OBS
    if _OBS is None:
        from ..observability import COUNTERS, TRACER
        _OBS = (COUNTERS.labels("tensor.cow_copies"), TRACER)
    return _OBS


class TensorValue:
    """A concrete n-dimensional array with a fixed repro dtype."""

    __slots__ = ("array", "dtype", "version", "_mode")

    def __init__(self, array, dtype=None):
        self.version = 0
        self._mode = _UNKNOWN
        if isinstance(array, TensorValue):
            dtype = dtype or array.dtype
            array = array.array
        if dtype is not None:
            dtype = DType.of(dtype)
            array = np.asarray(array, dtype=dtype.np_dtype)
        else:
            array = np.asarray(array)
            if array.dtype == np.float64:
                # Match DL-framework convention: python floats are float32.
                if not isinstance(array, np.ndarray) or array.base is None:
                    pass
            dtype = DType.of(array.dtype)
        self.array = array
        self.dtype = dtype

    @classmethod
    def private(cls, array, dtype):
        """A value owning *array* — a fresh ndarray already of *dtype*'s
        numpy type that nothing else holds: no coercion, no dtype lookup,
        and in-place writes go straight through."""
        value = cls.__new__(cls)
        value.array, value.dtype = array, dtype
        value.version, value._mode = 0, _PRIVATE
        return value

    @classmethod
    def borrowed(cls, array):
        """A value over *array*, an ndarray a caller passed and may
        still write: :meth:`track` refuses it."""
        value = cls(array)
        value._mode = _BORROWED
        return value

    @classmethod
    def of(cls, value, dtype=None):
        """Coerce scalars, lists, numpy arrays, or TensorValues."""
        if isinstance(value, TensorValue) and dtype is None:
            return value
        if dtype is None and isinstance(value, (bool, int, float)):
            dtype = dtypes.from_python_scalar(value)
        if dtype is None and isinstance(value, (list, tuple)):
            probe = np.asarray(value)
            if probe.dtype == np.float64:
                dtype = dtypes.default_float
            elif probe.dtype == np.int64:
                dtype = dtypes.default_int
        return cls(value, dtype=dtype)

    @property
    def shape(self):
        return Shape(self.array.shape)

    @property
    def ndim(self):
        return self.array.ndim

    @property
    def size(self):
        return self.array.size

    def item(self):
        return self.array.item()

    def numpy(self):
        return self.array

    def astype(self, dtype):
        dtype = DType.of(dtype)
        return TensorValue(self.array.astype(dtype.np_dtype), dtype)

    def copy(self):
        return TensorValue.private(self.array.copy(), self.dtype)

    # -- write barrier -----------------------------------------------------

    @property
    def tracked(self):
        """Whether this value is sealed behind the write barrier."""
        return self._mode == _SEALED

    @property
    def is_borrowed(self):
        """Whether the buffer is a caller's (:meth:`borrowed`)."""
        return self._mode == _BORROWED

    def track(self):
        """Seal the buffer for enrollment in a guarded identity memo.

        Returns True when ``id(self)`` plus ``version`` pin the content
        from here on: the buffer is frozen (unsanctioned in-place writes
        raise ``ValueError: assignment destination is read-only``) and
        every sanctioned write copies first.  Refuses — returning False,
        leaving the value unmemoizable — when the array is a view (a
        frozen view still sees writes through its writable base, so
        freezing it would pin nothing) or a caller's (:meth:`borrowed`).
        """
        if self._mode == _SEALED:
            return True
        if self._mode == _BORROWED:
            return False
        arr = self.array
        if arr.base is not None or not arr.flags.owndata:
            return False
        try:
            arr.flags.writeable = False
        except ValueError:
            return False
        self._mode = _SEALED
        return True

    def inplace_write(self, write):
        """Apply an in-place mutation through the barrier.

        *write* receives a writable ndarray to mutate.  Sealed,
        read-only, or possibly-aliased buffers are copied first
        (copy-on-write: concurrent holders of the old buffer — memo
        entries, previously read tensors — keep the content they
        validated), then the version stamp is bumped so stale memo
        entries and version-token digests miss.
        """
        arr = self.array
        if self._mode == _SEALED or arr.base is not None \
                or not arr.flags.owndata or not arr.flags.writeable:
            arr = arr.copy()
            self.array = arr
            self._mode = _PRIVATE
            cow_copies, tracer = _obs()
            if tracer.level:
                cow_copies.inc()
        write(arr)
        self.version += 1
        return self

    def __reduce__(self):
        # Version stamps and seal state are per-process write-barrier
        # bookkeeping; a deserialized value starts life as a fresh,
        # untracked tensor in the loading process.
        return (TensorValue, (self.array, self.dtype))

    def __repr__(self):
        return "TensorValue(dtype=%s, shape=%s)" % (
            self.dtype.name, tuple(self.array.shape))


class PyRef:
    """A graph-crossing handle to an arbitrary Python object.

    The paper converts non-numerical Python values into integer scalar
    tensors holding heap pointers; PyRef is the explicit, safe analogue.
    Identity (``is``) of the wrapped object is what matters.
    """

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __repr__(self):
        return "PyRef(%s at 0x%x)" % (type(self.obj).__name__, id(self.obj))

    def __eq__(self, other):
        return isinstance(other, PyRef) and other.obj is self.obj

    def __hash__(self):
        return id(self.obj)


def is_numeric_pyvalue(value):
    """True when a Python value converts to a numeric tensor (basic rule).

    Scalars, lists of numbers, and numpy arrays become tensors; everything
    else rides as a PyRef (paper section 4.2.2 basic translation rules).
    """
    if isinstance(value, (bool, int, float, np.ndarray, TensorValue)):
        return True
    if isinstance(value, (list, tuple)):
        try:
            arr = np.asarray(value)
        except (ValueError, TypeError):
            return False
        return arr.dtype.kind in "bif"
    return False
