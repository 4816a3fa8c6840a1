"""The type/shape/value specialization lattice (paper figure 4).

Every profiled value — function arguments, heap reads, return values — is
summarized as a :class:`ValueSpec`.  Repeated observations are *merged*
down the lattice: an exact constant relaxes to a shaped tensor, a concrete
shape ``(4, 8)`` relaxes dimension-wise to ``(?, 8)``, and a rank mismatch
relaxes to a tensor of unknown shape.  Assumption failures at runtime
trigger the same merge against the offending value, so JANUS never
regenerates a graph for a shape family it has already generalized over.

Paper correspondence: this module is the *dynamic types* machinery of
§4.2.2 — the type/shape/value assumptions the speculative graph
generator (§4.1, :mod:`repro.janus.graphgen`) burns into specialized
graphs, the prechecks validated at cache retrieval, and the relaxation
(lattice join) performed after the §4.3 imperative fallback.  Every
genuine relaxation — a spec moving strictly down the lattice — emits a
``relax`` trace event (:mod:`repro.observability`) naming the old and
new points, so a trace shows exactly *which* assumption each fallback
cost.
"""

import sys
import threading
import weakref

import numpy as np

from ..imperative.eager import Tensor
from ..imperative.variable import Variable
from ..observability import TRACER
from ..tensor import TensorValue
from ..tensor.shape import Shape

# Spec kinds, ordered roughly top (most specific) to bottom.
CONST_TENSOR = "const_tensor"   # same numeric value every observation
TENSOR = "tensor"               # dtype + (possibly partial) shape
CONST_PY = "const_py"           # a string, by value
CALLABLE = "callable"           # a function / method (by underlying func)
VARIABLE = "variable"           # a repro Variable (by identity)
PYOBJ = "pyobj"                 # arbitrary object, stable type
LIST = "list"                   # list/tuple of element specs
NONE = "none"                   # literal None
BOTTOM = "bottom"               # nothing can be assumed


class CallableRegistry:
    """Stable, non-reusable tokens for callables appearing in cache keys.

    Keying a cache signature by ``id(fn)`` alone is unsound: once the
    callable is garbage-collected, CPython may hand the same address to
    a brand-new function, silently matching a stale cache entry built
    for different code.  The registry instead assigns each distinct
    *live* callable a monotonically increasing token, tracking liveness
    with a weak reference — when the callable dies its slot is cleared,
    so a reallocated callable at a reused address always receives a
    fresh token and can never alias the old entry.

    Callables that do not support weak references (builtins, some
    C-implemented methods) are held strongly; they are module-lifetime
    objects, so pinning them cannot leak meaningfully.

    Token issuance is race-free under concurrent interning: two threads
    asking for the same live callable always receive the same token
    (double-checked insert under the registry lock).  Without that, the
    same function could appear in two cache signatures under two tokens
    and the graph cache would silently compile the entry twice — and
    never hit.  The fast path reads the slot without the lock (a dict
    probe is atomic); only the insert re-checks under the lock.  The
    lock is reentrant because creating a weak reference can trigger a
    garbage-collection pass that runs a *death callback* on this very
    thread while the lock is held — with a plain lock that is a
    self-deadlock.
    """

    def __init__(self):
        self._slots = {}      # id(fn) -> (weakref-or-strong-ref, token)
        self._next_token = 0
        self._lock = threading.RLock()

    @staticmethod
    def _live_token(slot, fn):
        """The slot's token if it still refers to *fn*, else None."""
        if slot is None:
            return None
        ref, token = slot
        target = ref() if isinstance(ref, weakref.ref) else ref
        return token if target is fn else None

    def token_for(self, fn):
        key = id(fn)
        # Lock-free fast path: a populated slot for a live callable is
        # immutable until that callable dies, so a hit needs no lock.
        token = self._live_token(self._slots.get(key), fn)
        if token is not None:
            return token
        with self._lock:
            # Double-check: another thread may have interned fn between
            # the unlocked probe and lock acquisition; issuing a second
            # token here is exactly the double-compile aliasing bug.
            token = self._live_token(self._slots.get(key), fn)
            if token is not None:
                return token
            # Slot absent, or address reuse beat the death callback:
            # issue a fresh token and overwrite.
            token = self._next_token
            self._next_token += 1
            try:
                ref = weakref.ref(fn, self._reaper(key))
            except TypeError:
                ref = fn
            self._slots[key] = (ref, token)
            return token

    def _reaper(self, key):
        def _on_death(dead_ref):
            with self._lock:
                slot = self._slots.get(key)
                # Only clear our own slot: the id may already belong to
                # a newly registered callable.
                if slot is not None and slot[0] is dead_ref:
                    del self._slots[key]
        return _on_death

    def __len__(self):
        return len(self._slots)


#: Process-wide registry backing CALLABLE signatures.
CALLABLE_REGISTRY = CallableRegistry()


class ValueSpec:
    """One point in the specialization lattice."""

    __slots__ = ("kind", "dtype", "shape", "value", "elements", "py_type",
                 "is_tuple", "source")

    def __init__(self, kind, dtype=None, shape=None, value=None,
                 elements=None, py_type=None, is_tuple=False, source=None):
        self.kind = kind
        self.dtype = dtype
        self.shape = shape
        self.value = value
        self.elements = elements
        self.py_type = py_type
        self.is_tuple = is_tuple
        #: For CONST_TENSOR specs observed from a Tensor/TensorValue: the
        #: originating TensorValue, so :func:`spec_digest` can use the
        #: write-barrier version stamp instead of hashing array content
        #: when the value is tracked (sealed buffer => content pinned).
        self.source = source

    # -- constructors ---------------------------------------------------------

    @classmethod
    def bottom(cls):
        return cls(BOTTOM)

    # -- queries ---------------------------------------------------------------

    @property
    def is_tensor_like(self):
        return self.kind in (CONST_TENSOR, TENSOR)

    def signature(self):
        """Hashable cache-key component: type-level info only.

        Two calls with the same signature may share a cache entry; what
        the key leaves open is prechecked by :meth:`precheck`.
        """
        if self.kind in (CONST_TENSOR, TENSOR):
            rank = None if self.shape is None or self.shape.dims is None \
                else len(self.shape.dims)
            return ("T", self.dtype.name, rank)
        if self.kind == CONST_PY:
            return ("C", self.value)
        if self.kind == CALLABLE:
            # Registry token, not raw id(): a GC'd-then-reallocated
            # callable at the same address must not alias a cache entry.
            return ("F", CALLABLE_REGISTRY.token_for(self.value))
        if self.kind == VARIABLE:
            return ("V", self.value.uid)
        if self.kind == PYOBJ:
            return ("P", self.py_type.__qualname__)
        if self.kind == LIST:
            return ("L", self.is_tuple,
                    tuple(e.signature() for e in self.elements))
        if self.kind == NONE:
            return ("N",)
        return ("_",)

    def precheck(self, path):
        """The cache-retrieval check of an argument bound from this spec
        at ``arg_plan`` *path*, or None when :meth:`signature` proves it.

        The key pins a tensor's dtype and rank, a string's value, a
        callable's identity and a sequence's kind, length and element
        types.  It leaves open a constant tensor's value (a CONST_TENSOR
        spec is burned in; a placeholder is bound from a TENSOR one), a
        tensor's known dims, an object's exact type (the key holds only
        its ``__qualname__``) and the identity of a burned-in object or
        Variable (a deep copy keeps a Variable's ``uid``).
        """
        if self.kind == CONST_TENSOR:
            return ArgConstTensor(path[1], self.value)
        if self.kind == TENSOR:
            dims = self.shape.dims if self.shape is not None else None
            if dims and any(d is not None for d in dims):
                return ArgShape(path, self.shape)
            return None
        if self.kind == PYOBJ and self.value is None:
            return ArgTypeIs(path[1], self.py_type)
        if self.kind in (PYOBJ, VARIABLE):
            return ArgIsObject(path[1], self.value)
        return None

    def __getstate__(self):
        # ``source`` pins a live TensorValue so write-barrier digests can
        # use (identity, version); identity is meaningless in another
        # process, so persisted specs drop it and fall back to content
        # hashing on the next digest.
        state = {s: getattr(self, s) for s in self.__slots__}
        state["source"] = None
        return state

    def __setstate__(self, state):
        for s in self.__slots__:
            setattr(self, s, state.get(s))

    def __repr__(self):
        return "Spec(%s)" % describe(self)


def observe(value):
    """Summarize a concrete runtime value as the most specific spec."""
    if value is None:
        return ValueSpec(NONE)
    if isinstance(value, Variable):
        return ValueSpec(VARIABLE, value=value)
    if isinstance(value, (Tensor, TensorValue)):
        tv = value.value if isinstance(value, Tensor) else value
        if tv.is_borrowed:
            # The caller may write its array in place: the constant is a
            # private copy, and nothing pins the caller's buffer.
            return ValueSpec(CONST_TENSOR, dtype=tv.dtype, shape=tv.shape,
                             value=tv.array.copy())
        return ValueSpec(CONST_TENSOR, dtype=tv.dtype, shape=tv.shape,
                         value=tv.array, source=tv)
    if isinstance(value, np.ndarray):
        tv = TensorValue.of(value)
        return ValueSpec(CONST_TENSOR, dtype=tv.dtype, shape=tv.shape,
                         value=tv.array)
    if isinstance(value, (bool, int, float, np.bool_, np.integer,
                          np.floating)):
        tv = TensorValue.of(value if not isinstance(value, np.generic)
                            else value.item())
        return ValueSpec(CONST_TENSOR, dtype=tv.dtype, shape=tv.shape,
                         value=tv.array)
    if isinstance(value, str):
        return ValueSpec(CONST_PY, value=value)
    if callable(value) and not isinstance(value, type):
        target = getattr(value, "__func__", value)
        return ValueSpec(CALLABLE, value=target)
    if isinstance(value, (list, tuple)):
        return ValueSpec(LIST, elements=[observe(v) for v in value],
                         is_tuple=isinstance(value, tuple))
    return ValueSpec(PYOBJ, py_type=type(value), value=value)


def describe(spec):
    """A short human-readable label for a spec (used in trace events)."""
    if spec is None:
        return "none"
    if spec.is_tensor_like:
        return "%s[%s %s]" % (spec.kind, spec.dtype.name, spec.shape)
    if spec.kind == LIST:
        return "%s(%s)" % ("tuple" if spec.is_tuple else "list",
                           ", ".join(describe(e) for e in spec.elements))
    if spec.kind == PYOBJ:
        return "pyobj[%s]" % spec.py_type.__name__
    return spec.kind


def merge(a, b):
    """Lattice join: the most specific spec generalizing both.

    A join that *loses* information (constant -> shaped tensor, concrete
    dim -> ``?``, anything -> bottom) is a relaxation and is reported as
    a ``relax`` trace event when tracing is enabled.
    """
    result = _merge(a, b)
    if TRACER.level and a is not None and b is not None \
            and result is not a and result is not b \
            and _is_relaxation(a, result):
        TRACER.instant("relax", "spec_merge",
                       before=describe(a), observed=describe(b),
                       after=describe(result))
    return result


def _is_relaxation(before, after):
    """Did the join move strictly down the lattice (lose an assumption)?"""
    if before.kind == BOTTOM:
        return False    # already at the bottom: nothing left to lose
    if after.kind == BOTTOM or after.kind != before.kind:
        return True
    if before.is_tensor_like and after.is_tensor_like:
        before_dims = None if before.shape is None else before.shape.dims
        after_dims = None if after.shape is None else after.shape.dims
        return before_dims != after_dims
    return False


def _merge(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a.kind == BOTTOM or b.kind == BOTTOM:
        return ValueSpec.bottom()
    if a.is_tensor_like and b.is_tensor_like:
        if a.dtype is not b.dtype:
            return ValueSpec.bottom()
        if a.kind == CONST_TENSOR and b.kind == CONST_TENSOR and \
                a.value.shape == b.value.shape and \
                np.array_equal(a.value, b.value):
            return a
        shape = a.shape.relax_against(b.shape)
        return ValueSpec(TENSOR, dtype=a.dtype, shape=shape)
    if a.kind != b.kind:
        return ValueSpec.bottom()
    if a.kind == NONE:
        return a
    if a.kind == CONST_PY:
        return a if a.value == b.value else ValueSpec.bottom()
    if a.kind in (CALLABLE, VARIABLE):
        return a if a.value is b.value else ValueSpec.bottom()
    if a.kind == PYOBJ:
        if a.py_type is b.py_type:
            same = a.value is b.value and a.value is not None
            return ValueSpec(PYOBJ, py_type=a.py_type,
                             value=a.value if same else None)
        return ValueSpec.bottom()
    if a.kind == LIST:
        if a.is_tuple != b.is_tuple or len(a.elements) != len(b.elements):
            return ValueSpec.bottom()
        return ValueSpec(LIST, is_tuple=a.is_tuple,
                         elements=[merge(x, y) for x, y in
                                   zip(a.elements, b.elements)])
    return ValueSpec.bottom()


def relax_constants(spec):
    """Drop value-level assumptions, keeping dtype/shape (lattice step)."""
    if spec.kind == CONST_TENSOR:
        return ValueSpec(TENSOR, dtype=spec.dtype, shape=spec.shape)
    if spec.kind == LIST:
        return ValueSpec(LIST, is_tuple=spec.is_tuple,
                         elements=[relax_constants(e)
                                   for e in spec.elements])
    return spec


def _as_array(value):
    if isinstance(value, Tensor):
        return value.value.array
    if isinstance(value, TensorValue):
        return value.array
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, (bool, int, float, np.bool_, np.integer,
                          np.floating)):
        return TensorValue.of(value if not isinstance(value, np.generic)
                              else value.item()).array
    return None


class Precheck:
    """Base for cache-retrieval prechecks (paper figure 2 (1)).

    Prechecks are small callable *objects*, not closures, so persisted
    artifacts (:mod:`repro.janus.diskcache`) can pickle them alongside
    the graph.  Each is called with the positional-argument tuple and
    returns whether the burned-in assumption still holds.

    ``portable`` marks whether the check is meaningful in a different
    process: value/shape/type checks are, identity (``is``) checks pin
    objects of *this* process and are not.  The serialization layer
    refuses to persist artifacts carrying non-portable prechecks.
    """

    __slots__ = ()
    portable = True


class ArgConstTensor(Precheck):
    """Argument ``index`` equals a burned-in constant tensor.

    The content comparison is memoized through the write barrier: after
    a full ``np.array_equal`` match against a tracked (sealed)
    TensorValue, the pair ``(value, version)`` is remembered.  A sealed
    buffer cannot change content without a COW rebind (new ``array``
    identity under the same TensorValue, version bumped) — so seeing
    the same TensorValue at the same version proves equality with two
    identity checks instead of an O(n) element compare.  Signatures
    carrying many constant tensor arguments (frozen weights passed
    positionally, ResNet-style) pay the full compare only on the first
    call per distinct tensor object.

    The memo is per-process bookkeeping: it pins a live TensorValue, so
    pickling for the disk cache drops it (the loading process re-earns
    it on first match).
    """

    __slots__ = ("index", "value", "_memo")

    def __init__(self, index, value):
        self.index = index
        self.value = np.asarray(value)
        self._memo = None    # (TensorValue, version) of the last match

    def __getstate__(self):
        return (self.index, self.value)

    def __setstate__(self, state):
        self.index, self.value = state
        self._memo = None

    def __call__(self, args):
        value = args[self.index]
        tv = value.value if isinstance(value, Tensor) else \
            value if isinstance(value, TensorValue) else None
        if tv is not None:
            memo = self._memo    # local ref: racing writers can't tear
            if memo is not None and memo[0] is tv \
                    and memo[1] == tv.version:
                return True
            arr = tv.array
        else:
            arr = _as_array(value)    # the key proves it is tensor-like
        ok = arr.dtype == self.value.dtype \
            and arr.shape == self.value.shape \
            and np.array_equal(arr, self.value)
        if ok and tv is not None and (tv.tracked or tv.track()):
            self._memo = (tv, tv.version)
        return ok


class ArgShape(Precheck):
    """The tensor at ``arg_plan`` *path* (``("arg", i)`` or ``("item",
    i, j)``, read as ``bind_feeds`` reads it) has the known dims of
    *shape*; dtype and rank are the cache key's to check."""

    __slots__ = ("path", "dims")

    def __init__(self, path, shape):
        self.path = tuple(path)
        self.dims = Shape.of(shape).dims

    def __call__(self, args):
        value = args[self.path[1]]
        if len(self.path) == 3:
            value = value[self.path[2]]
        for want, got in zip(self.dims, _as_array(value).shape):
            if want is not None and want != got:
                return False
        return True


class ArgIsObject(Precheck):
    """Argument ``index`` is a specific object (identity)."""

    __slots__ = ("index", "obj")
    portable = False

    def __init__(self, index, obj):
        self.index = index
        self.obj = obj

    def __call__(self, args):
        return args[self.index] is self.obj


class ArgTypeIs(Precheck):
    """Argument ``index`` has exactly a burned-in type (identity)."""

    __slots__ = ("index", "py_type")
    portable = False

    def __init__(self, index, py_type):
        self.index = index
        self.py_type = py_type

    def __call__(self, args):
        return type(args[self.index]) is self.py_type


class GlobalEquals(Precheck):
    """A module global read at conversion time still has its old value.

    Portable form: when the converted function's globals *are* its
    module's ``__dict__`` (the common case) and the burned-in value is a
    plain scalar, the check stores only ``(module name, global name,
    value)`` and re-resolves through ``sys.modules`` in the loading
    process.  Otherwise (exec'd functions, synthetic globals, rich
    values) it pins the function object itself and is not portable.
    """

    __slots__ = ("module", "name", "value", "target", "portable")

    def __init__(self, target, name, value):
        self.name = name
        self.value = value
        mod = getattr(target, "__module__", None)
        module = sys.modules.get(mod) if mod else None
        if module is not None \
                and getattr(target, "__globals__", None) is module.__dict__ \
                and (value is None
                     or isinstance(value, (bool, int, float, str))):
            self.module = mod
            self.target = None
            self.portable = True
        else:
            self.module = None
            self.target = target
            self.portable = False

    def __call__(self, args):
        if self.target is not None:
            globals_dict = self.target.__globals__
        else:
            module = sys.modules.get(self.module)
            if module is None:
                return False
            globals_dict = module.__dict__
        return self.name in globals_dict \
            and globals_dict[self.name] == self.value


def expected_attr_spec(spec):
    """Encode a spec as the ``expected`` attr of a py_get node."""
    if spec is None or spec.kind == BOTTOM:
        return None
    if spec.is_tensor_like:
        return ("tensor", spec.dtype, spec.shape)
    if spec.kind == PYOBJ:
        return ("pyref", spec.py_type.__name__)
    return None


def spec_digest(spec):
    """Hashable token capturing *everything* a graph burns in from a spec.

    Unlike :meth:`ValueSpec.signature` (type-level only, used for cache
    keys), this includes concrete shapes and constant values, because the
    incremental regenerator (:mod:`repro.janus.fragments`) uses digest
    equality to decide whether a cached conversion artifact built under
    the old spec is still exact under the new one.  Two specs with equal
    digests must produce identical converted graphs.
    """
    if spec is None:
        return ("none",)
    if spec.kind == CONST_TENSOR:
        dims = None if spec.shape is None else spec.shape.dims
        src = spec.source
        if src is not None and src.array is spec.value \
                and (src.tracked or src.track()):
            # Write-barrier fast path: a sealed buffer cannot change
            # content without a COW rebind (which breaks the ``is``
            # check) or a version bump, so (identity, version) is an
            # exact stand-in for the content hash.  An untracked but
            # trackable source is sealed here so the digest shape never
            # flips untracked→tracked across regenerations (the flip
            # would spuriously invalidate matching specs once).  The
            # spec pins ``src`` alive through its slot, so the id
            # cannot be reused while this digest is comparable.
            return (spec.kind, spec.dtype.name, dims, spec.value.shape,
                    "wbv", id(src), src.version)
        arr = np.asarray(spec.value)
        if arr.nbytes <= 4096:
            return (spec.kind, spec.dtype.name, dims, arr.shape,
                    arr.tobytes())
        return (spec.kind, spec.dtype.name, dims, arr.shape, id(spec.value))
    if spec.kind == TENSOR:
        dims = None if spec.shape is None else spec.shape.dims
        return (spec.kind, spec.dtype.name, dims)
    if spec.kind == CONST_PY:
        return (spec.kind, spec.value)
    if spec.kind == CALLABLE:
        return (spec.kind, CALLABLE_REGISTRY.token_for(spec.value))
    if spec.kind == VARIABLE:
        return (spec.kind, spec.value.uid)
    if spec.kind == PYOBJ:
        return (spec.kind, spec.py_type.__qualname__,
                None if spec.value is None else id(spec.value))
    if spec.kind == LIST:
        return (spec.kind, spec.is_tuple,
                tuple(spec_digest(e) for e in spec.elements))
    return (spec.kind,)
