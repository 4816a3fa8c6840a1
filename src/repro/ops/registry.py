"""Operation registry.

Every primitive operation in the system — whether executed eagerly, run by
the dataflow graph executor, or differentiated — is described once by an
``OpDef``:

* ``kernel(attrs, *arrays)``: the numpy forward computation (and, for
  the thin elementwise ops, ``direct(*arrays)``: the attrs-free callable
  the kernel wraps, which compiled programs call without the wrapper),
* ``shape_fn(attrs, input_shapes, input_dtypes)``: static shape/dtype
  inference over possibly-partial shapes (used by the graph generator and
  the specialization machinery),
* ``grad_fn(ctx, grads)``: the gradient, written against the dispatching
  API in :mod:`repro.ops.api` so the very same definition records onto an
  eager tape *and* builds symbolic gradient subgraphs.

Stateful ops (random, assertions, variable and Python-heap access) are
flagged so the graph optimizer never folds or deduplicates them.
"""

from ..errors import GraphError


class OpDef:
    """Immutable description of a primitive operation."""

    __slots__ = ("name", "kernel", "shape_fn", "grad_fn", "num_outputs",
                 "stateful", "commutative", "direct")

    def __init__(self, name, kernel, shape_fn, grad_fn=None, num_outputs=1,
                 stateful=False, commutative=False, direct=None):
        self.name = name
        self.kernel = kernel
        #: ``kernel`` without its ``attrs`` parameter, when the kernel
        #: only forwards its arrays to it; None otherwise.
        self.direct = direct
        self.shape_fn = shape_fn
        self.grad_fn = grad_fn
        self.num_outputs = num_outputs
        self.stateful = stateful
        self.commutative = commutative

    @property
    def differentiable(self):
        return self.grad_fn is not None

    def __reduce__(self):
        # OpDefs pickle by name and rehydrate from the registry of the
        # loading process; kernels/grad closures never cross processes.
        # Synthesized defs (fused kernels) are exec-generated and must
        # not be persisted — serialization snapshots graphs pre-fusion.
        if _REGISTRY.get(self.name) is not self:
            raise TypeError(
                "cannot pickle non-registered OpDef %r" % self.name)
        return (get_op, (self.name,))

    def __repr__(self):
        return "OpDef(%s)" % self.name


_REGISTRY = {}


def register_op(name, kernel, shape_fn, num_outputs=1, stateful=False,
                commutative=False, direct=None):
    """Register a new primitive op; returns the OpDef."""
    if name in _REGISTRY:
        raise GraphError("op %r registered twice" % name)
    op_def = OpDef(name, kernel, shape_fn, None, num_outputs, stateful,
                   commutative, direct)
    _REGISTRY[name] = op_def
    return op_def


def register_gradient(name):
    """Decorator attaching a gradient function to a registered op."""
    def deco(fn):
        op_def = _REGISTRY[name]
        object.__setattr__ if False else None
        # OpDef uses __slots__; assign directly.
        op_def.grad_fn = fn
        return fn
    return deco


def get_op(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise GraphError("unknown op %r" % name) from None


def has_op(name):
    return name in _REGISTRY


def all_ops():
    return dict(_REGISTRY)


class GradContext:
    """What a gradient function is allowed to see about the forward op.

    ``inputs`` and ``outputs`` are *handles* — eager tensors when invoked
    from the tape, symbolic nodes when invoked by graph autodiff.  Because
    gradient functions only combine these handles through the dispatching
    API, one definition serves both execution modes.
    """

    __slots__ = ("op_name", "attrs", "inputs", "outputs")

    def __init__(self, op_name, attrs, inputs, outputs):
        self.op_name = op_name
        self.attrs = attrs
        self.inputs = inputs
        self.outputs = outputs
