"""Operation registry.

Every primitive operation in the system — whether executed eagerly, run by
the dataflow graph executor, or differentiated — is described once by an
``OpDef``:

* ``bind(attrs)``: the numpy forward computation with the attributes of
  one node already read — a callable over the node's arrays alone.  The
  graph executor evaluates it once per node when it compiles a program,
  so a run calls numpy (or one thin closure) with nothing left to
  decode; ``kernel(attrs, *arrays)`` is the same computation for one
  call, what the eager executor and constant folding run.  An op is
  registered with one of the two bodies and the other is derived from
  it, so its semantics are written once,
* ``shape_fn(attrs, input_shapes, input_dtypes)``: static shape/dtype
  inference over possibly-partial shapes (used by the graph generator and
  the specialization machinery),
* ``grad_fn(ctx, grads)``: the gradient, written against the dispatching
  API in :mod:`repro.ops.api` so the very same definition records onto an
  eager tape *and* builds symbolic gradient subgraphs.

Stateful ops (random, assertions, variable and Python-heap access) are
flagged so the graph optimizer never folds or deduplicates them.
"""

from functools import partial

from ..errors import GraphError


def _call_bound(bind, attrs, *arrays):
    """The kernel of an op registered with ``bind``: bind, then call."""
    return bind(attrs)(*arrays)


class OpDef:
    """Immutable description of a primitive operation.

    Exactly one of ``kernel`` and ``bind`` is given; the other is
    derived.  Of an op registered with a ``kernel``, ``bind(attrs)`` is
    ``partial(kernel, attrs)``; of one registered with ``bind``,
    ``kernel(attrs, *arrays)`` is ``bind(attrs)(*arrays)``.  A bound
    callable reads its attributes when it is made: a compiled node's
    attrs are never mutated after that.
    """

    __slots__ = ("name", "kernel", "bind", "shape_fn", "grad_fn",
                 "num_outputs", "stateful", "commutative")

    def __init__(self, name, kernel, shape_fn, grad_fn=None, num_outputs=1,
                 stateful=False, commutative=False, bind=None):
        if (kernel is None) == (bind is None):
            raise GraphError("op %r needs exactly one of kernel and bind"
                             % name)
        self.name = name
        self.kernel = partial(_call_bound, bind) if kernel is None \
            else kernel
        self.bind = partial(partial, kernel) if bind is None else bind
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
        if _REGISTRY.get(self.name) is not self:
            raise TypeError(
                "cannot pickle non-registered OpDef %r" % self.name)
        return (get_op, (self.name,))

    def __repr__(self):
        return "OpDef(%s)" % self.name


_REGISTRY = {}


def register_op(name, shape_fn, kernel=None, bind=None, num_outputs=1,
                stateful=False, commutative=False):
    """Register a new primitive op with its ``kernel`` or its ``bind``
    body (see :class:`OpDef`); returns the OpDef."""
    if name in _REGISTRY:
        raise GraphError("op %r registered twice" % name)
    op_def = OpDef(name, kernel, shape_fn, None, num_outputs, stateful,
                   commutative, bind)
    _REGISTRY[name] = op_def
    return op_def


def register_gradient(name):
    """Decorator attaching a gradient function to a registered op."""
    def deco(fn):
        _REGISTRY[name].grad_fn = fn
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
