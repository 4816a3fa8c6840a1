"""Symbolic values of the conversion, and the analyses over them.

What an environment name can hold while a body converts: a graph edge
(:class:`~repro.graph.core.NodeOutput`), a build-time constant
(:class:`Const`), or a Python container / callable / iterable whose
*structure* is known at build time while its leaves are symbolic.  The
flatten / rebuild pair moves such values across a graph boundary
(function outputs, cond captures, loop-carried state); the structure
and environment tokens summarise them for fragment validation
(:mod:`repro.janus.fragments`); the AST name analyses decide what a
region captures and what it binds.
"""

import ast
import copy

import numpy as np

from ...errors import NotConvertible
from ...graph.core import NodeOutput
from ...tensor import dtype as dtypes
from ...tensor.shape import Shape
from .. import fragments as frag_mod


class Const:
    """A Python value fully known at graph-build time."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Const(%r)" % (self.value,)


class SymSeq:
    """A list/tuple with build-time-known structure of symbolic elements."""

    __slots__ = ("elements", "is_tuple")

    def __init__(self, elements, is_tuple=False):
        self.elements = list(elements)
        self.is_tuple = is_tuple

    def __repr__(self):
        return "SymSeq(%d%s)" % (len(self.elements),
                                 ", tuple" if self.is_tuple else "")


class SymDict:
    """A dict with constant keys and symbolic values."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = dict(entries)


class SymFunc:
    """A nested def / lambda, inlined at call sites."""

    __slots__ = ("fdef", "env", "owner_func", "name")

    def __init__(self, fdef, env, owner_func, name):
        self.fdef = fdef
        self.env = env
        self.owner_func = owner_func
        self.name = name


class SymRange:
    """A range over (possibly symbolic) scalar bounds."""

    __slots__ = ("start", "stop", "step")

    def __init__(self, start, stop, step):
        self.start = start
        self.stop = stop
        self.step = step


class StackedList:
    """A list of same-shaped tensors lowered to one stacked tensor.

    Appears when a Python list must cross a dynamic-loop boundary; the
    accumulator tensor grows along axis 0 (a TensorArray in TF terms).
    """

    __slots__ = ("tensor",)

    def __init__(self, tensor):
        self.tensor = tensor


class SymEnumerate:
    __slots__ = ("inner", "start")

    def __init__(self, inner, start):
        self.inner = inner
        self.start = start


class SymZip:
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


MISSING = object()

#: Immutable framework/builtin types whose attributes and methods are
#: safe to evaluate at graph-build time.
CONST_EVAL_TYPES = (Shape, dtypes.DType, tuple, str, range, bytes,
                    frozenset, bool, int, float, complex)


def holds_graph_value(value):
    if isinstance(value, (NodeOutput, StackedList)):
        return True
    if isinstance(value, SymSeq):
        return any(holds_graph_value(e) for e in value.elements)
    if isinstance(value, SymDict):
        return any(holds_graph_value(v) for v in value.entries.values())
    return False


def leading_dim(tensor):
    """Static size of axis 0, or None when the shape does not fix it."""
    return tensor.shape[0] if tensor.shape.dims else None


def wrap_external(value):
    """Wrap a raw Python value produced by constant folding."""
    if isinstance(value, (list, tuple)):
        return SymSeq([wrap_external(v) for v in value],
                      is_tuple=isinstance(value, tuple))
    return Const(value)


# ---------------------------------------------------------------------------
# flatten / rebuild of structured symbolic values
# ---------------------------------------------------------------------------

def flatten_value(value, flat):
    """Flatten a symbolic value into graph edges; return a structure spec."""
    if isinstance(value, NodeOutput):
        flat.append(value)
        return ("edge",)
    if isinstance(value, StackedList):
        flat.append(value.tensor)
        return ("stacked",)
    if isinstance(value, SymSeq):
        return ("seq", value.is_tuple,
                tuple(flatten_value(e, flat) for e in value.elements))
    if isinstance(value, SymDict):
        keys = tuple(value.entries.keys())
        return ("dict", keys,
                tuple(flatten_value(value.entries[k], flat) for k in keys))
    if isinstance(value, Const):
        return ("const", value.value)
    if value is None:
        return ("const", None)
    raise NotConvertible("value %r cannot cross a graph boundary" % (value,),
                         feature="boundary")


def rebuild_value(structure, flat_iter):
    kind = structure[0]
    if kind == "edge":
        return next(flat_iter)
    if kind == "stacked":
        return StackedList(next(flat_iter))
    if kind == "seq":
        _, is_tuple, parts = structure
        return SymSeq([rebuild_value(p, flat_iter) for p in parts],
                      is_tuple=is_tuple)
    if kind == "dict":
        _, keys, parts = structure
        return SymDict({k: rebuild_value(p, flat_iter)
                        for k, p in zip(keys, parts)})
    if kind == "const":
        return Const(structure[1])
    raise NotConvertible("bad structure %r" % (structure,))


def structures_compatible(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == "seq":
        return a[1] == b[1] and len(a[2]) == len(b[2]) and \
            all(structures_compatible(x, y) for x, y in zip(a[2], b[2]))
    if a[0] == "dict":
        return a[1] == b[1] and \
            all(structures_compatible(x, y) for x, y in zip(a[2], b[2]))
    if a[0] == "const":
        va, vb = a[1], b[1]
        if isinstance(va, np.ndarray):
            return type(va) is type(vb) and np.array_equal(va, vb)
        return va is vb or va == vb
    return True


# ---------------------------------------------------------------------------
# tokens for fragment validation
# ---------------------------------------------------------------------------

def _structure_token(structure, keep):
    """Hashable digest of a flatten_value structure spec.

    Const leaves are burned into converted fragments by value, so they
    digest by content (via fragments.value_digest); edge leaves carry no
    value — their shapes/dtypes are validated through the capture plan.
    """
    kind = structure[0]
    if kind in ("edge", "stacked"):
        return (kind,)
    if kind in ("seq", "dict"):
        return (kind, structure[1],
                tuple(_structure_token(p, keep) for p in structure[2]))
    if kind == "const":
        return ("const", frag_mod.value_digest(structure[1], keep))
    return ("?",)


def _sym_digest(value, keep, depth=0):
    if isinstance(value, Const):
        return ("c", frag_mod.value_digest(value.value, keep))
    if value is None:
        return ("c", ("val", "NoneType", None))
    if isinstance(value, SymSeq):
        if depth >= 3 or len(value.elements) > 32:
            return ("unsum", object())
        return ("seq", value.is_tuple,
                tuple(_sym_digest(e, keep, depth + 1)
                      for e in value.elements))
    if isinstance(value, SymDict):
        if depth >= 3 or len(value.entries) > 32:
            return ("unsum", object())
        return ("map", tuple((k, _sym_digest(v, keep, depth + 1))
                             for k, v in value.entries.items()))
    if isinstance(value, SymRange):
        return ("rng", _sym_digest(value.start, keep, depth + 1),
                _sym_digest(value.stop, keep, depth + 1),
                _sym_digest(value.step, keep, depth + 1))
    # SymFunc environments and anything else defy a cheap summary:
    # a fresh sentinel never compares equal, so regions reading such
    # values always reconvert rather than risk a stale splice.
    return ("unsum", object())


def env_token(value, keep=None):
    """How an env name currently resolves, for fragment validation."""
    if holds_graph_value(value):
        return ("graph", _structure_token(flatten_value(value, []), keep))
    return ("const", _sym_digest(value, keep))


# ---------------------------------------------------------------------------
# AST analysis helpers
# ---------------------------------------------------------------------------

#: Nested scopes: what they bind or raise is not the enclosing body's.
_SCOPES = (ast.FunctionDef, ast.Lambda)


def _nodes(stmts, opaque=()):
    """Every AST node under *stmts*; *opaque* node types are yielded but
    not descended into."""
    todo = list(stmts)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, opaque):
            todo.extend(ast.iter_child_nodes(node))


def assigned_names(stmts):
    """Names bound anywhere in a statement list (no nested defs)."""
    names = set()
    for node in _nodes(stmts, _SCOPES):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Name) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
    return names


def read_names(stmts):
    return {node.id for node in _nodes(stmts)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def contains_raise(stmts):
    return any(isinstance(node, ast.Raise)
               for node in _nodes(stmts, _SCOPES))


def always_returns(stmts):
    """Conservative: does every path through ``stmts`` hit a return/raise?"""
    for stmt in stmts:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return True
        if isinstance(stmt, ast.If):
            if stmt.orelse and always_returns(stmt.body) and \
                    always_returns(stmt.orelse):
                return True
        if isinstance(stmt, (ast.With, ast.Try)) and \
                always_returns(stmt.body):
            return True
    return False


def as_load(target):
    """A copy of an assignment target that reads what the target names."""
    load = copy.deepcopy(target)
    for node in ast.walk(load):
        if hasattr(node, "ctx"):
            node.ctx = ast.Load()
    return load
