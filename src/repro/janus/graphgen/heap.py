"""Attribute and subscript access (paper section 4.2.3).

Reads of the Python heap become ``py_get_attr``/``py_get_subscr`` nodes
carrying the profiled type as a runtime assumption; writes become
``py_set_*`` nodes whose effect is deferred to the all-or-nothing commit.
Values the profile showed stable — and everything structural (modules,
callables, sub-modules, hyperparameter containers) — burn in as
build-time constants instead.
"""

import ast
import types

import numpy as np

from ...errors import NotConvertible
from ...graph.core import NodeOutput
from ...imperative.eager import Tensor
from ...imperative.variable import Variable
from ...ops import api
from ...tensor import TensorValue, PyRef
from ...tensor.shape import Shape
from .. import fragments as frag_mod
from .. import specialization as spec
from ..coverage import has_custom_accessors
from .converter import handles
from .values import (CONST_EVAL_TYPES, MISSING, Const, StackedList,
                     SymDict, SymSeq, wrap_external)


def _guarded_read(conv, kind, owner, key, site, expected=None):
    """Emit a heap read that validates *expected* when it runs; the node
    names its profiler site so a failed assumption relaxes that site."""
    emit = conv.builder.py_get_attr if kind == "attr" \
        else conv.builder.py_get_subscr
    out = emit(owner, key, expected=expected)
    out.node.attrs["prof_site"] = (kind, site)
    return out


def _expected(profiled, exact):
    """A profiled spec as a read's assumption: *exact* (constant values
    included, what +SPCN asks for) or its dtype/shape only."""
    if profiled is not None and not exact:
        profiled = spec.relax_constants(profiled)
    return spec.expected_attr_spec(profiled)


# -- attribute loads -----------------------------------------------------------

@handles(ast.Attribute)
def _attribute(conv, node):
    owner = conv.expr(node.value)
    name, site = node.attr, conv.site(node, "attr")
    if isinstance(owner, Const):
        return _load_const_attr(conv, owner.value, name, site)
    if isinstance(owner, NodeOutput):
        if owner.dtype is None:
            return _load_heap_attr(conv, owner, name, site)
        return _load_tensor_attr(owner, name)
    raise NotConvertible("attribute %r on %r" % (name, owner),
                         feature="attribute")


def _load_const_attr(conv, obj, name, site):
    if isinstance(obj, CONST_EVAL_TYPES):
        return wrap_external(getattr(obj, name))
    if has_custom_accessors(obj) and not isinstance(
            obj, (types.ModuleType, type)):
        raise NotConvertible("object with custom accessors",
                             feature="custom-setattr")
    try:
        value = getattr(obj, name)
    except AttributeError:
        # The attribute is created later by a heap write in this same
        # graph; fall back to a dynamic heap read.
        return _load_heap_attr(conv, PyRef(obj), name, site)

    def digest(keep=None):
        # Tensor-valued attributes digest as ("dyn",) on both sides
        # (they are read through guarded heap-read nodes, not burned),
        # so recording the dependency unconditionally is safe.
        return frag_mod.attr_digest(obj, name, keep)

    conv.gen.value_dep(("attrval", name), digest, keep=[obj])
    if isinstance(value, Variable) or callable(value) or \
            isinstance(value, (types.ModuleType, type)):
        return Const(value)
    if isinstance(value, (bool, int, float)):
        # Scalar hyperparameters that held one value throughout
        # profiling become build-time constants guarded by a runtime
        # value check (paper 4.2.2: stable expressions fold to
        # constants); an unstable scalar stays a dynamic heap read.
        profiled = conv.gen.profile("attr_spec", site, owner=obj)
        if profiled is not None and profiled.kind == spec.CONST_TENSOR:
            _guarded_read(conv, "attr", PyRef(obj), name, site,
                          ("const", profiled.dtype, profiled.value))
            return Const(value)
        return _guarded_read(conv, "attr", PyRef(obj), name, site,
                             spec.expected_attr_spec(profiled))
    if isinstance(value, (Tensor, np.ndarray, np.generic)):
        # Numeric instance state is mutable: read through the heap
        # with the profiled spec as a runtime assumption.
        profiled = conv.gen.profile("attr_spec", site, owner=obj)
        exact = conv.gen.config.specialize_types
        return _guarded_read(conv, "attr", PyRef(obj), name, site,
                             _expected(profiled, exact))
    if isinstance(value, (list, tuple)) and value and \
            all(isinstance(v, (Tensor, np.ndarray)) for v in value):
        return _guarded_read(conv, "attr", PyRef(obj), name, site)
    # Everything else — hyperparameter containers, strings, None,
    # arbitrary object state (optimizer, sub-module) — is build-time.
    return Const(value)


def _load_heap_attr(conv, owner_edge, name, site):
    profiled = conv.gen.profile("attr_spec", site)
    return _guarded_read(conv, "attr", owner_edge, name, site,
                         _expected(profiled, exact=False))


def _load_tensor_attr(tensor, name):
    if name == "shape":
        if tensor.shape.dims is not None:
            return Const(tensor.shape)
        return api.shape_of(tensor)
    if name == "dtype":
        return Const(tensor.dtype)
    if name == "ndim":
        if tensor.shape.rank is not None:
            return Const(tensor.shape.rank)
    if name == "T":
        return api.transpose(tensor)
    raise NotConvertible("tensor attribute %r" % name,
                         feature="tensor-attr")


# -- subscript loads -----------------------------------------------------------

@handles(ast.Subscript)
def _subscript(conv, node):
    owner = conv.expr(node.value)
    index = conv.expr(node.slice)
    if isinstance(owner, StackedList):
        owner = owner.tensor
    if isinstance(owner, Const) and \
            isinstance(owner.value, (np.ndarray, Tensor)):
        owner = conv.tensorize(owner)
    if isinstance(owner, NodeOutput) and owner.dtype is not None:
        static = _static_index(index)
        if static is not MISSING:
            return api.getitem(owner, static)
        # Tensor-valued index: gather along axis 0.
        return api.gather(owner, conv.tensorize(index))
    if isinstance(owner, SymSeq):
        if isinstance(index, Const):
            if isinstance(index.value, slice):
                return SymSeq(owner.elements[index.value],
                              is_tuple=owner.is_tuple)
            return owner.elements[index.value]
        # Dynamic index into a static list of tensors: stack + gather.
        stacked = api.stack([conv.tensorize(e) for e in owner.elements])
        return api.gather(stacked, conv.tensorize(index))
    if isinstance(owner, SymDict):
        if isinstance(index, Const):
            return owner.entries[index.value]
        raise NotConvertible("dynamic dict lookup", feature="dict")
    if isinstance(index, Const):
        if isinstance(owner, Const) and isinstance(
                owner.value, (list, tuple, dict, str, range, Shape)):
            return wrap_external(owner.value[index.value])
        if isinstance(owner, NodeOutput):
            site = conv.site(node, "subscr")
            profiled = conv.gen.profile("subscr_spec", site)
            exact = conv.gen.config.specialize_types
            return _guarded_read(conv, "subscr", owner, index.value, site,
                                 _expected(profiled, exact))
    raise NotConvertible("subscript on %r" % (owner,), feature="subscript")


def _static_index(index):
    if isinstance(index, SymSeq):
        parts = [_static_index(e) for e in index.elements]
        if any(p is MISSING for p in parts):
            return MISSING
        return tuple(parts)
    return index.value if isinstance(index, Const) else MISSING


# -- stores ------------------------------------------------------------------

@handles(ast.Attribute, store=True)
def _store_attr(conv, target, value):
    owner = conv.expr(target.value)
    name = target.attr
    graph_value = _heap_value(conv, value)
    if isinstance(owner, Const):
        if has_custom_accessors(owner.value):
            raise NotConvertible("object with custom accessors",
                                 feature="custom-setattr")
        if not conv.gen.config.deferred_state_update:
            _naive_set_attr(conv, owner.value, name, graph_value)
            return
        conv.builder.py_set_attr(PyRef(owner.value), name, graph_value)
    elif isinstance(owner, NodeOutput) and owner.dtype is None:
        conv.builder.py_set_attr(owner, name, graph_value)
    else:
        raise NotConvertible("attribute store on %r" % (owner,),
                             feature="setattr")


def _naive_set_attr(conv, obj, name, graph_value):
    """The rejected design of section 4.2.3: mutate in place via a
    PyFunc-style operation (ablation only — breaks all-or-nothing)."""
    def mutate(value):
        setattr(obj, name, value)
        return True

    out = conv.builder.py_call(mutate, [graph_value],
                               name="naive_setattr_%s" % name)
    # Subsequent reads must observe the write: order them after it.
    conv.builder._hazard_dep(obj, name, out.node, is_write=True)


@handles(ast.Subscript, store=True)
def _store_subscr(conv, target, value):
    owner = conv.expr(target.value)
    key = conv.expr(target.slice)
    if not isinstance(key, Const):
        raise NotConvertible("dynamic heap subscript key",
                             feature="subscript")
    key = key.value
    graph_value = _heap_value(conv, value)
    if isinstance(owner, Const):
        conv.builder.py_set_subscr(PyRef(owner.value), key, graph_value)
    elif isinstance(owner, NodeOutput) and owner.dtype is None:
        conv.builder.py_set_subscr(owner, key, graph_value)
    elif isinstance(owner, SymSeq):
        if not isinstance(key, int):
            raise NotConvertible("non-constant list index store",
                                 feature="setitem")
        conv.gen.poison_fragments()
        owner.elements[key] = value
    elif isinstance(owner, SymDict):
        conv.gen.poison_fragments()
        owner.entries[key] = value
    else:
        raise NotConvertible("subscript store on %r" % (owner,),
                             feature="setitem")


def _heap_value(conv, value):
    """Lower a symbolic value to a single graph edge for heap writes."""
    if isinstance(value, (NodeOutput, StackedList)):
        return conv.tensorize(value)
    if isinstance(value, Const):
        v = value.value
        if not isinstance(v, (bool, int, float, np.ndarray, TensorValue,
                              Tensor)):
            v = PyRef(v)
        return conv.builder.convert(v)
    if isinstance(value, SymSeq):
        elems = [conv.tensorize(e) for e in value.elements]
        return api.stack(elems) if elems else \
            conv.builder.convert(np.zeros((0,), np.float32))
    raise NotConvertible("cannot store %r on the heap" % (value,),
                         feature="heap-store")
