"""The shared converter: one dispatch, one way to convert a body, one way
to build a sub-graph region.

The construct modules (:mod:`.expressions`, :mod:`.statements`,
:mod:`.heap`, :mod:`.calls`, :mod:`.controlflow`) register a handler per
AST node type with :func:`handles` and reach each other only through a
:class:`Converter`'s entry points — :meth:`~Converter.expr` for a value,
:meth:`~Converter.block` for a statement list, :meth:`~Converter.assign`
for a store target.  None of them constructs a converter: a nested body
(an inlined callee, a branch arm, a loop body, a recursive function)
converts through :func:`convert_body`, and the ones that become their
own sub-graph through :func:`build_region`.
"""

import ast
import operator

import numpy as np

from ...errors import NotConvertible
from ...graph.builder import GraphBuilder
from ...graph.core import GraphFunction, NodeOutput
from ...imperative.eager import Tensor
from ...imperative.variable import Variable
from ...ops import api
from ..instrument import function_key
from .values import (Const, StackedList, SymSeq, flatten_value,
                     rebuild_value)

#: AST node type -> handler.  Expressions: ``handler(conv, node)`` returns
#: the symbolic value.  Statements: ``handler(conv, stmt, rest)`` — *rest*
#: is the tail of the enclosing block; a true result says the handler
#: converted it too.  Store targets register under ``(type, ast.Store)``:
#: ``handler(conv, target, value)``.
HANDLERS = {}


def handles(*node_types, store=False):
    def register(handler):
        for node_type in node_types:
            HANDLERS[(node_type, ast.Store) if store else node_type] = handler
        return handler
    return register


#: Binary operator -> (graph op, build-time fold for constant operands).
_BINOPS = {
    ast.Add: ("add", operator.add), ast.Sub: ("sub", operator.sub),
    ast.Mult: ("mul", operator.mul), ast.Div: ("div", operator.truediv),
    ast.FloorDiv: ("floordiv", operator.floordiv),
    ast.Mod: ("mod", operator.mod), ast.Pow: ("pow", operator.pow),
    ast.MatMult: ("matmul", None),
}


class NonLocalExit(Exception):
    """A ``return``/``break``/``continue`` reached on a statically
    resolved path, unwinding to the construct that absorbs it."""


class ReturnValue(NonLocalExit):
    """Carries the converted return value to the enclosing body."""

    def __init__(self, value):
        super().__init__("return")
        self.value = value


class BreakSignal(NonLocalExit):
    pass


class ContinueSignal(NonLocalExit):
    pass


class Converter:
    """Converts one (possibly inlined) function body into graph nodes."""

    def __init__(self, gen, func, env, builder):
        self.gen = gen
        self.func = func                       # for globals/closure lookup
        self.env = env
        self.builder = builder
        self.fkey = function_key(func)

    # -- dispatch ------------------------------------------------------------

    def _handler(self, key, node, what):
        handler = HANDLERS.get(key)
        if handler is None:
            raise NotConvertible("%s %s is not convertible"
                                 % (what, type(node).__name__), feature=what)
        return handler

    def expr(self, node):
        return self._handler(type(node), node, "expression")(self, node)

    def assign(self, target, value):
        self._handler((type(target), ast.Store), target,
                      "target")(self, target, value)

    def block(self, stmts):
        for index, stmt in enumerate(stmts):
            # Annotate conversion failures with the statement they died
            # in (innermost statement wins — an already-set lineno is
            # kept).  The co-execution planner maps the lineno back to a
            # top-level statement to split the function there.
            try:
                if self._handler(type(stmt), stmt, "statement")(
                        self, stmt, stmts[index + 1:]):
                    return
            except NotConvertible as exc:
                if exc.lineno is None:
                    exc.lineno = getattr(stmt, "lineno", None)
                raise

    def protected(self, body, cleanup):
        """Convert *body*, then ``cleanup()`` — also when the body leaves
        through a non-local exit (``try/finally``, ``with``): the
        clean-up converts first, then the exit continues outward.  A
        clean-up that itself exits while one is pending is left to the
        imperative executor, and so is a body that is not convertible
        (no clean-up converts for it here)."""
        try:
            self.block(body)
        except NonLocalExit:
            try:
                cleanup()
            except NonLocalExit:
                raise NotConvertible("clean-up exits while a return/break/"
                                     "continue is pending",
                                     feature="control-flow")
            raise
        cleanup()

    # -- helpers every construct needs ---------------------------------------

    def site(self, node, kind):
        return (self.fkey, getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0), kind)

    def tensorize(self, value):
        if isinstance(value, NodeOutput):
            return value
        if isinstance(value, StackedList):
            return value.tensor
        if isinstance(value, SymSeq):
            return api.stack([self.tensorize(e) for e in value.elements])
        if isinstance(value, Const):
            v = value.value
            if isinstance(v, Variable):
                return self.builder.read_variable(v)
            if isinstance(v, (bool, int, float, np.ndarray, np.generic,
                              Tensor)):
                return self.builder.convert(v)
            if isinstance(v, (list, tuple)):
                try:
                    return self.builder.convert(np.asarray(v))
                except (ValueError, TypeError):
                    pass
        raise NotConvertible("value %r has no tensor form" % (value,),
                             feature="tensorize")

    def binop(self, op_type, left, right):
        op_name, fold = _BINOPS.get(op_type, (None, None))
        # Build-time folding for constant operands.
        if isinstance(left, Const) and isinstance(right, Const) and \
                fold is not None and \
                not isinstance(left.value, (np.ndarray, Tensor)) and \
                not isinstance(right.value, (np.ndarray, Tensor)):
            return Const(fold(left.value, right.value))
        # Python list concatenation / repetition.
        if isinstance(left, SymSeq) and isinstance(right, SymSeq) and \
                op_type is ast.Add:
            return SymSeq(left.elements + right.elements,
                          is_tuple=left.is_tuple)
        if isinstance(left, SymSeq) and isinstance(right, Const) and \
                op_type is ast.Mult:
            return SymSeq(left.elements * int(right.value),
                          is_tuple=left.is_tuple)
        if isinstance(left, StackedList) and op_type is ast.Add:
            if isinstance(right, SymSeq):
                extra = [api.expand_dims(self.tensorize(e), 0)
                         for e in right.elements]
                return StackedList(api.concat([left.tensor] + extra, 0))
        if op_name is None:
            raise NotConvertible("binary op %s" % op_type.__name__,
                                 feature="binop")
        return getattr(api, op_name)(self.tensorize(left),
                                     self.tensorize(right))

    def assert_direction(self, pred, direction, site):
        check = pred if direction else api.logical_not(pred)
        return api.assert_that(check,
                               message="stable-branch assumption at %s:%d"
                               % (site[0], site[1]),
                               site=("branch", site))


def convert_body(gen, func, env, builder, stmts, before=None, after=None,
                 callee=False, boundary=None):
    """Convert a statement list in *env* onto *builder*; return its value.

    The one place a converter is constructed and the one place a body's
    non-local exits land.  ``before(conv)`` runs ahead of the statements
    and ``after(conv)`` computes the value of a body that falls through
    (``Const(None)`` without it); both run inside the protocol.  A body
    with an ``after`` has to fall through, so a ``return`` reaching its
    end has no graph representation — and neither has a ``break`` or
    ``continue`` leaving the body (*boundary* names what it would cross).
    ``callee=True`` drops the line number of a conversion failure: it is
    in the callee's coordinates, and the caller's block must stamp the
    call-site statement — the one the co-execution planner splits at.
    """
    conv = Converter(gen, func, env, builder)
    try:
        if before is not None:
            before(conv)
        conv.block(stmts)
        return after(conv) if after is not None else Const(None)
    except ReturnValue as ret:
        if after is not None:
            raise NotConvertible("return inside %s has no graph "
                                 "representation" % boundary,
                                 feature="control-flow")
        return ret.value
    except (BreakSignal, ContinueSignal):
        raise NotConvertible("break/continue across %s has no graph "
                             "representation" % boundary, feature="break")
    except NotConvertible as exc:
        if callee:
            exc.lineno = None
        raise


def build_region(gen, func, name, env, captures, stmts, function=None,
                 **protocol):
    """Convert a body into its own sub-graph: ``(GraphFunction, structure
    of its result)``.

    *captures* is the region's signature, ``[(placeholder name, outer
    edge, env name)]``: one placeholder per entry, and inside the region
    each name resolves to its outer value rebuilt over its placeholders.
    *function* is a pre-registered GraphFunction to finalize (recursive
    callees); *protocol* goes to :func:`convert_body`.
    """
    sub = GraphBuilder(name=name)
    with sub:
        by_name = {}
        for label, edge, owner in captures:
            by_name.setdefault(owner, []).append(
                sub.placeholder(label, shape=edge.shape, dtype=edge.dtype))
        env = dict(env)
        for owner, placeholders in by_name.items():
            structure = flatten_value(env[owner], [])
            env[owner] = rebuild_value(structure, iter(placeholders))
        result = convert_body(gen, func, env, sub, stmts, **protocol)
        flat = []
        structure = flatten_value(result, flat)
        sub.mark_outputs(flat)
    if function is None:
        function = GraphFunction(name)
    function.finalize(sub.graph)
    return function, structure
