"""Straight-line statements: binding, non-local exits, clean-up blocks.

``if``/``while``/``for`` are in :mod:`.controlflow`.  Every statement
handler takes ``(conv, stmt, rest)`` (see :data:`.converter.HANDLERS`);
only ``if`` uses *rest*.
"""

import ast

from ...errors import NotConvertible
from ...graph.core import NodeOutput
from ...ops import api
from .converter import (BreakSignal, ContinueSignal, ReturnValue, handles)
from .values import (Const, SymFunc, SymSeq, as_load, leading_dim,
                     wrap_external)


@handles(ast.Expr)
def _expr(conv, stmt, rest):
    conv.expr(stmt.value)


@handles(ast.Pass)
def _pass(conv, stmt, rest):
    pass


# -- binding -------------------------------------------------------------------

@handles(ast.Assign)
def _assign(conv, stmt, rest):
    value = conv.expr(stmt.value)
    for target in stmt.targets:
        conv.assign(target, value)


@handles(ast.AugAssign)
def _aug_assign(conv, stmt, rest):
    current = conv.expr(as_load(stmt.target))
    value = conv.binop(type(stmt.op), current, conv.expr(stmt.value))
    conv.assign(stmt.target, value)


@handles(ast.AnnAssign)
def _ann_assign(conv, stmt, rest):
    if stmt.value is not None:
        conv.assign(stmt.target, conv.expr(stmt.value))


@handles(ast.FunctionDef)
def _function_def(conv, stmt, rest):
    conv.env[stmt.name] = SymFunc(stmt, dict(conv.env), conv.func,
                                  stmt.name)


@handles(ast.Name, store=True)
def _store_name(conv, target, value):
    conv.env[target.id] = value


@handles(ast.Tuple, ast.List, store=True)
def _store_sequence(conv, target, value):
    for element, item in zip(target.elts,
                             _unpack(value, len(target.elts))):
        conv.assign(element, item)


def _unpack(value, count):
    if isinstance(value, Const) and isinstance(value.value, (list, tuple)):
        value = wrap_external(value.value)
    if isinstance(value, SymSeq):
        if len(value.elements) != count:
            raise NotConvertible("unpacking arity mismatch",
                                 feature="unpack")
        return value.elements
    if isinstance(value, NodeOutput) and value.dtype is not None:
        if leading_dim(value) != count:
            raise NotConvertible("cannot unpack tensor with dynamic "
                                 "leading dim", feature="unpack")
        return [api.getitem(value, k) for k in range(count)]
    raise NotConvertible("cannot unpack %r" % (value,), feature="unpack")


# -- non-local exits -----------------------------------------------------------

@handles(ast.Return)
def _return(conv, stmt, rest):
    raise ReturnValue(conv.expr(stmt.value) if stmt.value is not None
                      else Const(None))


@handles(ast.Break)
def _break(conv, stmt, rest):
    raise BreakSignal()


@handles(ast.Continue)
def _continue(conv, stmt, rest):
    raise ContinueSignal()


@handles(ast.Raise)
def _raise(conv, stmt, rest):
    raise NotConvertible("reachable raise statement (the raising "
                         "path runs imperatively)", feature="raise")


@handles(ast.Global)
def _global(conv, stmt, rest):
    raise NotConvertible("global-write declarations are "
                         "imperative-only", feature="global")


@handles(ast.Assert)
def _assert(conv, stmt, rest):
    test = conv.expr(stmt.test)
    if isinstance(test, Const):
        if not test.value:
            raise NotConvertible("assert statically false",
                                 feature="assert")
        return
    api.assert_that(conv.tensorize(test),
                    message="user assert at line %d" % stmt.lineno)


# -- clean-up blocks (appendix A) ------------------------------------------------

@handles(ast.Try)
def _try(conv, stmt, rest):
    if stmt.handlers:
        raise NotConvertible("except handlers are imperative-only",
                             feature="exception-handler")
    conv.protected(stmt.body, lambda: conv.block(stmt.finalbody))


@handles(ast.With)
def _with(conv, stmt, rest):
    """``with`` lowers to ``__enter__``/``__exit__`` calls."""
    def call(item, method, args):
        manager = item.context_expr
        node = ast.Call(
            func=ast.Attribute(value=manager, attr=method, ctx=ast.Load()),
            args=[ast.Constant(value=a) for a in args], keywords=[])
        return conv.expr(ast.fix_missing_locations(
            ast.copy_location(node, manager)))

    def leave():
        for item in reversed(stmt.items):
            call(item, "__exit__", (None, None, None))

    for item in stmt.items:
        entered = call(item, "__enter__", ())
        if item.optional_vars is not None:
            conv.assign(item.optional_vars, entered)
    conv.protected(stmt.body, leave)
