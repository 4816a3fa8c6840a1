"""Expression conversion: literals, names, containers, operators.

Attribute / subscript loads live in :mod:`.heap`, calls in
:mod:`.calls`, comprehensions (unrolled loops) in :mod:`.controlflow`.
"""

import ast
import builtins
import operator

import numpy as np

from ...errors import NotConvertible
from ...imperative.eager import Tensor
from ...ops import api
from .. import fragments as frag_mod
from .. import specialization as spec
from .converter import handles
from .values import MISSING, Const, SymDict, SymFunc, SymSeq

#: Comparison -> (graph op or None, build-time fold for constant operands).
_COMPARISONS = {
    ast.Eq: ("equal", operator.eq), ast.NotEq: ("not_equal", operator.ne),
    ast.Lt: ("less", operator.lt), ast.LtE: ("less_equal", operator.le),
    ast.Gt: ("greater", operator.gt),
    ast.GtE: ("greater_equal", operator.ge),
    ast.Is: (None, operator.is_), ast.IsNot: (None, operator.is_not),
    ast.In: (None, lambda a, b: a in b),
    ast.NotIn: (None, lambda a, b: a not in b),
}


@handles(ast.Constant)
def _constant(conv, node):
    return Const(node.value)


@handles(ast.Slice)
def _slice(conv, node):
    def part(p):
        if p is None:
            return None
        value = conv.expr(p)
        if not isinstance(value, Const):
            raise NotConvertible("dynamic slice bound", feature="slice")
        return value.value
    return Const(slice(part(node.lower), part(node.upper), part(node.step)))


# -- name resolution -----------------------------------------------------------

@handles(ast.Name)
def _name(conv, node):
    name = node.id
    if name in conv.env:
        return conv.env[name]
    target = getattr(conv.func, "__func__", conv.func)
    freevars = target.__code__.co_freevars
    if name in freevars and target.__closure__:
        cell = target.__closure__[freevars.index(name)]

        def digest(keep=None):
            return frag_mod.value_digest(cell.cell_contents, keep)

        conv.gen.value_dep(("closure", name), digest, keep=[cell])
        return _classify_external(conv, target, cell.cell_contents, name)
    if name in target.__globals__:
        globals_dict = target.__globals__

        def digest(keep=None):
            return frag_mod.value_digest(globals_dict.get(name, MISSING),
                                         keep)

        conv.gen.value_dep(("global", name), digest)
        return _classify_external(conv, target, globals_dict[name], name)
    if hasattr(builtins, name):
        return Const(getattr(builtins, name))
    raise NotConvertible("unresolved name %r" % name, feature="name")


def _classify_external(conv, target, value, name):
    """Globals/closure values become build-time constants.

    Mutable data globals additionally get a precheck so a changed
    global invalidates the cached graph (type assumption on context).
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        conv.gen.add_precheck("global %r value" % name,
                              spec.GlobalEquals(target, name, value))
    return Const(value)


# -- containers ----------------------------------------------------------------

@handles(ast.Tuple)
def _tuple(conv, node):
    return SymSeq([conv.expr(e) for e in node.elts], is_tuple=True)


@handles(ast.List)
def _list(conv, node):
    return SymSeq([conv.expr(e) for e in node.elts])


@handles(ast.Dict)
def _dict(conv, node):
    entries = {}
    for k, v in zip(node.keys, node.values):
        key = conv.expr(k)
        if not isinstance(key, Const):
            raise NotConvertible("dynamic dict key", feature="dict")
        entries[key.value] = conv.expr(v)
    return SymDict(entries)


@handles(ast.Lambda)
def _lambda(conv, node):
    fdef = ast.FunctionDef(name="<lambda>", args=node.args,
                           body=[ast.Return(value=node.body)],
                           decorator_list=[], returns=None)
    ast.copy_location(fdef, node)
    ast.fix_missing_locations(fdef)
    return SymFunc(fdef, dict(conv.env), conv.func, "<lambda>")


@handles(ast.Starred)
def _starred(conv, node):
    raise NotConvertible("starred expression", feature="starred-call")


@handles(ast.JoinedStr)
def _joined_str(conv, node):
    parts = []
    for piece in node.values:
        if isinstance(piece, ast.Constant):
            parts.append(piece.value)
        elif isinstance(piece, ast.FormattedValue):
            value = conv.expr(piece.value)
            if not isinstance(value, Const):
                raise NotConvertible("f-string over dynamic value",
                                     feature="fstring")
            parts.append(format(value.value))
    return Const("".join(parts))


# -- operators -----------------------------------------------------------------

@handles(ast.UnaryOp)
def _unary_op(conv, node):
    operand = conv.expr(node.operand)
    if isinstance(node.op, ast.USub):
        if isinstance(operand, Const):
            return Const(-operand.value)
        return api.neg(conv.tensorize(operand))
    if isinstance(node.op, ast.UAdd):
        return operand
    if isinstance(node.op, ast.Not):
        if isinstance(operand, Const):
            return Const(not operand.value)
        return api.logical_not(conv.tensorize(operand))
    if isinstance(node.op, ast.Invert):
        if isinstance(operand, Const):
            return Const(~operand.value)
    raise NotConvertible("unary op %s" % type(node.op).__name__,
                         feature="unary")


@handles(ast.BinOp)
def _bin_op(conv, node):
    left = conv.expr(node.left)
    right = conv.expr(node.right)
    return conv.binop(type(node.op), left, right)


@handles(ast.BoolOp)
def _bool_op(conv, node):
    values = [conv.expr(v) for v in node.values]
    if all(isinstance(v, Const) for v in values):
        result = values[0].value
        for v in values[1:]:
            if isinstance(node.op, ast.And):
                result = result and v.value
            else:
                result = result or v.value
        return Const(result)
    fn = api.logical_and if isinstance(node.op, ast.And) \
        else api.logical_or
    result = conv.tensorize(values[0])
    for v in values[1:]:
        result = fn(result, conv.tensorize(v))
    return result


@handles(ast.Compare)
def _compare(conv, node):
    left = conv.expr(node.left)
    result = None
    for op, comparator in zip(node.ops, node.comparators):
        right = conv.expr(comparator)
        piece = _compare_values(conv, type(op), left, right)
        if result is None:
            result = piece
        elif isinstance(result, Const) and isinstance(piece, Const):
            result = Const(result.value and piece.value)
        else:
            result = api.logical_and(conv.tensorize(result),
                                     conv.tensorize(piece))
        left = right
    return result


def _compare_values(conv, op_type, left, right):
    op_name, fold = _COMPARISONS[op_type]
    if isinstance(left, Const) and isinstance(right, Const) and \
            not isinstance(left.value, (np.ndarray, Tensor)) and \
            not isinstance(right.value, (np.ndarray, Tensor)):
        return Const(fold(left.value, right.value))
    if op_type in (ast.Is, ast.IsNot):
        if isinstance(left, Const) and left.value is None or \
                isinstance(right, Const) and right.value is None:
            other = right if isinstance(left, Const) else left
            is_none = isinstance(other, Const) and other.value is None
            return Const(is_none if op_type is ast.Is else not is_none)
        raise NotConvertible("is-comparison on dynamic values",
                             feature="compare")
    if op_name is None:
        raise NotConvertible("comparison %s" % op_type.__name__,
                             feature="compare")
    return getattr(api, op_name)(conv.tensorize(left),
                                 conv.tensorize(right))


@handles(ast.IfExp)
def _if_exp(conv, node):
    test = conv.expr(node.test)
    if isinstance(test, Const):
        return conv.expr(node.body if test.value else node.orelse)
    site = conv.site(node, "ifexp")
    direction = conv.gen.profile("branch_direction", site)
    pred = conv.tensorize(test)
    if conv.gen.config.unroll_stable_control_flow and \
            direction is not None:
        conv.assert_direction(pred, direction, site)
        return conv.expr(node.body if direction else node.orelse)
    # Both sides evaluate (documented TF-style semantics).
    t = conv.tensorize(conv.expr(node.body))
    f = conv.tensorize(conv.expr(node.orelse))
    return api.where(pred, t, f)
