"""Call conversion: dispatch, inlining, recursion, structural builtins.

A call resolves at build time to one of: a whitelisted framework op
(emits graph ops, section 4.3.1), a structural builtin evaluated on
symbolic values, a user function or nested def (inlined through
:func:`~.converter.convert_body`), or — for a function on a cycle of the
profiled call graph — an ``invoke`` of a recursive GraphFunction built
once through :func:`~.converter.build_region` (section 4.2.1).
"""

import ast
import types

import numpy as np

from ...errors import NotConvertible
from ...graph.core import GraphFunction, NodeOutput
from ...imperative.eager import Tensor
from ...imperative.variable import Variable
from ...ops import api
from ...tensor import PyRef
from ...tensor.shape import Shape
from .. import specialization as spec
from ..coverage import check_convertible
from ..instrument import get_function_ast, function_key
from ..whitelist import (handler_for, is_whitelisted, STRUCTURAL_BUILTINS,
                         MATH_CONST_FUNCS)
from .converter import build_region, convert_body, handles
from .values import (CONST_EVAL_TYPES, Const, StackedList, SymDict,
                     SymEnumerate, SymFunc, SymRange, SymSeq, SymZip,
                     flatten_value, leading_dim, rebuild_value,
                     structures_compatible, wrap_external)


@handles(ast.Call)
def _call(conv, node):
    site = conv.site(node, "call")
    kwargs = {}
    for kw in node.keywords:
        if kw.arg is None:
            raise NotConvertible("**kwargs call", feature="starred-call")
        kwargs[kw.arg] = conv.expr(kw.value)
    args = [conv.expr(a) for a in node.args]
    # Method-style call: resolve without materializing a py_get node.
    if isinstance(node.func, ast.Attribute):
        owner = conv.expr(node.func.value)
        return _method_call(conv, owner, node.func.attr, args, kwargs, site)
    return _dispatch_call(conv, conv.expr(node.func), args, kwargs)


def _method_call(conv, owner, name, args, kwargs, site):
    if isinstance(owner, (SymSeq, SymDict, StackedList)):
        return _sym_container_method(conv, owner, name, args)
    if isinstance(owner, Const):
        obj = owner.value
        if isinstance(obj, Variable):
            return _variable_method(conv, obj, name, args)
        if isinstance(obj, CONST_EVAL_TYPES) and \
                all(isinstance(a, Const) for a in args) and \
                all(isinstance(v, Const) for v in kwargs.values()):
            result = getattr(obj, name)(
                *[a.value for a in args],
                **{k: v.value for k, v in kwargs.items()})
            return wrap_external(result)
        try:
            bound = getattr(obj, name)
        except AttributeError:
            raise NotConvertible("method %r missing on %r"
                                 % (name, obj), feature="method")
        return _dispatch_call(conv, Const(bound), args, kwargs)
    if isinstance(owner, NodeOutput) and owner.dtype is None:
        # Dynamic receiver: callee identity comes from the profile.
        callee = conv.gen.profile("callee", site)
        if callee is None:
            raise NotConvertible("unstable method %r on dynamic object"
                                 % name, feature="method")
        return _call_user_function(conv, callee, [owner] + args, kwargs)
    if isinstance(owner, NodeOutput):
        if name in ("numpy", "item"):
            raise NotConvertible("tensor materialization (%s) inside a "
                                 "graph" % name, feature="numpy")
        raise NotConvertible("tensor method %r" % name, feature="method")
    raise NotConvertible("method call %r on %r" % (name, owner),
                         feature="method")


def _variable_method(conv, variable, name, args):
    builder = conv.builder
    if name == "assign":
        return builder.assign_variable(variable, conv.tensorize(args[0]))
    if name in ("assign_add", "assign_sub"):
        step = api.add if name == "assign_add" else api.sub
        current = builder.read_variable(variable)
        return builder.assign_variable(
            variable, step(current, conv.tensorize(args[0])))
    if name == "value":
        return builder.read_variable(variable)
    if name == "numpy":
        raise NotConvertible("Variable.numpy() forces materialization",
                             feature="numpy")
    raise NotConvertible("Variable method %r" % name, feature="method")


def _sym_container_method(conv, owner, name, args):
    poison = conv.gen.poison_fragments
    if isinstance(owner, SymSeq):
        # Build-time mutation of a container that may be shared with
        # the enclosing environment: splicing a cached fragment would
        # skip the mutation, so active fragments become uncacheable.
        if name == "append":
            poison()
            owner.elements.append(args[0])
            return Const(None)
        if name == "extend" and isinstance(args[0], SymSeq):
            poison()
            owner.elements.extend(args[0].elements)
            return Const(None)
        if name == "pop":
            poison()
            return owner.elements.pop(args[0].value if args else -1)
        if name == "insert":
            poison()
            owner.elements.insert(args[0].value, args[1])
            return Const(None)
    if isinstance(owner, StackedList) and name == "append":
        poison()
        elem = api.expand_dims(conv.tensorize(args[0]), 0)
        owner.tensor = api.concat([owner.tensor, elem], 0)
        return Const(None)
    if isinstance(owner, SymDict):
        if name == "get":
            key = args[0]
            if isinstance(key, Const) and key.value in owner.entries:
                return owner.entries[key.value]
            return args[1] if len(args) > 1 else Const(None)
        if name == "keys":
            return SymSeq([Const(k) for k in owner.entries])
        if name == "values":
            return SymSeq(list(owner.entries.values()))
        if name == "items":
            return SymSeq([SymSeq([Const(k), v], is_tuple=True)
                           for k, v in owner.entries.items()])
    raise NotConvertible("container method %r" % name, feature="method")


def _dispatch_call(conv, func_sym, args, kwargs):
    if isinstance(func_sym, SymFunc):
        return _inline_symfunc(conv, func_sym, args, kwargs)
    if isinstance(func_sym, NodeOutput):
        raise NotConvertible("calling a runtime-computed callable",
                             feature="dynamic-call")
    if not isinstance(func_sym, Const):
        raise NotConvertible("call target %r" % (func_sym,),
                             feature="call")
    callee = func_sym.value
    target = getattr(callee, "__func__", callee)

    if target is api.executing_eagerly:
        # The converted program keeps its imperative semantics.
        return Const(True)
    if target in STRUCTURAL_BUILTINS:
        return _structural_builtin(conv, STRUCTURAL_BUILTINS[target], args,
                                   kwargs)
    if target in MATH_CONST_FUNCS:
        if all(isinstance(a, Const) for a in args):
            return Const(target(*[a.value for a in args]))
        tensor_map = {"sqrt": api.sqrt, "exp": api.exp, "log": api.log}
        name = target.__name__
        if name in tensor_map and len(args) == 1:
            return tensor_map[name](conv.tensorize(args[0]))
        raise NotConvertible("math.%s on dynamic value" % name,
                             feature="math")
    handler = handler_for(target)
    if handler is not None:
        return _call_whitelisted(conv, handler, args, kwargs)
    if is_whitelisted(target):
        raise NotConvertible("whitelisted %r has no graph handler"
                             % (target,), feature="whitelist")
    if isinstance(target, types.FunctionType):
        if hasattr(callee, "__self__"):
            args = [Const(callee.__self__)] + args
        return _call_user_function(conv, target, args, kwargs)
    if isinstance(callee, type):
        raise NotConvertible("constructing %r inside a graph"
                             % callee.__name__, feature="constructor")
    if callable(callee) and hasattr(type(callee), "__call__") and \
            not isinstance(callee, types.BuiltinFunctionType):
        # Callable object (layer/module): inline its __call__.  The
        # generic Module.__call__ merely forwards to .call, so inline
        # the latter directly (its signature is explicit).
        from ...nn.module import Module
        call_fn = type(callee).__call__
        if isinstance(callee, Module) and call_fn is Module.__call__:
            call_fn = type(callee).call
        return _call_user_function(conv, call_fn, [Const(callee)] + args,
                                   kwargs)
    raise NotConvertible("cannot convert call to %r" % (callee,),
                         feature="call")


def _call_whitelisted(conv, handler, args, kwargs):
    """Emit graph ops for a framework/builtin call (section 4.3.1)."""
    def lower(value):
        if isinstance(value, Const):
            v = value.value
            if isinstance(v, (Variable, Tensor)):
                return conv.tensorize(value)
            return v
        if isinstance(value, SymSeq):
            return [lower(e) for e in value.elements]
        if isinstance(value, StackedList):
            return value.tensor
        return value

    result = handler(*[lower(a) for a in args],
                     **{k: lower(v) for k, v in kwargs.items()})
    if isinstance(result, tuple):
        return SymSeq(list(result), is_tuple=True)
    return result


# -- user functions: inlined, or invoked when recursive --------------------------

def _call_user_function(conv, target, args, kwargs):
    if function_key(target) in conv.gen.recursive_keys:
        return _call_recursive(conv, target, args, kwargs)
    fdef = get_function_ast(target)
    # Defaults from the live function object (evaluated values).
    defaults = target.__defaults__ or ()

    def enter(callee):
        check_convertible(fdef)
        callee.env.update(_bind_parameters(
            target.__name__, fdef.args, args, kwargs, len(defaults),
            lambda k: wrap_external(defaults[k])))

    return convert_body(conv.gen, target, {}, conv.builder, fdef.body,
                        before=enter, callee=True)


def _inline_symfunc(conv, sym_func, args, kwargs):
    fdef = sym_func.fdef
    defaults = fdef.args.defaults
    env = dict(sym_func.env)
    env.update(_bind_parameters(
        sym_func.name, fdef.args, args, kwargs, len(defaults),
        lambda k: conv.expr(defaults[k])))
    return convert_body(conv.gen, sym_func.owner_func, env, conv.builder,
                        fdef.body, callee=True)


def _bind_parameters(name, signature, args, kwargs, n_defaults, default):
    """Bind a call's operands to the parameters of an ``ast.arguments``;
    ``default(k)`` is the symbolic value of the k-th default."""
    params = [a.arg for a in signature.args]
    env = dict(zip(params, args))
    surplus = args[len(params):]
    if signature.vararg is not None:
        env[signature.vararg.arg] = SymSeq(surplus, is_tuple=True)
    elif surplus:
        raise NotConvertible("too many arguments to %s" % name,
                             feature="call")
    for keyword, value in kwargs.items():
        if keyword not in params:
            raise NotConvertible("unknown kwarg %r" % keyword,
                                 feature="call")
        env[keyword] = value
    first_default = len(params) - n_defaults
    for i, param in enumerate(params):
        if param not in env:
            if i < first_default:
                raise NotConvertible("missing argument %r" % param,
                                     feature="call")
            env[param] = default(i - first_default)
    return env


def _call_recursive(conv, target, args, kwargs):
    if kwargs:
        raise NotConvertible("keyword args on recursive calls",
                             feature="recursion")
    args = [_lower_recursive_arg(conv, a) for a in args]
    gf = _graph_function(conv.gen, target, args)
    meta = gf.janus_meta
    graph_args = []
    for value, is_const in zip(args, meta["const_mask"]):
        if not is_const:
            flatten_value(value, graph_args)
    outputs = conv.builder.invoke(gf, graph_args, meta["out_specs"])
    if not isinstance(outputs, tuple):
        outputs = (outputs,)
    return rebuild_value(meta["out_structure"], iter(outputs))


def _lower_recursive_arg(conv, value):
    """Prepare an argument for a recursive invoke.

    Different recursive invocations pass different values through the
    same GraphFunction signature, so only values that are provably
    position-stable (modules, callables, Variables, strings, None)
    may burn in as constants; numbers become tensor edges and
    arbitrary objects (tree nodes!) become PyRef edges.
    """
    if not isinstance(value, Const):
        return value
    v = value.value
    if isinstance(v, (types.ModuleType, type, Variable, str)) \
            or v is None or callable(v):
        return value
    if isinstance(v, (bool, int, float, np.ndarray, np.generic, Tensor)):
        return conv.tensorize(value)
    return conv.builder.pyref_constant(PyRef(v))


def _graph_function(gen, callee, arg_values):
    """The GraphFunction of a recursive callee, built on first use."""
    key = function_key(callee)
    gf = gen.graph_functions.get(key)
    if gf is not None:
        return gf
    target = getattr(callee, "__func__", callee)
    gf = GraphFunction(target.__name__)
    # Determine signature and output specs *before* building the body
    # so recursive self-invocations can reference them.
    const_mask = [not isinstance(value, (NodeOutput, StackedList, SymSeq))
                  for value in arg_values]
    ret_spec = gen.profile("return_spec", target)
    if ret_spec is None or ret_spec.kind == spec.BOTTOM:
        raise NotConvertible(
            "recursive function %s has no stable return spec"
            % target.__name__, feature="recursion")
    out_specs = []
    out_structure = _specs_from_value_spec(ret_spec, out_specs)
    gf.janus_meta = {"const_mask": const_mask, "out_specs": out_specs,
                     "out_structure": out_structure}
    gen.graph_functions[key] = gf

    fdef = get_function_ast(target)
    check_convertible(fdef)
    env = dict(zip([a.arg for a in fdef.args.args], arg_values))
    captures = []
    for name, is_const in zip(env, const_mask):
        if not is_const:
            flat = []
            flatten_value(env[name], flat)
            captures += [("%s_%d" % (name, k), edge, name)
                         for k, edge in enumerate(flat)]
    _, structure = build_region(gen, target, target.__name__, env, captures,
                                fdef.body, function=gf)
    if not structures_compatible(structure, out_structure):
        raise NotConvertible(
            "recursive function %s returns inconsistent structure"
            % target.__name__, feature="recursion")
    return gf


def _specs_from_value_spec(sp, out_specs):
    """Structure of a profiled return-value spec; its edges' (shape,
    dtype) specs are appended to *out_specs*."""
    if sp.is_tensor_like:
        out_specs.append((sp.shape, sp.dtype))
        return ("edge",)
    if sp.kind == spec.PYOBJ:
        out_specs.append((Shape.scalar(), None))
        return ("edge",)
    if sp.kind == spec.NONE:
        return ("const", None)
    if sp.kind == spec.LIST:
        return ("seq", sp.is_tuple,
                tuple(_specs_from_value_spec(esp, out_specs)
                      for esp in sp.elements))
    raise NotConvertible("return spec %r not convertible" % (sp,),
                         feature="recursion")


# -- structural builtins -----------------------------------------------------------

#: builtin -> (fewest, most positional operands; None: any number).  A
#: call outside this range, or with a keyword other than a ``start``
#: that is folded into the operands below, is left to the imperative
#: executor: converting it would silently drop an argument.
_BUILTIN_OPERANDS = {
    "len": (1, 1), "range": (1, 3), "enumerate": (1, 2), "zip": (0, None),
    "float": (1, 1), "int": (1, 1), "bool": (1, 1), "min": (1, None),
    "max": (1, None), "sum": (1, 2), "isinstance": (2, 2),
    "list": (0, 1), "tuple": (0, 1), "reversed": (1, 1),
}


#: Scalar cast -> (build-time cast, dtype of the graph cast).
_CASTS = {"float": (float, "float32"), "int": (int, "int64"),
          "bool": (bool, "bool")}
_EXTREMA = {"min": (min, api.minimum), "max": (max, api.maximum)}


def _structural_builtin(conv, name, args, kwargs):
    if name in ("enumerate", "sum") and len(args) == 1 and \
            set(kwargs) == {"start"}:
        args, kwargs = args + [kwargs["start"]], {}
    fewest, most = _BUILTIN_OPERANDS[name]
    if kwargs or len(args) < fewest or \
            (most is not None and len(args) > most):
        raise NotConvertible("builtin %s with these arguments" % name,
                             feature="builtin")
    if name == "len":
        return _builtin_len(args[0])
    if name == "range":
        return _builtin_range(args)
    if name == "enumerate":
        start = args[1] if len(args) > 1 else Const(0)
        if isinstance(start, Const):
            return SymEnumerate(args[0], start.value)
    if name == "zip":
        return SymZip(args)
    if name in _CASTS:
        cast, dtype = _CASTS[name]
        if isinstance(args[0], Const):
            return Const(cast(args[0].value))
        return api.cast(conv.tensorize(args[0]), dtype)
    if name in _EXTREMA:
        pick, elementwise = _EXTREMA[name]
        values = args
        if len(args) == 1 and isinstance(args[0], SymSeq):
            values = args[0].elements
        if all(isinstance(v, Const) for v in values):
            return Const(pick(v.value for v in values))
        result = conv.tensorize(values[0])
        for v in values[1:]:
            result = elementwise(result, conv.tensorize(v))
        return result
    if name == "sum":
        seq = args[0]
        if isinstance(seq, SymSeq):
            # Python adds left to right from the start value (0 when
            # omitted, which the first element absorbs).
            terms = args[1:] + seq.elements
            if not terms:
                return Const(0)
            total = terms[0]
            for e in terms[1:]:
                total = conv.binop(ast.Add, total, e)
            return total
        if isinstance(seq, (StackedList, NodeOutput)) and len(args) == 1:
            return api.reduce_sum(conv.tensorize(seq), axis=0)
    if name == "isinstance":
        if isinstance(args[0], Const) and isinstance(args[1], Const):
            return Const(isinstance(args[0].value, args[1].value))
        raise NotConvertible("isinstance on dynamic value",
                             feature="isinstance")
    if name in ("list", "tuple", "reversed"):
        is_tuple = name == "tuple"
        if not args:
            return SymSeq([], is_tuple=is_tuple)
        seq = args[0]
        if isinstance(seq, Const) and name != "tuple" and \
                isinstance(seq.value, (list, tuple, range)):
            seq = SymSeq([wrap_external(v) for v in seq.value])
        if isinstance(seq, SymSeq):
            if name == "reversed":
                return SymSeq(list(reversed(seq.elements)),
                              is_tuple=seq.is_tuple)
            return SymSeq(list(seq.elements), is_tuple=is_tuple)
    raise NotConvertible("builtin %s with these operands" % name,
                         feature="builtin")


def _builtin_len(value):
    if isinstance(value, SymSeq):
        return Const(len(value.elements))
    if isinstance(value, SymDict):
        return Const(len(value.entries))
    if isinstance(value, Const) and hasattr(value.value, "__len__"):
        return Const(len(value.value))
    if isinstance(value, StackedList):
        value = value.tensor
    if isinstance(value, NodeOutput) and value.dtype is not None:
        dim = leading_dim(value)
        if dim is not None:
            return Const(dim)
        return api.getitem(api.shape_of(value), 0)
    raise NotConvertible("len() of %r" % (value,), feature="len")


def _builtin_range(args):
    start, stop, step = Const(0), args[0], Const(1)
    if len(args) > 1:
        start, stop = args[:2]
    if len(args) > 2:
        step = args[2]
    if all(isinstance(v, Const) for v in (start, stop, step)):
        return Const(range(start.value, stop.value, step.value))
    return SymRange(start, stop, step)
