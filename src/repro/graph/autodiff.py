"""Reverse-mode automatic differentiation over symbolic graphs.

The static portion of a graph is differentiated by walking it in reverse
topological order and invoking the mode-polymorphic gradient registry
under a :class:`~repro.graph.builder.GraphBuilder` context, so gradient
*subgraphs* are appended to the same graph.

Functional control flow is differentiated compositionally:

* ``invoke`` (recursive functions, ref. [20] of the paper) — the callee's
  gradient is itself a :class:`GraphFunction` that recomputes the forward
  body and backpropagates through it; a recursive callee yields a
  recursive gradient function.
* ``cond`` — gradient is a ``cond`` over the two branch-gradient
  functions, built with a *shared* variable ordering so either branch
  produces grads for the union of variables (zeros for the untouched).
* ``while_loop`` — the forward node records, per iteration, the values
  of its body register file that the body-gradient function reads; a
  ``while_grad`` node replays the records in reverse through it,
  threading loop-variable adjoints and summing per-iteration variable
  gradients.

A recomputed forward would repeat its state writes, so the gradient of
an invoke or cond whose callee has effects is refused
(``NotConvertible``, feature ``gradient_through_effects``): the function
runs imperatively instead.

Because models read parameters through ``var_read`` nodes (possibly deep
inside nested functions), gradients are reported per-:class:`Variable` —
this is what the JANUS training path uses to append optimizer update ops.
"""

import numpy as np

from ..errors import GraphError, NotConvertible
from ..ops import api
from ..ops.registry import GradContext
from .builder import GraphBuilder
from .core import Graph, GraphFunction


def _key(node_output):
    return (id(node_output.node), node_output.index)


def _is_float(node_output):
    return node_output.dtype is not None and node_output.dtype.is_floating


class _Accumulator:
    """Adjoint accumulation with NodeOutput-safe keys."""

    def __init__(self):
        self._grads = {}

    def add(self, node_output, grad):
        if grad is None or not _is_float(node_output):
            return
        k = _key(node_output)
        existing = self._grads.get(k)
        self._grads[k] = grad if existing is None \
            else api.add(existing, grad)

    def get(self, node_output):
        return self._grads.get(_key(node_output))


def backprop(builder, seeds, var_grads=None):
    """Backpropagate ``seeds`` (NodeOutput -> grad handle) through a graph.

    Returns ``(accumulator, var_grads)``: the adjoint accumulator plus a
    dict mapping each touched Variable to its gradient handle.
    New gradient nodes are appended via ``builder``.
    """
    acc = _Accumulator()
    if var_grads is None:
        var_grads = {}
    seed_nodes = []
    for node_output, grad in seeds:
        acc.add(node_output, grad)
        seed_nodes.append(node_output.node)

    order = builder.graph.topological_order(targets=seed_nodes)
    for node in reversed(order):
        out_grads = [acc.get(o) for o in node.outputs]
        if all(g is None for g in out_grads):
            continue
        op = node.op_name
        if op == "var_read":
            total = out_grads[0]
            prior = var_grads.get(node.variable)
            var_grads[node.variable] = total if prior is None \
                else api.add(prior, total)
        elif op in ("placeholder", "constant", "var_assign",
                    "py_get_attr", "py_get_subscr", "py_call"):
            continue
        elif op == "invoke":
            _invoke_grad(builder, node, out_grads, acc, var_grads)
        elif op == "cond":
            _cond_grad(builder, node, out_grads, acc, var_grads)
        elif op == "while_loop":
            _while_grad(builder, node, out_grads, acc, var_grads)
        elif node.op_def is not None:
            _op_grad(builder, node, out_grads, acc)
        # everything else (assert, print, set ops) terminates gradients
    return acc, var_grads


def _op_grad(builder, node, out_grads, acc):
    grad_fn = node.op_def.grad_fn
    if grad_fn is None:
        return
    filled = [g if g is not None else api.zeros_like(o)
              for g, o in zip(out_grads, node.outputs)]
    ctx = GradContext(node.op_name, node.attrs, node.inputs, node.outputs)
    in_grads = grad_fn(ctx, filled)
    for inp, grad in zip(node.inputs, in_grads):
        acc.add(inp, grad)


def _filled_out_grads(node, out_grads, float_outputs):
    grads = []
    for out, g in zip(node.outputs, out_grads):
        if not _is_float(out):
            continue
        grads.append(g if g is not None else api.zeros_like(out))
    return grads


def _refuse_effects(*funcs):
    """An invoke/cond gradient recomputes its callee's forward, so a
    callee that writes state would write it twice (a guard is no
    effect: re-checking it is harmless)."""
    for func in funcs:
        if func.has_effects:
            raise NotConvertible(
                "gradient_through_effects: the gradient of %s would "
                "re-run its state writes" % func.name,
                feature="gradient_through_effects")


def _invoke_grad(builder, node, out_grads, acc, var_grads):
    _refuse_effects(node.func)
    gfunc = grad_function(node.func)
    meta = gfunc.grad_meta
    inputs = list(node.inputs) + _filled_out_grads(node, out_grads, None)
    out_specs = meta["out_specs"]
    results = builder.invoke(gfunc, inputs, out_specs,
                             name="invoke_grad_%s" % node.func.name)
    if not isinstance(results, tuple):
        results = (results,)
    _scatter_grad_results(node, meta, results, acc, var_grads)


def _scatter_grad_results(node, meta, results, acc, var_grads):
    i = 0
    for arg_idx in meta["float_arg_indices"]:
        acc.add(node.inputs[meta["arg_offset"] + arg_idx], results[i])
        i += 1
    for variable in meta["var_list"]:
        g = results[i]
        i += 1
        prior = var_grads.get(variable)
        var_grads[variable] = g if prior is None else api.add(prior, g)


def _cond_grad(builder, node, out_grads, acc, var_grads):
    true_f = node.branches["true"]
    false_f = node.branches["false"]
    _refuse_effects(true_f, false_f)
    union_vars = sorted(set(true_f.variables) | set(false_f.variables),
                        key=lambda v: v.uid)
    tg = grad_function(true_f, var_order=union_vars)
    fg = grad_function(false_f, var_order=union_vars)
    meta = tg.grad_meta
    pred = node.inputs[0]
    captured = list(node.inputs[1:])
    args = captured + _filled_out_grads(node, out_grads, None)
    results = builder.cond(pred, tg, fg, args, meta["out_specs"])
    if not isinstance(results, tuple):
        results = (results,)
    # arg_offset=1 because cond inputs are [pred, *captured]
    meta = dict(meta, arg_offset=1)
    _scatter_grad_results(node, meta, results, acc, var_grads)


def _while_grad(builder, node, out_grads, acc, var_grads):
    body_f = node.attrs["body_func"]
    bg = grad_function(body_f)
    # The loop records what a replay of ``bg`` reads of each iteration.
    node.attrs["record_grad"] = bg
    meta = bg.grad_meta
    # The body gradient replays the forward body, so a loop it
    # differentiates inside the body reads the forward loop's record.
    for clone, forward in meta["forward_of"].items():
        if clone.attrs.get("record_grad") \
                and not forward.attrs.get("record_grad"):
            forward.attrs["record_grad"] = clone.attrs["record_grad"]
            body_f.graph._executor_cache.clear()
    float_idx = meta["float_arg_indices"]
    float_mask = tuple(1 if i in set(float_idx) else 0
                       for i in range(len(node.inputs)))
    in_grads = []
    for i in float_idx:
        g = out_grads[i]
        in_grads.append(g if g is not None
                        else api.zeros_like(node.outputs[i]))
    gnode = builder.graph.new_node("while_grad", inputs=in_grads,
                                   name="while_grad")
    gnode.attrs["forward_node"] = node
    gnode.attrs["body_grad_func"] = bg
    gnode.attrs["float_mask"] = float_mask
    for shape, dtype in meta["out_specs"]:
        gnode.add_output(shape, dtype)
    results = gnode.outputs
    meta = dict(meta, arg_offset=0)
    _scatter_grad_results(node, meta, results, acc, var_grads)


def grad_function(func, var_order=None):
    """Build (or fetch) the gradient GraphFunction of ``func``.

    Signature of the returned function:
      placeholders: [*forward_args, *grads_for_float_outputs]
      outputs:      [*grads_for_float_args, *grads_per_variable]

    ``var_order`` overrides the variable ordering (used by cond so both
    branch gradients agree); the default is ``func.variables``.
    The gradient body is a clone of the forward body followed by
    backprop, and ``grad_meta["forward_of"]`` maps each clone to its
    forward node.  A loop gradient replays it: each clone whose forward
    node ran in the loop body takes its value from the iteration's
    record and never runs (``executor._ReplayExecutor``).  An invoke or
    cond gradient
    *recomputes* the clones, which sidesteps forward-value bookkeeping
    across recursive invocations; its callee must have no effects (see
    ``_refuse_effects``).  Either way the gradient runs only after that
    forward ran in the same run, so its graph is marked
    ``recomputes_forward``: recomputed guards are not kept live.
    """
    if var_order is None:
        var_order = func.variables
        cache_key = "default"
    else:
        cache_key = tuple(v.uid for v in var_order)
    if func._grad is None:
        func._grad = {}
    cached = func._grad.get(cache_key)
    if cached is not None:
        return cached

    gfunc = GraphFunction(func.name + "_grad")
    func._grad[cache_key] = gfunc  # registered first: recursion-safe

    fwd = func.graph
    # The gradient signature depends only on the forward signature and the
    # variable list, so it is known before the body exists — this is what
    # makes *recursive* gradient functions well-defined.
    fwd_float_args = [i for i, ph in enumerate(fwd.placeholders)
                      if _is_float(ph.outputs[0])]
    out_specs = [(ph.outputs[0].shape, ph.outputs[0].dtype)
                 for i, ph in enumerate(fwd.placeholders)
                 if i in set(fwd_float_args)]
    out_specs += [(v.shape, v.dtype) for v in var_order]
    gfunc.grad_meta = {
        "float_arg_indices": fwd_float_args,
        "var_list": list(var_order),
        "arg_offset": 0,
        "out_specs": out_specs,
        "forward_of": {},
    }
    builder = GraphBuilder(name=gfunc.name)
    builder.graph.recomputes_forward = True
    with builder:
        arg_phs = []
        for i, ph in enumerate(fwd.placeholders):
            out = ph.outputs[0]
            arg_phs.append(builder.placeholder("arg_%d" % i,
                                               shape=out.shape,
                                               dtype=out.dtype))
        value_map = {}
        for ph, new in zip(fwd.placeholders, arg_phs):
            value_map[_key(ph.outputs[0])] = new
        node_map = copy_graph_into(fwd, builder, value_map)
        gfunc.grad_meta["forward_of"] = {
            clone: node for node, clone in node_map.items()}
        fwd_outs = [value_map[_key(o)] for o in fwd.outputs]

        grad_phs = []
        seeds = []
        for j, out in enumerate(fwd_outs):
            if not _is_float(out):
                continue
            gph = builder.placeholder("out_grad_%d" % j, shape=out.shape,
                                      dtype=out.dtype)
            grad_phs.append(gph)
            seeds.append((out, gph))

        acc, vgrads = backprop(builder, seeds)

        outputs = []
        for i in fwd_float_args:
            g = acc.get(arg_phs[i])
            outputs.append(g if g is not None
                           else api.zeros_like(arg_phs[i]))
        for variable in var_order:
            g = vgrads.get(variable)
            if g is None:
                g = api.fill(variable.shape.as_tuple(), 0,
                             variable.dtype)
            outputs.append(g)
        builder.mark_outputs(outputs)

    gfunc.finalize(builder.graph)
    return gfunc


def copy_graph_into(src_graph, builder, value_map):
    """Clone ``src_graph``'s nodes into the builder's graph.

    ``value_map`` maps ``_key(src NodeOutput) -> dst NodeOutput`` and must
    already contain entries for every source placeholder.  It is updated
    in place with every copied output.  Returns the map from each source
    node to its clone (a placeholder to the one its value maps to).
    """
    dst = builder.graph
    node_map = {}
    for node in src_graph.topological_order():
        if node.op_name == "placeholder":
            out = value_map.get(_key(node.outputs[0]))
            if out is None:
                raise GraphError("placeholder %s missing from value map"
                                 % node.debug_name)
            node_map[node] = out.node
            continue
        inputs = [value_map[_key(i)] for i in node.inputs]
        controls = [node_map[c] for c in node.control_inputs
                    if c in node_map]
        clone = dst.new_node(node.op_name, op_def=node.op_def,
                             attrs=dict(node.attrs), inputs=inputs,
                             control_inputs=controls)
        clone.variable = node.variable
        clone.py_object = node.py_object
        clone.func = node.func
        clone.branches = dict(node.branches) if node.branches else None
        clone.constant_value = node.constant_value
        for out in node.outputs:
            new_out = clone.add_output(out.shape, out.dtype)
            value_map[_key(out)] = new_out
        node_map[node] = clone
    return node_map


def add_training_gradients(builder, loss, variables=None):
    """Gradients of a scalar ``loss`` w.r.t. Variables (JANUS train path).

    Returns ``dict Variable -> NodeOutput``.  ``variables=None`` means
    every variable touched by the loss computation.
    """
    ones = api.ones_like(loss)
    acc, var_grads = backprop(builder, [(loss, ones)])
    if variables is not None:
        wanted = set(id(v) for v in variables)
        var_grads = {v: g for v, g in var_grads.items()
                     if id(v) in wanted}
    return var_grads


def gradients(builder, ys, xs, grad_ys=None):
    """Gradients of outputs ``ys`` w.r.t. arbitrary handles ``xs``."""
    if grad_ys is None:
        grad_ys = [api.ones_like(y) for y in ys]
    acc, _ = backprop(builder, list(zip(ys, grad_ys)))
    return [acc.get(x) for x in xs]
