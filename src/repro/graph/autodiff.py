"""Reverse-mode automatic differentiation over symbolic graphs.

The static portion of a graph is differentiated by walking it in reverse
topological order and invoking the mode-polymorphic gradient registry
under a :class:`~repro.graph.builder.GraphBuilder` context, so gradient
*subgraphs* are appended to the same graph.

Functional control flow is differentiated by replaying its forward.
An ``invoke`` (recursive functions, ref. [20] of the paper), ``cond`` or
``while_loop`` whose gradient is taken carries ``record_grad``, the
gradient function of its callee (per branch for a cond): when it runs,
it keeps in a record slot of its graph's register file the callee
register-file values that gradient reads — one record for a call, one
per iteration for a loop.  Its gradient is a ``replay_grad`` node that
runs the callee's gradient over the records, last first, and never
computes a forward value again (``executor._ReplayExecutor``).  A loop
threads loop-variable adjoints from one replay to the one before and
sums per-iteration variable gradients.  Cond gradients share one
variable ordering, so either branch produces grads for the union of
variables (zeros for the untouched); a recursive callee yields a
recursive gradient function.

Because models read parameters through ``var_read`` nodes (possibly deep
inside nested functions), gradients are reported per-:class:`Variable` —
this is what the JANUS training path uses to append optimizer update ops.
"""

from ..errors import GraphError
from ..ops import api
from ..ops.registry import GradContext
from .builder import GraphBuilder
from .core import GraphFunction


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
        elif op in ("invoke", "cond", "while_loop"):
            _replay_grad(builder, node, out_grads, acc, var_grads)
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


def _filled_out_grads(node, out_grads):
    grads = []
    for out, g in zip(node.outputs, out_grads):
        if not _is_float(out):
            continue
        grads.append(g if g is not None else api.zeros_like(out))
    return grads


def _replay_grad(builder, node, out_grads, acc, var_grads):
    """An invoke, cond or loop records for its gradient (``record_grad``)
    and gets one ``replay_grad`` node, fed the adjoints of its float
    outputs."""
    if node.op_name == "cond":
        union_vars = sorted(
            set(node.branches["true"].variables)
            | set(node.branches["false"].variables), key=lambda v: v.uid)
        record = {taken: grad_function(func, var_order=union_vars)
                  for taken, func in node.branches.items()}
        grad_funcs = tuple(record.values())
        args = node.inputs[1:]      # after the predicate
    else:
        callee = node.func if node.op_name == "invoke" \
            else node.attrs["body_func"]
        record = grad_function(callee)
        grad_funcs = (record,)
        args = node.inputs
    meta = grad_funcs[0].grad_meta
    node.attrs["record_grad"] = record
    gnode = builder.graph.new_node("replay_grad",
                                   inputs=_filled_out_grads(node, out_grads))
    gnode.attrs["forward_node"] = node
    gnode.attrs["grad_funcs"] = grad_funcs
    for shape, dtype in meta["out_specs"]:
        gnode.add_output(shape, dtype)
    grads = iter(gnode.outputs)
    for arg_idx in meta["float_arg_indices"]:
        acc.add(args[arg_idx], next(grads))
    for variable, g in zip(meta["var_list"], grads):
        prior = var_grads.get(variable)
        var_grads[variable] = g if prior is None else api.add(prior, g)


def grad_function(func, var_order=None):
    """Build (or fetch) the gradient GraphFunction of ``func``.

    Signature of the returned function:
      placeholders: [*forward_args, *grads_for_float_outputs]
      outputs:      [*grads_for_float_args, *grads_per_variable]

    ``var_order`` overrides the variable ordering (used by cond so both
    branch gradients agree); the default is ``func.variables``.
    The gradient body is a clone of the forward body followed by
    backprop, and ``grad_meta["forward_of"]`` maps each clone to its
    forward node.  It only ever runs as a replay of a record of ``func``:
    each clone whose forward node ran takes its value from the record and
    never runs (``executor._ReplayExecutor``), so no guard or effect of
    the forward runs twice.  A call or loop the body differentiates
    replays in turn, from the record its forward node kept: so once
    backprop is done, each clone's ``record_grad`` is copied to its
    forward node, and the forward records too.  Doing it last lets a
    recursive gradient, unfinished while its own clones are
    differentiated, propagate as well.
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
        "out_specs": out_specs,
        "forward_of": {},
    }
    builder = GraphBuilder(name=gfunc.name)
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
    for node, clone in node_map.items():
        if clone.attrs.get("record_grad") \
                and not node.attrs.get("record_grad"):
            node.attrs["record_grad"] = clone.attrs["record_grad"]
            fwd._executor_cache.clear()
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
