"""Dynamic control flow (paper section 4.2.1): ``if``, ``while``, ``for``.

A construct whose direction or trip count the profile showed stable is
*unrolled* behind an AssertOp (+UNRL); otherwise it becomes a functional
``cond`` / ``while_loop`` node whose arms are sub-graph *regions*
(:func:`~.converter.build_region`).  Regions are what incremental
regeneration reuses: :func:`_region` splices a still-valid conversion
fragment from the :class:`~repro.janus.fragments.FragmentCache` or
converts the region and stores it — for both region kinds.
"""

import ast

import numpy as np

from ...errors import NotConvertible
from ...graph.core import NodeOutput
from ...imperative.eager import Tensor
from ...ops import api
from ...tensor.shape import Shape
from .. import fragments as frag_mod
from .converter import (BreakSignal, ContinueSignal, ReturnValue,
                        build_region, handles)
from .values import (Const, StackedList, SymEnumerate, SymRange, SymSeq,
                     SymZip, always_returns, assigned_names, contains_raise,
                     env_token, flatten_value, holds_graph_value,
                     leading_dim, read_names, rebuild_value,
                     structures_compatible)

#: Synthetic env names carrying a dynamic loop's own state into its
#: cond/body regions (user code cannot spell them).
_COUNTER = "__janus_counter__"
_BOUND = "__janus_bound__"
_RANGE_START = "__janus_range_start__"
_ITERATED = "__janus_iterated__"


# -- regions: splice or convert-and-store ------------------------------------------

def _region(conv, key, interface, env_names, accept, build):
    """The converted region for *key*, as ``(payload, binding)``: spliced
    from the fragment cache when a cached conversion is still exact
    here, else built and cached.

    *interface* is what must match a cached fragment exactly (names,
    edge specs); ``accept(payload)`` binds a cached payload to the
    current environment, or returns None when it does not fit;
    ``build()`` converts the region and returns the pair.  *env_names*
    are the names whose resolution the conversion depended on.
    """
    gen = conv.gen
    for frag in gen.fragments.lookup(key):
        if frag.valid(interface, gen.dirty_sites, conv.env, env_token):
            binding = accept(frag.payload)
            if binding is not None:
                gen.adopt_fragment(key, frag)
                return frag.payload, binding
    with gen.recording_region() as rec:
        payload, binding = build()
    gen.count_reconverted(key)
    if not rec.poisoned:
        summary = frag_mod.env_summary(conv.env, env_names, env_token,
                                       rec.keepalive)
        gen.fragments.store(key, frag_mod.Fragment(
            key[0], key, rec, summary,
            list(gen.prechecks[rec.precheck_start:]),
            interface=interface, payload=payload))
    return payload, binding


# -- if ------------------------------------------------------------------------------

@handles(ast.If)
def _if(conv, stmt, rest):
    """Convert an if statement.  True when the trailing statements were
    folded into a synthesized else branch (guard pattern: a branch that
    returns with no else)."""
    test = conv.expr(stmt.test)
    if isinstance(test, Const):
        conv.block(stmt.body if test.value else stmt.orelse)
        return False
    pred = conv.tensorize(test)
    site = conv.site(stmt, "if")
    direction = conv.gen.profile("branch_direction", site)
    if conv.gen.config.unroll_stable_control_flow and direction is not None:
        taken = stmt.body if direction else stmt.orelse
        if contains_raise(taken):
            raise NotConvertible("stable path raises", feature="raise")
        conv.assert_direction(pred, direction, site)
        conv.block(taken)
        return False
    # Dynamic conditional.
    body_returns = always_returns(stmt.body)
    orelse = stmt.orelse
    consumed_rest = body_returns and not orelse and bool(rest)
    if consumed_rest:
        orelse = list(rest)
    if body_returns != always_returns(orelse):
        raise NotConvertible("conditionally returning branch without "
                             "a stable profile", feature="control-flow")
    value = _dynamic_cond(conv, pred, stmt.body, orelse, site, body_returns)
    if body_returns:
        raise ReturnValue(value)
    return consumed_rest


def _dynamic_cond(conv, pred, body, orelse, site, returning):
    """Emit a ``cond`` node over two branch regions.

    A *returning* conditional's value is what its arms return.  An
    assigning one merges the names its arms bind back into the
    environment: names assigned on both paths always merge; one-sided
    names need a pre-existing binding to supply the other arm's value.
    """
    if returning:
        kind, out_names, merged = "cond_ret", None, None
    else:
        in_body, in_orelse = assigned_names(body), assigned_names(orelse)
        out_names = tuple(sorted(
            (in_body & in_orelse) |
            {n for n in (in_body | in_orelse) if n in conv.env}))
        kind = "cond_set"

        def merged(arm):
            return SymSeq([arm.env.get(n, conv.env.get(n))
                           for n in out_names], is_tuple=True)

    def build():
        # One capture plan: the cond node feeds both arms the same
        # edges, so both are built against the union of their captures.
        captures = []
        for stmts in (body, orelse):
            _plan_captures(conv, stmts, out_names, captures)
        (t_func, t_struct), (f_func, f_struct) = [
            build_region(conv.gen, conv.func, "branch_%s" % label,
                         conv.env, captures, stmts, after=merged,
                         boundary="a dynamic branch")
            for label, stmts in (("true", body), ("false", orelse))]
        if not structures_compatible(t_struct, f_struct):
            raise NotConvertible(
                "branches %s different structures (section 4.3.1 type "
                "rule)" % ("return" if returning else "assign"),
                feature="control-flow")
        _join_out_specs(t_func, f_func)     # mismatched arms: not cached
        plan = {}
        for _, edge, name in captures:
            plan.setdefault(name, []).append((edge.shape.dims, edge.dtype))
        return (t_func, f_func, t_struct, plan), \
            [edge for _, edge, _ in captures]

    env_names = read_names(body) | read_names(orelse) | set(out_names or ())
    (t_func, f_func, structure, _), edges = _region(
        conv, (kind, site), out_names, env_names,
        lambda payload: _replay_captures(conv, payload[3]), build)
    outputs = conv.builder.cond(pred, t_func, f_func, edges,
                                _join_out_specs(t_func, f_func))
    if not isinstance(outputs, tuple):
        outputs = (outputs,)
    value = rebuild_value(structure, iter(outputs))
    if returning:
        return value
    conv.env.update(zip(out_names, value.elements))


def _plan_captures(conv, stmts, out_names, captures):
    """Extend a branch capture plan ``[(label, edge, env name)]`` with
    every env name holding graph values (flattened) that the arm reads
    or may pass through to a merged output; constants are shared by
    reference."""
    names = sorted(read_names(stmts))
    names += [n for n in out_names or () if n not in names]
    planned = {name for _, _, name in captures}
    for name in names:
        if name in conv.env and name not in planned and \
                holds_graph_value(conv.env[name]):
            flat = []
            flatten_value(conv.env[name], flat)
            captures += [("%s#%d" % (name, k), edge, name)
                         for k, edge in enumerate(flat)]


def _replay_captures(conv, plan):
    """Current capture edges matching a cached plan, or None.

    Strict by design: every planned edge must exist with exactly the
    recorded shape dims and dtype, because the fragment body's
    placeholders were built against them.
    """
    edges = []
    for name, specs in plan.items():
        flat = []
        try:
            flatten_value(conv.env[name], flat)
        except (KeyError, NotConvertible):
            return None
        if len(flat) < len(specs):
            return None
        for edge, (dims, dtype) in zip(flat, specs):
            if not isinstance(edge, NodeOutput) or \
                    edge.dtype is not dtype or edge.shape.dims != dims:
                return None
            edges.append(edge)
    return edges


def _join_out_specs(t_func, f_func):
    t_outs = t_func.graph.outputs
    f_outs = f_func.graph.outputs
    if len(t_outs) != len(f_outs):
        raise NotConvertible("branch output arity mismatch",
                             feature="control-flow")
    specs = []
    for a, b in zip(t_outs, f_outs):
        if (a.dtype is None) != (b.dtype is None):
            raise NotConvertible("branch output kind mismatch",
                                 feature="control-flow")
        if a.dtype is not None and a.dtype is not b.dtype:
            raise NotConvertible("branch output dtype mismatch "
                                 "(section 4.3.1 type rule)",
                                 feature="control-flow")
        specs.append((a.shape.relax_against(b.shape), a.dtype))
    return specs


# -- loops -----------------------------------------------------------------------------

def _iteration(conv, body):
    """Convert one unrolled iteration; False when it ended in ``break``."""
    try:
        conv.block(body)
    except ContinueSignal:
        pass
    except BreakSignal:
        return False
    return True


@handles(ast.While)
def _while(conv, stmt, rest):
    if stmt.orelse:
        raise NotConvertible("while-else", feature="loop")
    config = conv.gen.config
    site = conv.site(stmt, "while")
    trip = conv.gen.profile("trip_count", site)
    if config.unroll_stable_control_flow and \
            trip is not None and trip <= config.max_unroll:
        for _ in range(trip):
            pred = conv.tensorize(conv.expr(stmt.test))
            conv.assert_direction(pred, True, site)
            if not _iteration(conv, stmt.body):
                return
        pred = conv.tensorize(conv.expr(stmt.test))
        conv.assert_direction(pred, False, site)
        return
    _dynamic_loop(conv, site, stmt.body, test=stmt.test)


@handles(ast.For)
def _for(conv, stmt, rest):
    if stmt.orelse:
        raise NotConvertible("for-else", feature="loop")
    config = conv.gen.config
    iterable = conv.expr(stmt.iter)
    items = _static_items(conv, iterable)
    if items is None or len(items) > config.max_unroll or \
            not config.unroll_stable_control_flow:
        dynamic = _as_dynamic_iterable(conv, iterable)
        if dynamic is not None:
            count, helpers, elem_fn, salt = dynamic
            # In a loop body the enclosing loop's helpers are in the env
            # under the same names: shadow them, then put them back.
            shadowed = {name: conv.env[name] for name in helpers
                        if name in conv.env}
            conv.env.update(helpers)
            try:
                _dynamic_loop(conv, conv.site(stmt, "for"), stmt.body,
                              count=count, elem_fn=elem_fn,
                              target=stmt.target, invariants=helpers,
                              salt=salt)
            finally:
                for name in helpers:
                    conv.env.pop(name, None)
                conv.env.update(shadowed)
            return
        if items is None:
            raise NotConvertible("iterable %r is not convertible"
                                 % (iterable,), feature="loop")
    for item in items:
        conv.assign(stmt.target, item)
        if not _iteration(conv, stmt.body):
            break


@handles(ast.ListComp)
def _list_comp(conv, node):
    if len(node.generators) != 1 or node.generators[0].is_async:
        raise NotConvertible("complex comprehension",
                             feature="comprehension")
    gen = node.generators[0]
    items = _static_items(conv, conv.expr(gen.iter))
    if items is None:
        raise NotConvertible("dynamic comprehension iterable",
                             feature="comprehension")
    out = []
    saved = dict(conv.env)
    for item in items:
        conv.assign(gen.target, item)
        keep = True
        for cond in gen.ifs:
            c = conv.expr(cond)
            if not isinstance(c, Const):
                raise NotConvertible("dynamic comprehension filter",
                                     feature="comprehension")
            keep = keep and bool(c.value)
        if keep:
            out.append(conv.expr(node.elt))
    conv.env = saved
    return SymSeq(out)


def _static_items(conv, iterable):
    """Items for a statically-unrollable iterable, else None."""
    if isinstance(iterable, Const):
        v = iterable.value
        if isinstance(v, range):
            return [Const(i) for i in v]
        if isinstance(v, Shape) and v.dims is not None:
            return [Const(d) for d in v.dims]
        if isinstance(v, (list, tuple)):
            if v and all(isinstance(e, (Tensor, np.ndarray)) for e in v):
                return [conv.builder.convert(e) for e in v]
            # Scalars, and heterogeneous / object lists: unroll over
            # the values / identities.
            return [Const(e) for e in v]
    if isinstance(iterable, SymSeq):
        return list(iterable.elements)
    if isinstance(iterable, SymEnumerate):
        inner = _static_items(conv, iterable.inner)
        if inner is None:
            return None
        return [SymSeq([Const(iterable.start + i), e], is_tuple=True)
                for i, e in enumerate(inner)]
    if isinstance(iterable, SymZip):
        columns = [_static_items(conv, part) for part in iterable.parts]
        if any(c is None for c in columns):
            return None
        n = min(len(c) for c in columns)
        return [SymSeq([c[i] for c in columns], is_tuple=True)
                for i in range(n)]
    if isinstance(iterable, StackedList):
        iterable = iterable.tensor
    if isinstance(iterable, NodeOutput) and iterable.dtype is not None:
        dim = leading_dim(iterable)
        if dim is not None and \
                conv.gen.config.unroll_stable_control_flow:
            return [api.getitem(iterable, i) for i in range(dim)]
    return None


def _as_dynamic_iterable(conv, iterable):
    """(count, helpers, elem_fn, salt) for a dynamic loop, or None.

    ``helpers`` maps synthetic env names to graph values that must
    be carried into the loop body as invariants (the iterated tensor,
    a symbolic range start); ``elem_fn(body, counter)`` produces the
    per-iteration element *inside* the body region using those carried
    values.  ``salt`` extends the fragment-cache key with any
    iteration parameter the body burns in as a constant (a
    const-range start), so differently-parameterized bodies never
    alias one cached fragment.
    """
    if isinstance(iterable, SymRange):
        step = iterable.step
        if not (isinstance(step, Const) and step.value == 1):
            return None
        start = api.cast(conv.tensorize(iterable.start), "int64")
        stop = api.cast(conv.tensorize(iterable.stop), "int64")

        def elem(body, counter):
            return api.add(counter, body.env[_RANGE_START])

        return api.sub(stop, start), {_RANGE_START: start}, elem, ()
    if isinstance(iterable, StackedList):
        iterable = iterable.tensor
    if isinstance(iterable, NodeOutput) and iterable.dtype is not None:
        dim = leading_dim(iterable)
        count = conv.builder.convert(dim) if dim is not None \
            else api.getitem(api.shape_of(iterable), 0)

        def elem(body, counter):
            return api.gather(body.env[_ITERATED], counter)

        return api.cast(count, "int64"), {_ITERATED: iterable}, elem, ()
    if isinstance(iterable, Const) and isinstance(iterable.value, range):
        r = iterable.value
        if r.step != 1:
            return None

        def elem(body, counter):
            return api.add(counter, np.int64(r.start))

        return conv.builder.convert(np.int64(len(r))), {}, elem, \
            ("crange", r.start)
    return None


def _dynamic_loop(conv, site, body, test=None, count=None, elem_fn=None,
                  target=None, invariants=(), salt=()):
    """Emit a while_loop node for a dynamic while/for (section 4.2.1).

    Loop-carried state is every env name assigned in the body plus
    every graph value the body or test reads; Python lists of tensors
    crossing the boundary are lowered to stacked accumulators.
    """
    env = conv.env
    carried_names = sorted(n for n in assigned_names(body) if n in env)
    # Names assigned only inside the body are per-iteration locals;
    # if one is genuinely read before assignment (or after the loop)
    # its lookup fails during body conversion with a clear error.
    read = read_names(body)
    if test is not None:
        read |= read_names([test])
    invariant_names = sorted(
        set(invariants) |
        {n for n in read if n in env and n not in carried_names and
         holds_graph_value(env[n])})

    # Lower loop-carried state into graph edges: Python lists of
    # tensors become stacked accumulators, and build-time numbers
    # become scalar tensors (their value changes across iterations).
    for name in carried_names:
        value = env[name]
        if isinstance(value, SymSeq):
            env[name] = _to_stacked(conv, value, name)
        elif isinstance(value, Const) and isinstance(
                value.value, (int, float)) and \
                not isinstance(value.value, bool):
            env[name] = conv.tensorize(value)

    # The loop variables: an iteration counter, the flattened state,
    # and (for loops) the trip count — hoisted, evaluated once and
    # carried as an invariant.
    loop_names = carried_names + invariant_names
    loop_env = dict(env)
    loop_env[_COUNTER] = conv.builder.convert(np.int64(0))
    structures = []
    loop_vars = [(loop_env[_COUNTER], _COUNTER)]
    for name in loop_names:
        flat = []
        structures.append(flatten_value(env[name], flat))
        loop_vars += [(edge, name) for edge in flat]
    if count is not None:
        loop_env[_BOUND] = api.cast(count, "int64")
        loop_vars.append((loop_env[_BOUND], _BOUND))
    captures = [("lv%d" % k, edge, name)
                for k, (edge, name) in enumerate(loop_vars)]
    inits = [edge for edge, _ in loop_vars]

    def keep_going(cond):
        if count is not None:
            return api.less(cond.env[_COUNTER], cond.env[_BOUND])
        return cond.tensorize(cond.expr(test))

    def bind_element(step):
        if elem_fn is not None:
            step.assign(target, elem_fn(step, step.env[_COUNTER]))

    def next_state(step):
        outputs = []
        for name, structure in zip(loop_names, structures):
            value = step.env[name]
            if isinstance(value, SymSeq):
                value = step.env[name] = _to_stacked(step, value, name)
            if not structures_compatible(flatten_value(value, outputs),
                                         structure):
                raise NotConvertible(
                    "loop-carried %r changes structure across "
                    "iterations" % name, feature="loop")
        outputs.insert(0, api.add(step.env[_COUNTER], np.int64(1)))
        if count is not None:
            outputs.append(step.env[_BOUND])
        return SymSeq(outputs)

    def build():
        cond_func, _ = build_region(
            conv.gen, conv.func, "loop_cond", loop_env, captures, [],
            after=keep_going, boundary="a dynamic loop")
        body_func, _ = build_region(
            conv.gen, conv.func, "loop_body", loop_env, captures,
            list(body), before=bind_element, after=next_state,
            boundary="a dynamic loop")
        return (cond_func, body_func, structures), True

    def accept(payload):
        cached = payload[2]
        if len(cached) == len(structures) and all(
                structures_compatible(a, b)
                for a, b in zip(cached, structures)):
            return True
        return None

    interface = (tuple(loop_names), count is not None,
                 tuple((e.shape.dims, e.dtype) for e in inits))
    (cond_func, body_func, _), _ = _region(
        conv, ("loop", site, tuple(salt)), interface, read | set(loop_names),
        accept, build)

    out_specs = []
    for init, out in zip(inits, body_func.graph.outputs):
        if init.dtype is not out.dtype:
            raise NotConvertible("loop-carried dtype changes",
                                 feature="loop")
        out_specs.append((init.shape.relax_against(out.shape), init.dtype))
    results = iter(conv.builder.while_loop(cond_func, body_func, inits,
                                           out_specs)[1:])
    for name, structure in zip(loop_names, structures):
        env[name] = rebuild_value(structure, results)


def _to_stacked(conv, seq, name):
    """Lower a SymSeq of same-shaped tensors into a StackedList."""
    if not seq.elements:
        raise NotConvertible(
            "list %r is empty at a dynamic loop boundary; "
            "cannot infer element shape" % name, feature="loop")
    tensors = [conv.tensorize(e) for e in seq.elements]
    for t in tensors[1:]:
        if t.dtype is not tensors[0].dtype:
            raise NotConvertible("list %r mixes dtypes at a loop "
                                 "boundary" % name, feature="loop")
    return StackedList(api.stack(tensors))
