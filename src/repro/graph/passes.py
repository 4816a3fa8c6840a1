"""Graph optimization passes (the paper's post-processor, section 3.1).

These are the whole-graph optimizations that symbolic execution enables
and imperative execution forfeits: dead-code elimination, common
subexpression elimination, constant folding, and arithmetic
simplification.  Speculative specialization (section 4.2.2) is what makes
them bite — once profiled shapes and stable values are burned into the
graph as constants, folding and simplification cascade.

Paper correspondence: DCE/CSE/folding/simplification are §3.1's
"various compiler optimizations" that motivate symbolic execution;
their leverage comes from §4.2.2's specialization burning profiled
values in as foldable constants.
"""

import time

import numpy as np

from ..observability import COUNTERS, TRACER
from ..tensor import TensorValue


class AnalysisContext:
    """Shared per-round graph analyses for a :class:`PassManager` run.

    Every structural pass needs a topological order (and DCE a liveness
    set), but within one round most passes observe the *same* graph: the
    order only changes when a pass actually mutates the structure.  The
    context computes each analysis lazily, hands the cached result to
    every consumer, and is invalidated by the manager only when a pass
    reports a mutation — so a steady-state round performs zero
    ``topological_order()`` recomputations after the first.

    The cached order is additionally keyed to ``graph.version`` so a
    structural change that slips past a pass's changed-report (e.g. a
    helper adding nodes) can never serve a stale order.
    """

    __slots__ = ("graph", "_topo", "_topo_version", "_live",
                 "_live_version", "computes", "reuses")

    def __init__(self, graph):
        self.graph = graph
        self._topo = None
        self._topo_version = -1
        self._live = None
        self._live_version = -1
        self.computes = 0
        self.reuses = 0

    def topological_order(self):
        version = self.graph.version
        if self._topo is None or self._topo_version != version:
            self._topo = self.graph.topological_order()
            self._topo_version = version
            self.computes += 1
            COUNTERS.labels("passes.topo_computed").inc()
        else:
            self.reuses += 1
            COUNTERS.labels("passes.topo_reused").inc()
        return self._topo

    def live_nodes(self):
        version = self.graph.version
        if self._live is None or self._live_version != version:
            self._live = self.graph.live_nodes()
            self._live_version = version
        return self._live

    def invalidate(self):
        """Drop every cached analysis (a pass mutated the graph)."""
        self._topo = None
        self._live = None


def _order_of(graph, ctx):
    """Topological order via the shared context when one is available."""
    if ctx is not None:
        return ctx.topological_order()
    return graph.topological_order()


class Pass:
    """Base class: a transformation applied in place to a Graph.

    ``run`` takes an optional :class:`AnalysisContext`; passes that
    consume whole-graph analyses read them through the context so one
    computation serves the whole round.  Called without a context (tests,
    ad-hoc single-pass use) they fall back to computing their own.
    """

    name = "pass"

    def run(self, graph, ctx=None):
        """Apply the pass; returns True when the graph changed."""
        raise NotImplementedError


def _remap_inputs(graph, replacements):
    """Redirect every consumer edge according to ``replacements``.

    ``replacements`` maps ``(id(node), index) -> NodeOutput``.
    """
    if not replacements:
        return False

    def lookup(out):
        seen = set()
        while (id(out.node), out.index) in replacements:
            if (id(out.node), out.index) in seen:
                break
            seen.add((id(out.node), out.index))
            out = replacements[(id(out.node), out.index)]
        return out

    changed = False
    for node in graph.nodes:
        for i, inp in enumerate(node.inputs):
            new = lookup(inp)
            if new is not inp:
                node.inputs[i] = new
                changed = True
    for i, out in enumerate(graph.outputs):
        new = lookup(out)
        if new is not out:
            graph.outputs[i] = new
            changed = True
    return changed


class DeadCodeElimination(Pass):
    """Remove nodes that neither feed outputs nor have side effects."""

    name = "dce"

    def run(self, graph, ctx=None):
        live = ctx.live_nodes() if ctx is not None else graph.live_nodes()
        dead = [n for n in graph.nodes if n not in live]
        if not dead:
            return False
        graph.remove_nodes(dead)
        return True


class CommonSubexpressionElimination(Pass):
    """Deduplicate structurally identical pure nodes."""

    name = "cse"

    def run(self, graph, ctx=None):
        canonical = {}
        replacements = {}
        for node in _order_of(graph, ctx):
            # Resolve this node's inputs through pending replacements so
            # chained duplicates collapse in one run.
            for i, inp in enumerate(node.inputs):
                rep = replacements.get((id(inp.node), inp.index))
                if rep is not None:
                    node.inputs[i] = rep
            sig = node.signature()
            if sig is None:
                if node.op_name == "constant" and \
                        isinstance(node.constant_value, TensorValue):
                    value = node.constant_value
                    if value.array.nbytes <= 1 << 16:
                        sig = ("constant", value.dtype.name,
                               value.array.shape, value.array.tobytes())
                if sig is None:
                    continue
            existing = canonical.get(sig)
            if existing is None:
                canonical[sig] = node
                continue
            for out, channel in zip(node.outputs, existing.outputs):
                replacements[(id(out.node), out.index)] = channel
        _remap_inputs(graph, replacements)
        if replacements:
            DeadCodeElimination().run(graph)
        return bool(replacements)


class ConstantFolding(Pass):
    """Evaluate pure nodes whose inputs are all constants at build time."""

    name = "constant_folding"

    # Refuse to materialize folded constants bigger than this (bytes).
    MAX_BYTES = 1 << 20

    def run(self, graph, ctx=None):
        replacements = {}
        changed = False
        for node in _order_of(graph, ctx):
            for i, inp in enumerate(node.inputs):
                rep = replacements.get((id(inp.node), inp.index))
                if rep is not None:
                    node.inputs[i] = rep
            if node.op_def is None or node.op_def.stateful:
                continue
            if node.control_inputs:
                continue
            if not node.inputs and node.op_name not in ("fill", "range"):
                continue
            const_inputs = []
            foldable = True
            for inp in node.inputs:
                src = inp.node
                if src.op_name != "constant" or \
                        not isinstance(src.constant_value, TensorValue):
                    foldable = False
                    break
                const_inputs.append(src.constant_value.array)
            if not foldable:
                continue
            try:
                result = node.op_def.kernel(node.attrs, *const_inputs)
            except Exception:
                continue
            results = result if isinstance(result, tuple) else (result,)
            arrays = [np.asarray(r) for r in results]
            if sum(a.nbytes for a in arrays) > self.MAX_BYTES:
                continue
            for out, arr in zip(node.outputs, arrays):
                const = graph.new_node("constant")
                const.constant_value = TensorValue.of(arr)
                new_out = const.add_output(const.constant_value.shape,
                                           const.constant_value.dtype)
                replacements[(id(node), out.index)] = new_out
            changed = True
        if _remap_inputs(graph, replacements) or changed:
            DeadCodeElimination().run(graph)
            return True
        return False


def _scalar_constant(node_output):
    node = node_output.node
    if node.op_name != "constant":
        return None
    value = node.constant_value
    if not isinstance(value, TensorValue) or value.array.size != 1:
        return None
    return float(value.array.reshape(()))


class ArithmeticSimplification(Pass):
    """Strength-reduce trivial arithmetic: x+0, x*1, x/1, x**1, x-0."""

    name = "arithmetic_simplify"

    def run(self, graph, ctx=None):
        replacements = {}
        for node in _order_of(graph, ctx):
            for i, inp in enumerate(node.inputs):
                rep = replacements.get((id(inp.node), inp.index))
                if rep is not None:
                    node.inputs[i] = rep
            target = self._simplify(node)
            if target is not None:
                replacements[(id(node), 0)] = target
        changed = _remap_inputs(graph, replacements)
        if changed:
            DeadCodeElimination().run(graph)
        return changed

    def _simplify(self, node):
        op = node.op_name
        if op not in ("add", "sub", "mul", "div", "pow"):
            return None
        a, b = node.inputs
        out = node.outputs[0]
        ca, cb = _scalar_constant(a), _scalar_constant(b)

        def keeps(x):
            # Only rewrite when the surviving operand already has the
            # result's shape and dtype (no silent broadcasting change).
            return (x.dtype is out.dtype
                    and x.shape.is_fully_known and out.shape.is_fully_known
                    and x.shape.dims == out.shape.dims)

        if op == "add":
            if cb == 0.0 and keeps(a):
                return a
            if ca == 0.0 and keeps(b):
                return b
        elif op == "sub":
            if cb == 0.0 and keeps(a):
                return a
        elif op == "mul":
            if cb == 1.0 and keeps(a):
                return a
            if ca == 1.0 and keeps(b):
                return b
        elif op == "div":
            if cb == 1.0 and keeps(a):
                return a
        elif op == "pow":
            if cb == 1.0 and keeps(a):
                return a
        return None


DEFAULT_PASSES = (
    CommonSubexpressionElimination,
    ConstantFolding,
    ArithmeticSimplification,
    DeadCodeElimination,
)


class PassManager:
    """Runs passes to a fixed point (bounded rounds)."""

    def __init__(self, passes=None, max_rounds=4):
        self.passes = [p() for p in (passes or DEFAULT_PASSES)]
        self.max_rounds = max_rounds

    def run(self, graph, recurse=True, _seen_graphs=None):
        """Optimize a graph (and, optionally, nested function bodies)."""
        if _seen_graphs is None:
            _seen_graphs = set()
        if id(graph) in _seen_graphs:
            return graph
        _seen_graphs.add(id(graph))
        stamp = (graph.version, tuple(type(p) for p in self.passes))
        if getattr(graph, "_opt_stamp", None) == stamp:
            # Already optimized by this pipeline and structurally
            # untouched since (any mutation bumps graph.version).  This
            # is what scopes passes to dirty fragments on incremental
            # regeneration: spliced sub-graphs keep their stamp — and
            # their warm executor cache, which we deliberately do not
            # clear here.
            COUNTERS.labels("passes.graphs_skipped").inc()
            return graph
        ctx = AnalysisContext(graph)
        for round_index in range(self.max_rounds):
            changed = False
            for pass_ in self.passes:
                if TRACER.level:
                    before = len(graph.nodes)
                    start = time.perf_counter()
                    pass_changed = bool(pass_.run(graph, ctx))
                    TRACER.complete(
                        "pass", pass_.name, start,
                        time.perf_counter() - start, graph=graph.name,
                        round=round_index, nodes_before=before,
                        nodes_after=len(graph.nodes),
                        changed=pass_changed)
                else:
                    pass_changed = bool(pass_.run(graph, ctx))
                if pass_changed:
                    ctx.invalidate()
                changed |= pass_changed
            if not changed:
                break
        if recurse:
            for node in list(graph.nodes):
                for func in node._nested_functions():
                    if func is None or func.graph is None:
                        continue
                    self.run(func.graph, recurse=True,
                             _seen_graphs=_seen_graphs)
        graph._executor_cache.clear()
        # Stamp with the post-run version: a later run of the same
        # pipeline over the unchanged graph is a no-op and skips.
        graph._opt_stamp = (graph.version, stamp[1])
        return graph
