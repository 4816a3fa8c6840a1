"""Graph optimization passes (the paper's post-processor, section 3.1).

These are the whole-graph optimizations that symbolic execution enables
and imperative execution forfeits: dead-code elimination, common
subexpression elimination, constant folding, and arithmetic
simplification.  Speculative specialization (section 4.2.2) is what makes
them bite — once profiled shapes and stable values are burned into the
graph as constants, folding and simplification cascade.

:class:`ElementwiseFusion` (paper §4.3's "executing the symbolic graph
with decent performance") collapses chains of pure elementwise ops into
single generated-source numpy kernels (:func:`fused_kernel_opdef`).  It
is *not* part of :data:`DEFAULT_PASSES` because it erases per-op node
structure (fused nodes carry no ``grad_fn`` and cannot be
re-differentiated), so it runs only on top-level graphs immediately
before executor compilation — ``compile_generated`` calls
:func:`fuse_graph`.  Nested :class:`~repro.graph.core.GraphFunction`
bodies (cond/while/invoke) are reused across regenerations via the
fragment cache and may be re-differentiated by autodiff, so they stay
unfused.

Paper correspondence: DCE/CSE/folding/simplification are §3.1's
"various compiler optimizations" that motivate symbolic execution;
their leverage comes from §4.2.2's specialization burning profiled
values in as foldable constants.  :class:`ElementwiseFusion` belongs
to §4.3/Table 3 (graph execution performance) and is documented in
docs/compilation.md ("Mechanism 4: the executed form").
"""

import itertools
import linecache
import threading
import time

import numpy as np

from ..observability import COUNTERS, TRACER
from ..ops.registry import OpDef
from ..tensor import TensorValue
from .core import Graph


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


#: Pure, shape-preserving-or-broadcasting ops whose kernels compose into
#: a single fused closure without changing results: every member reads
#: only its direct inputs, writes one output, and touches no state.
#: Reductions, matmuls, reshapes and gathers are deliberately absent —
#: fusing across them would change nothing (they dominate their own
#: cost) while complicating the group-legality argument.
ELEMENTWISE_OPS = frozenset([
    # arithmetic
    "add", "sub", "mul", "div", "floordiv", "mod", "pow",
    "maximum", "minimum", "neg", "abs", "sign", "square",
    # transcendental / activations
    "exp", "log", "log1p", "expm1", "sqrt", "tanh", "floor",
    "sigmoid", "relu", "leaky_relu", "clip", "softplus", "elu", "gelu",
    # comparisons and logic
    "equal", "not_equal", "less", "less_equal",
    "greater", "greater_equal",
    "logical_and", "logical_or", "logical_not",
    # select / dtype / passthrough
    "where", "cast", "identity", "stop_gradient",
    "zeros_like", "ones_like",
])


_FUSED_COUNTER = itertools.count()

#: ``source text -> (code object, linecache filename)``.  The same op
#: chain with the same wiring generates byte-identical source (kernels
#: and attrs are reached through namespace bindings, not literals), and
#: chains repeat heavily — unrolled RNN cells, per-topology TreeNN
#: regenerations — so caching ``compile()`` output cuts the dominant
#: cost of fusing a recompile-heavy workload.  Bounded crudely: emptied,
#: together with the sources it registered in :mod:`linecache`, when it
#: outgrows _CODE_CACHE_MAX distinct shapes.  Guarded by a lock:
#: background recompiles can fuse concurrently, and the clear-then-store
#: sequence must not interleave.
_CODE_CACHE = {}
_CODE_CACHE_MAX = 512
_CODE_CACHE_LOCK = threading.Lock()


def fused_kernel_opdef(members, ext_index):
    """Generate one numpy kernel replaying ``members`` in order.

    ``members`` is the fusion group in topological order (last member is
    the group root whose output survives); ``ext_index`` maps external
    input edges ``(id(node), index)`` to the fused node's input
    positions.  Returns ``(op_def, source_name, uid)`` where ``op_def``
    is a fresh single-output :class:`~repro.ops.registry.OpDef` and
    ``source_name`` is the linecache-registered filename of the
    generated source (so tracebacks and profilers can see the body).

    The generated body coerces every intermediate exactly like
    ``GraphExecutor._make_op_closure`` coerces op results
    (``r if type(r) is ndarray else asarray(r)``), so a fused chain is
    bit-for-bit identical to running the member kernels node by node.
    """
    uid = next(_FUSED_COUNTER)
    params = ["x%d" % i for i in range(len(ext_index))]
    lines = ["def _fused(attrs, %s):" % ", ".join(params)]
    namespace = {"_nd": np.ndarray, "_as": np.asarray}
    local = {}
    for i, node in enumerate(members):
        kname, aname = "_k%d" % i, "_a%d" % i
        namespace[kname] = node.op_def.kernel
        namespace[aname] = node.attrs
        args = []
        for inp in node.inputs:
            edge = (id(inp.node), inp.index)
            name = local.get(edge)
            args.append(name if name is not None
                        else "x%d" % ext_index[edge])
        lines.append("    v%d = %s(%s, %s)" % (i, kname, aname,
                                               ", ".join(args)))
        lines.append("    if v%d.__class__ is not _nd: v%d = _as(v%d)"
                     % (i, i, i))
        local[(id(node), 0)] = "v%d" % i
    lines.append("    return v%d" % (len(members) - 1))
    source = "\n".join(lines) + "\n"
    with _CODE_CACHE_LOCK:
        cached = _CODE_CACHE.get(source)
        if cached is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                for _, evicted_name in _CODE_CACHE.values():
                    linecache.cache.pop(evicted_name, None)
                _CODE_CACHE.clear()
            source_name = "<janus-fused-%d>" % uid
            linecache.cache[source_name] = (len(source), None,
                                            source.splitlines(True),
                                            source_name)
            cached = (compile(source, source_name, "exec"), source_name)
            _CODE_CACHE[source] = cached
    code, source_name = cached
    exec(code, namespace)

    root_out = members[-1].outputs[0]
    spec = (root_out.shape, root_out.dtype)

    def shape_fn(attrs, in_shapes, in_dtypes, _spec=spec):
        return [_spec]

    return OpDef("fused", kernel=namespace["_fused"],
                 shape_fn=shape_fn), source_name, uid


class ElementwiseFusion(Pass):
    """Collapse chains of elementwise ops into single fused kernels.

    Greedy reverse-topological grouping: each ungrouped elementwise node
    becomes a group root, then absorbs producers so long as the producer
    is (a) itself a fusable single-output op, (b) consumed *only* inside
    the group, (c) not a graph output, and (d) free of control-dependency
    edges in either direction.  Conditions (b)+(c) guarantee the
    intermediate value is unobservable, so erasing it cannot change any
    result; condition (d) plus producer-only growth guarantees the
    replacement node cannot create a cycle.  Each group is replaced by
    one ``fused`` node whose :class:`~repro.ops.registry.OpDef` kernel is
    a generated-source closure replaying the member kernels in order
    (see :func:`fused_kernel_opdef`).

    Not in :data:`DEFAULT_PASSES`: fused OpDefs have no ``grad_fn``, so
    this pass must only run on graphs that will never be differentiated
    again — the top-level graph right before executor compilation.
    """

    name = "elementwise_fusion"

    #: Minimum member count for a group to be worth a generated kernel.
    MIN_GROUP = 2

    def __init__(self):
        self.fused_ops = 0       # member ops collapsed in the last run
        self.fused_kernels = 0   # fused nodes emitted in the last run

    def run(self, graph, ctx=None):
        self.fused_ops = 0
        self.fused_kernels = 0
        order = _order_of(graph, ctx)
        consumers, control_users = graph.consumer_info()
        out_edges = {(id(o.node), o.index) for o in graph.outputs}

        def fusable(node):
            return (node.op_name in ELEMENTWISE_OPS
                    and node.op_def is not None
                    and not node.op_def.stateful
                    and len(node.outputs) == 1
                    and not node.control_inputs
                    and id(node) not in control_users)

        grouped = set()
        groups = []   # (root, member set)
        for node in reversed(order):
            if node in grouped or not fusable(node):
                continue
            group = {node}
            frontier = [node]
            while frontier:
                member = frontier.pop()
                for inp in member.inputs:
                    prod = inp.node
                    if prod in group or prod in grouped \
                            or not fusable(prod):
                        continue
                    edge = (id(prod), 0)
                    if edge in out_edges:
                        continue
                    if any(c not in group
                           for c in consumers.get(edge, ())):
                        continue
                    group.add(prod)
                    frontier.append(prod)
            if len(group) >= self.MIN_GROUP:
                groups.append((node, group))
                grouped |= group

        if not groups:
            return False

        position = {node: i for i, node in enumerate(order)}
        replacements = {}
        for root, group in groups:
            members = sorted(group, key=position.__getitem__)
            # External inputs, deduplicated in first-use order; these
            # become the fused node's input edges / kernel parameters.
            ext = []
            ext_index = {}
            for member in members:
                for inp in member.inputs:
                    if inp.node in group:
                        continue
                    edge = (id(inp.node), inp.index)
                    if edge not in ext_index:
                        ext_index[edge] = len(ext)
                        ext.append(inp)
            op_def, source_name, uid = fused_kernel_opdef(members, ext_index)
            fused = graph.new_node(
                "fused", op_def=op_def,
                attrs={"fused_id": uid,
                       "fused_ops": "|".join(m.op_name for m in members),
                       "fused_src": source_name},
                inputs=ext,
                name="fused_%s" % root.debug_name)
            root_out = root.outputs[0]
            new_out = fused.add_output(root_out.shape, root_out.dtype)
            replacements[(id(root), 0)] = new_out
            self.fused_ops += len(members)
        self.fused_kernels = len(groups)
        _remap_inputs(graph, replacements)
        graph.remove_nodes(grouped)
        COUNTERS.labels("lowering.fused_ops").inc(self.fused_ops)
        COUNTERS.labels("lowering.fused_kernels").inc(self.fused_kernels)
        return True


def fuse_graph(graph):
    """Run elementwise fusion on a top-level graph; returns ops fused.

    Must only be called on graphs that will never be differentiated
    again (see :class:`ElementwiseFusion`).
    """
    fusion = ElementwiseFusion()
    fusion.run(graph)
    return fusion.fused_ops


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
