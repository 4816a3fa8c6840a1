"""Speculative symbolic graph generation (paper section 4).

``GraphGenerator`` converts the AST of an imperative DL program into a
symbolic dataflow graph, using the profile gathered by
:class:`~repro.janus.profiler.Profiler` to resolve dynamic features:

* **Dynamic control flow** (4.2.1) — ``if``/``while``/``for`` convert to
  functional cond/while ops; when the profile shows a stable direction or
  trip count (and +UNRL is enabled) the construct is *unrolled* behind an
  AssertOp guarding the speculative assumption.  Function calls inline;
  calls on a cycle of the profiled call graph become recursive ``invoke``
  nodes.
* **Dynamic types** (4.2.2) — placeholder dtypes/shapes come from the
  specialization lattice; non-numerical values travel as PyRef edges.
* **Impure functions** (4.2.3) — object attribute and subscript accesses
  become ``py_get_*``/``py_set_*`` nodes with deferred, all-or-nothing
  writeback; heap reads carry profiled type assumptions validated at
  runtime.

Any construct outside the supported subset raises
:class:`~repro.errors.NotConvertible`, routing the function to the
imperative executor (4.3).

Paper correspondence: this module is §4.1 (the speculative graph
generator itself — AST-to-graph conversion under profiled assumptions,
with AssertOp guards) and the conversion rules of §4.2.1–4.2.3 listed
above; the permanent imperative-only routing on ``NotConvertible`` is
the §4.3 fallback path.  Each completed generation emits a ``graphgen``
trace event with node counts (:mod:`repro.observability`); the spans
around generation are recorded by :mod:`repro.janus.api`.

In the execution pipeline (instrument → graphgen → compile,
docs/architecture.md) this module is stage 2; its output graph is
immediately fused and compiled into a
:class:`~repro.janus.compiled.CompiledGraph` by ``compile_generated``.
"""

import ast
import time
import types

import numpy as np

from ..errors import NotConvertible
from ..observability import COUNTERS, HEALTH, METRICS, TRACER
from ..graph.builder import GraphBuilder
from ..graph.core import GraphFunction, NodeOutput
from ..graph import autodiff
from ..graph.passes import PassManager
from ..imperative.eager import Tensor
from ..imperative.variable import Variable
from ..ops import api
from ..tensor import TensorValue, PyRef, dtype as dtypes
from ..tensor.shape import Shape
from . import fragments as frag_mod
from . import specialization as spec
from .coverage import check_convertible
from .instrument import get_function_ast, function_key
from .whitelist import (handler_for, is_whitelisted, STRUCTURAL_BUILTINS,
                        MATH_CONST_FUNCS)

_OPTIMIZE_SECONDS = METRICS.histogram(
    "janus_graphgen_optimize_seconds",
    "Optimization-pass time per generated graph.").labels()


# ---------------------------------------------------------------------------
# symbolic values
# ---------------------------------------------------------------------------

class Const:
    """A Python value fully known at graph-build time."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Const(%r)" % (self.value,)


class SymSeq:
    """A list/tuple with build-time-known structure of symbolic elements."""

    __slots__ = ("elements", "is_tuple")

    def __init__(self, elements, is_tuple=False):
        self.elements = list(elements)
        self.is_tuple = is_tuple

    def __repr__(self):
        return "SymSeq(%d%s)" % (len(self.elements),
                                 ", tuple" if self.is_tuple else "")


class SymDict:
    """A dict with constant keys and symbolic values."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = dict(entries)


class SymFunc:
    """A nested def / lambda, inlined at call sites."""

    __slots__ = ("fdef", "env", "owner_func", "name")

    def __init__(self, fdef, env, owner_func, name):
        self.fdef = fdef
        self.env = env
        self.owner_func = owner_func
        self.name = name


class SymRange:
    """A range over (possibly symbolic) scalar bounds."""

    __slots__ = ("start", "stop", "step")

    def __init__(self, start, stop, step):
        self.start = start
        self.stop = stop
        self.step = step


class StackedList:
    """A list of same-shaped tensors lowered to one stacked tensor.

    Appears when a Python list must cross a dynamic-loop boundary; the
    accumulator tensor grows along axis 0 (a TensorArray in TF terms).
    """

    __slots__ = ("tensor",)

    def __init__(self, tensor):
        self.tensor = tensor


class _ReturnValue(Exception):
    """Internal control-flow signal carrying a converted return value."""

    def __init__(self, value):
        super().__init__("return")
        self.value = value


class _BreakSignal(Exception):
    """A ``break`` reached on a statically-resolved path."""


class _ContinueSignal(Exception):
    """A ``continue`` reached on a statically-resolved path."""


_MISSING = object()


# ---------------------------------------------------------------------------
# flatten / rebuild of structured symbolic values
# ---------------------------------------------------------------------------

def flatten_value(value, flat):
    """Flatten a symbolic value into graph edges; return a structure spec."""
    if isinstance(value, NodeOutput):
        flat.append(value)
        return ("edge",)
    if isinstance(value, StackedList):
        flat.append(value.tensor)
        return ("stacked",)
    if isinstance(value, SymSeq):
        return ("seq", value.is_tuple,
                tuple(flatten_value(e, flat) for e in value.elements))
    if isinstance(value, SymDict):
        keys = tuple(value.entries.keys())
        return ("dict", keys,
                tuple(flatten_value(value.entries[k], flat) for k in keys))
    if isinstance(value, Const):
        return ("const", value.value)
    if value is None:
        return ("const", None)
    raise NotConvertible("value %r cannot cross a graph boundary" % (value,),
                         feature="boundary")


def rebuild_value(structure, flat_iter):
    kind = structure[0]
    if kind == "edge":
        return next(flat_iter)
    if kind == "stacked":
        return StackedList(next(flat_iter))
    if kind == "seq":
        _, is_tuple, parts = structure
        return SymSeq([rebuild_value(p, flat_iter) for p in parts],
                      is_tuple=is_tuple)
    if kind == "dict":
        _, keys, parts = structure
        return SymDict({k: rebuild_value(p, flat_iter)
                        for k, p in zip(keys, parts)})
    if kind == "const":
        return Const(structure[1])
    raise NotConvertible("bad structure %r" % (structure,))


def _structure_token(structure, keep=None):
    """Hashable digest of a flatten_value structure spec.

    Const leaves are burned into converted fragments by value, so they
    digest by content (via fragments.value_digest); edge leaves carry no
    value — their shapes/dtypes are validated through the capture plan.
    """
    kind = structure[0]
    if kind in ("edge", "stacked"):
        return (kind,)
    if kind == "seq":
        return ("seq", structure[1],
                tuple(_structure_token(p, keep) for p in structure[2]))
    if kind == "dict":
        return ("dict", structure[1],
                tuple(_structure_token(p, keep) for p in structure[2]))
    if kind == "const":
        return ("const", frag_mod.value_digest(structure[1], keep))
    return ("?",)


def structures_compatible(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == "seq":
        return a[1] == b[1] and len(a[2]) == len(b[2]) and \
            all(structures_compatible(x, y) for x, y in zip(a[2], b[2]))
    if a[0] == "dict":
        return a[1] == b[1] and \
            all(structures_compatible(x, y) for x, y in zip(a[2], b[2]))
    if a[0] == "const":
        va, vb = a[1], b[1]
        if isinstance(va, (list, tuple, dict, np.ndarray)):
            return type(va) is type(vb) and np.array_equal(va, vb) \
                if isinstance(va, np.ndarray) else va == vb
        return va == vb or (va is vb)
    return True


# ---------------------------------------------------------------------------
# AST analysis helpers
# ---------------------------------------------------------------------------

def assigned_names(stmts):
    """Names bound anywhere in a statement list (no nested defs)."""
    names = set()

    class _V(ast.NodeVisitor):
        def visit_Name(self, node):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                names.add(node.id)

        def visit_FunctionDef(self, node):
            names.add(node.name)

        def visit_Lambda(self, node):
            pass

    v = _V()
    for s in stmts:
        v.visit(s)
    return names


def read_names(stmts):
    names = set()

    class _V(ast.NodeVisitor):
        def visit_Name(self, node):
            if isinstance(node.ctx, ast.Load):
                names.add(node.id)

    v = _V()
    for s in stmts:
        v.visit(s)
    return names


def always_returns(stmts):
    """Conservative: does every path through ``stmts`` hit a return/raise?"""
    for stmt in stmts:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return True
        if isinstance(stmt, ast.If):
            if stmt.orelse and always_returns(stmt.body) and \
                    always_returns(stmt.orelse):
                return True
    return False


def contains_raise(stmts):
    found = []

    class _V(ast.NodeVisitor):
        def visit_Raise(self, node):
            found.append(node)

        def visit_FunctionDef(self, node):
            pass

        def visit_Lambda(self, node):
            pass

    v = _V()
    for s in stmts:
        v.visit(s)
    return bool(found)


_BINOP_API = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
    ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
    ast.MatMult: "matmul",
}

_CMP_API = {
    ast.Eq: "equal", ast.NotEq: "not_equal", ast.Lt: "less",
    ast.LtE: "less_equal", ast.Gt: "greater", ast.GtE: "greater_equal",
}

_PY_BINOP = {
    ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b, ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}

_PY_CMP = {
    ast.Eq: lambda a, b: a == b, ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b, ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b, ast.GtE: lambda a, b: a >= b,
    ast.Is: lambda a, b: a is b, ast.IsNot: lambda a, b: a is not b,
    ast.In: lambda a, b: a in b, ast.NotIn: lambda a, b: a not in b,
}


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

class GeneratedGraph:
    """The product of conversion: graph + binding plan + assumptions."""

    def __init__(self, graph, arg_plan, output_structure, prechecks):
        self.graph = graph
        self.arg_plan = arg_plan          # list of ("arg", i) / ("item", i, j)
        self.output_structure = output_structure
        self.prechecks = prechecks        # list of (describe, check_fn)
        #: Node count before the optimization passes ran (compile-time
        #: metadata surfaced through CompiledGraph / trace events).
        self.nodes_raw = len(graph.nodes)
        #: The argument specs this graph was specialized on; handed to
        #: the next regeneration as a RegenerationSeed (None until
        #: generate() attaches them).
        self.bound_arg_specs = None

    def bind_feeds(self, args):
        feeds = []
        for path in self.arg_plan:
            if path[0] == "arg":
                feeds.append(args[path[1]])
            else:
                feeds.append(args[path[1]][path[2]])
        return feeds

    def check_preconditions(self, args):
        """Cache-retrieval assumption validation (figure 2, check 1)."""
        for _desc, check in self.prechecks:
            if not check(args):
                return False
        return True

    def repack_outputs(self, flat_values):
        from ..graph.executor import _externalize
        it = iter(flat_values)

        def build(structure):
            kind = structure[0]
            if kind in ("edge", "stacked"):
                return _externalize(next(it))
            if kind == "seq":
                items = [build(p) for p in structure[2]]
                return tuple(items) if structure[1] else items
            if kind == "dict":
                return {k: build(p)
                        for k, p in zip(structure[1], structure[2])}
            if kind == "const":
                return structure[1]
            raise NotConvertible("bad output structure")

        return build(self.output_structure)


class GraphGenerator:
    """Converts one profiled function into a :class:`GeneratedGraph`."""

    def __init__(self, func, profiler, config, optimizer=None,
                 signature=None, fragments=None, dirty_sites=frozenset(),
                 seed=None):
        self.func = func
        self.profiler = profiler
        self.config = config
        self.optimizer = optimizer
        self.signature = signature
        self.builder = None
        self.prechecks = []
        self.graph_functions = {}    # function_key -> GraphFunction
        self.recursive_keys = self._find_recursive_keys()
        #: FragmentCache the conversion splices from and records into.
        #: None is a fresh, empty one: nothing to splice, so the whole
        #: AST reconverts — an empty cache *is* the full rebuild.
        self.fragments = fragments if fragments is not None \
            else frag_mod.FragmentCache()
        #: Profiler sites whose assumptions were just relaxed: fragments
        #: depending on them must reconvert.
        self.dirty_sites = frozenset(dirty_sites)
        #: RegenerationSeed from the invalidated predecessor (or None).
        self.seed = seed
        self._frag_stack = []        # active FragmentRecorders, innermost last
        self.fragments_reused = 0
        self.fragments_reconverted = 0
        self.specs_seeded = 0

    # -- call-graph cycle analysis (invoke vs inline) ------------------------

    def _find_recursive_keys(self):
        edges = {}
        for site, entry in self.profiler.sites.items():
            if entry.kind != "call":
                continue
            src = site[0]
            for callee in entry.callees:
                if isinstance(callee, types.FunctionType) and \
                        not is_whitelisted(callee):
                    edges.setdefault(src, set()).add(function_key(callee))
        recursive = set()
        for start in edges:
            stack = list(edges.get(start, ()))
            seen = set()
            while stack:
                key = stack.pop()
                if key == start:
                    recursive.add(start)
                    break
                if key in seen:
                    continue
                seen.add(key)
                stack.extend(edges.get(key, ()))
        return recursive

    # -- entry point ------------------------------------------------------------

    def generate(self):
        target = getattr(self.func, "__func__", self.func)
        fdef = get_function_ast(target)
        check_convertible(fdef)
        self.builder = GraphBuilder(name=target.__name__)
        arg_plan = []
        with self.builder:
            env = self._bind_arguments(fdef, arg_plan)
            converter = _FunctionConverter(self, target, env)
            try:
                converter.convert_block(fdef.body)
                result = Const(None)
            except _ReturnValue as ret:
                result = ret.value
            flat = []
            structure = flatten_value(result, flat)
            if self.optimizer is not None:
                structure, flat = self._attach_training(result, structure,
                                                        flat)
            self.builder.mark_outputs(flat)
        graph = self.builder.graph
        nodes_before = len(graph.nodes)
        if self.config.specialize_types:
            start = time.perf_counter()
            PassManager().run(graph)
            _OPTIMIZE_SECONDS.observe(time.perf_counter() - start)
        COUNTERS.labels("janus.graphs_generated").inc()
        COUNTERS.labels("graphgen.fragments_reused").inc(
            self.fragments_reused)
        COUNTERS.labels("graphgen.fragments_reconverted").inc(
            self.fragments_reconverted)
        COUNTERS.labels("graphgen.specs_seeded").inc(self.specs_seeded)
        if TRACER.level:
            TRACER.instant("graphgen", "incremental", graph=graph.name,
                           fragments_reused=self.fragments_reused,
                           fragments_reconverted=
                           self.fragments_reconverted,
                           specs_seeded=self.specs_seeded,
                           dirty_sites=len(self.dirty_sites))
            TRACER.instant("graphgen", "generated", graph=graph.name,
                           nodes_raw=nodes_before,
                           nodes_optimized=len(graph.nodes),
                           prechecks=len(self.prechecks),
                           training=self.optimizer is not None)
        generated = GeneratedGraph(graph, arg_plan, structure, self.prechecks)
        generated.nodes_raw = nodes_before
        generated.bound_arg_specs = getattr(self, "_bound_specs", None)
        return generated

    def _attach_training(self, result, structure, flat):
        """Append autodiff + optimizer update ops (training functions)."""
        loss = None
        if isinstance(result, NodeOutput):
            loss = result
        elif isinstance(result, SymSeq) and result.elements and \
                isinstance(result.elements[0], NodeOutput):
            loss = result.elements[0]
        if loss is None or loss.dtype is None or not loss.dtype.is_floating:
            raise NotConvertible("training function must return a float "
                                 "loss tensor", feature="training")
        var_grads = autodiff.add_training_gradients(self.builder, loss)
        pairs = [(g, v) for v, g in var_grads.items()]
        self.optimizer.apply_gradients(pairs)
        return structure, flat

    # -- argument binding ----------------------------------------------------------

    def _bind_arguments(self, fdef, arg_plan):
        args = fdef.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
            raise NotConvertible("*args/**kwargs signatures are "
                                 "imperative-only", feature="signature")
        specs = None
        if self.signature is not None:
            specs = self.profiler.arg_specs_for(self.signature)
        if specs is None:
            specs = self.profiler.arg_specs or []
        specs = self._seed_arg_specs(specs)
        self._bound_specs = list(specs)
        names = [a.arg for a in args.args]
        if len(specs) != len(names):
            raise NotConvertible("profiled arity %d != signature %d"
                                 % (len(specs), len(names)),
                                 feature="signature")
        env = {}
        for i, (name, sp) in enumerate(zip(names, specs)):
            env[name] = self._bind_one_arg(i, name, sp, arg_plan)
        return env

    def _bind_one_arg(self, index, name, sp, arg_plan):
        cfg = self.config
        if sp is None or sp.kind == spec.BOTTOM:
            raise NotConvertible("argument %r has no stable spec" % name,
                                 feature="argument")
        if sp.kind == spec.CONST_TENSOR and cfg.specialize_types:
            value = sp.value
            self._add_precheck(
                "arg %d constant" % index,
                spec.ArgConstTensor(index, value))
            return self.builder.constant(TensorValue.of(value))
        if sp.is_tensor_like:
            # Shapes are part of the basic type assumption (checked at
            # cache retrieval); +SPCN additionally burns stable *values*
            # into the graph as constants.
            shape = sp.shape
            ph = self.builder.placeholder("arg_%d_%s" % (index, name),
                                          shape=shape, dtype=sp.dtype)
            arg_plan.append(("arg", index))
            check_spec = spec.ValueSpec(spec.TENSOR, dtype=sp.dtype,
                                        shape=shape)
            self._add_precheck(
                "arg %d tensor spec" % index,
                spec.ArgSpecMatches(index, check_spec))
            return ph
        if sp.kind == spec.NONE:
            return Const(None)
        if sp.kind == spec.CONST_PY:
            value = sp.value
            self._add_precheck(
                "arg %d const" % index,
                spec.ArgEquals(index, value))
            return Const(value)
        if sp.kind == spec.CALLABLE:
            target = sp.value
            self._add_precheck(
                "arg %d callee identity" % index,
                spec.ArgCallableIs(index, target))
            return Const(target)
        if sp.kind == spec.VARIABLE:
            var = sp.value
            self._add_precheck(
                "arg %d variable identity" % index,
                spec.ArgIsObject(index, var))
            return Const(var)
        if sp.kind == spec.PYOBJ:
            if sp.value is not None:
                obj = sp.value
                self._add_precheck(
                    "arg %d object identity" % index,
                    spec.ArgIsObject(index, obj))
                return Const(obj)
            py_type = sp.py_type
            self._add_precheck(
                "arg %d object type" % index,
                spec.ArgTypeIs(index, py_type))
            ph = self.builder.placeholder("arg_%d_%s" % (index, name),
                                          shape=(), dtype=None)
            arg_plan.append(("arg", index))
            return ph
        if sp.kind == spec.LIST:
            elements = []
            n = len(sp.elements)
            self._add_precheck(
                "arg %d sequence length" % index,
                spec.ArgSeqLen(index, n))
            for j, esp in enumerate(sp.elements):
                if esp.is_tensor_like:
                    shape = esp.shape
                    ph = self.builder.placeholder(
                        "arg_%d_%s_%d" % (index, name, j),
                        shape=shape, dtype=esp.dtype)
                    arg_plan.append(("item", index, j))
                    check = spec.ValueSpec(spec.TENSOR, dtype=esp.dtype,
                                           shape=shape)
                    self._add_precheck(
                        "arg %d item %d" % (index, j),
                        spec.ArgItemMatches(index, j, check))
                    elements.append(ph)
                else:
                    raise NotConvertible(
                        "argument %r: non-tensor sequence elements are "
                        "imperative-only" % name, feature="argument")
            return SymSeq(elements, is_tuple=sp.is_tuple)
        raise NotConvertible("argument %r spec %r not convertible"
                             % (name, sp), feature="argument")

    def _add_precheck(self, description, check):
        self.prechecks.append((description, check))

    # -- spec seeding from the previous artifact -----------------------------

    def _seed_arg_specs(self, specs):
        """Reuse the predecessor's bound specs where digest-equal.

        Equal digests mean the regenerated graph would bind the argument
        identically, so the previous artifact's spec object is carried
        over instead of the freshly re-derived one (keeping any identity
        tokens/guard closures keyed on it warm).  Unequal digests mean
        the relaxation touched this argument, and the profile-derived
        spec wins — which is what prevents a seed from reintroducing a
        just-relaxed assumption.
        """
        if self.seed is None:
            return specs
        old = self.seed.bound_arg_specs
        if not old or len(old) != len(specs):
            return specs
        seeded = []
        for old_sp, new_sp in zip(old, specs):
            if old_sp is not None and spec.spec_digest(old_sp) == \
                    spec.spec_digest(new_sp):
                seeded.append(old_sp)
                self.specs_seeded += 1
            else:
                seeded.append(new_sp)
        return seeded

    # -- incremental fragment machinery --------------------------------------

    def _begin_fragment(self):
        """Push a dependency recorder for a region conversion."""
        rec = frag_mod.FragmentRecorder(precheck_start=len(self.prechecks))
        self._frag_stack.append(rec)
        return rec

    def _end_fragment(self):
        self._frag_stack.pop()

    def _dep(self, label, fetch, digest, site=None, keep=None):
        """Record a dependency into every active fragment recorder, so
        outer fragments absorb the deps of regions converted inside
        them."""
        if not self._frag_stack:
            return
        for rec in self._frag_stack:
            rec.deps.append((label, fetch, digest))
            if site is not None:
                rec.dep_sites.add(site)
            if keep:
                rec.keepalive.extend(keep)

    def _poison_fragments(self):
        """Mark every active recorder unreusable (the conversion had a
        build-time side effect that splicing would not replay)."""
        for rec in self._frag_stack:
            rec.poisoned = True

    def _adopt_fragment(self, key, frag):
        """Account a splice and re-adopt the fragment's record: its
        prechecks re-enter the new graph's list, and its deps flow into
        any outer recorders still being built."""
        self.fragments_reused += 1
        self._record_fragment_health(key, reused=True)
        self.fragments.touch(key, frag)
        self.prechecks.extend(frag.precheck_entries)
        for rec in self._frag_stack:
            rec.deps.extend(frag.deps)
            rec.dep_sites.update(frag.dep_sites)
            rec.keepalive.extend(frag.keepalive)

    def _record_fragment_health(self, key, reused):
        """Attribute a splice accept/reject to its profiler site so the
        per-site fragment-reuse ratio shows up in janus-stats."""
        if METRICS.enabled:
            owner = getattr(self.profiler, "owner", None)
            if owner is not None and key[1] is not None:
                HEALTH.function(owner).record_fragment(key[1], reused)

    # Profiler queries route through these wrappers so active fragment
    # recorders capture exactly which profiled facts a region's
    # conversion consumed — re-queried and digest-compared at splice time.

    def prof_branch_direction(self, site):
        direction = self.profiler.branch_direction(site)
        if self._frag_stack:
            prof = self.profiler
            self._dep(("branch", site),
                      lambda s=site: prof.branch_direction(s),
                      direction, site=site)
        return direction

    def prof_trip_count(self, site):
        trip = self.profiler.trip_count(site)
        if self._frag_stack:
            prof = self.profiler
            self._dep(("trip", site), lambda s=site: prof.trip_count(s),
                      trip, site=site)
        return trip

    def prof_callee(self, site):
        callee = self.profiler.callee(site)
        if self._frag_stack:
            prof = self.profiler
            keep = []
            digest = frag_mod.value_digest(callee, keep)
            self._dep(("callee", site),
                      lambda s=site: frag_mod.value_digest(prof.callee(s)),
                      digest, site=site, keep=keep)
        return callee

    def prof_attr_spec(self, site, owner=None):
        sp = self.profiler.attr_spec(site, owner=owner)
        if self._frag_stack:
            prof = self.profiler
            keep = [x for x in (sp, owner) if x is not None]
            self._dep(("attr_spec", site),
                      lambda s=site, o=owner:
                          spec.spec_digest(prof.attr_spec(s, owner=o)),
                      spec.spec_digest(sp), site=site, keep=keep)
        return sp

    def prof_subscr_spec(self, site):
        sp = self.profiler.subscr_spec(site)
        if self._frag_stack:
            prof = self.profiler
            self._dep(("subscr_spec", site),
                      lambda s=site:
                          spec.spec_digest(prof.subscr_spec(s)),
                      spec.spec_digest(sp), site=site,
                      keep=[sp] if sp is not None else None)
        return sp

    def prof_return_spec(self, target):
        sp = self.profiler.return_spec(target)
        if self._frag_stack:
            prof = self.profiler
            self._dep(("return_spec", function_key(target)),
                      lambda t=target:
                          spec.spec_digest(prof.return_spec(t)),
                      spec.spec_digest(sp),
                      keep=[sp] if sp is not None else None)
        return sp

    # -- recursive functions as GraphFunctions ---------------------------------------

    def get_graph_function(self, callee, arg_values):
        key = function_key(callee)
        gf = self.graph_functions.get(key)
        if gf is not None:
            return gf
        target = getattr(callee, "__func__", callee)
        gf = GraphFunction(target.__name__)
        # Determine signature and output specs *before* building the body
        # so recursive self-invocations can reference them.
        const_mask, graph_args = [], []
        for value in arg_values:
            if isinstance(value, (NodeOutput, StackedList, SymSeq)):
                const_mask.append(False)
            else:
                const_mask.append(True)
        ret_spec = self.prof_return_spec(target)
        if ret_spec is None or ret_spec.kind == spec.BOTTOM:
            raise NotConvertible(
                "recursive function %s has no stable return spec"
                % target.__name__, feature="recursion")
        out_specs, out_structure = self._specs_from_value_spec(ret_spec)
        gf.janus_meta = {
            "const_mask": const_mask,
            "const_values": [v if m else None
                             for v, m in zip(arg_values, const_mask)],
            "out_specs": out_specs,
            "out_structure": out_structure,
        }
        self.graph_functions[key] = gf

        fdef = get_function_ast(target)
        check_convertible(fdef)
        names = [a.arg for a in fdef.args.args]
        sub = GraphBuilder(name=target.__name__)
        with sub:
            env = {}
            for name, value, is_const in zip(names, arg_values, const_mask):
                if is_const:
                    env[name] = value
                else:
                    flat = []
                    structure = flatten_value(value, flat)
                    phs = [sub.placeholder("%s_%d" % (name, k),
                                           shape=f.shape, dtype=f.dtype)
                           for k, f in enumerate(flat)]
                    env[name] = rebuild_value(structure, iter(phs))
            converter = _FunctionConverter(self, target, env, builder=sub)
            try:
                converter.convert_block(fdef.body)
                result = Const(None)
            except _ReturnValue as ret:
                result = ret.value
            flat = []
            structure = flatten_value(result, flat)
            if not structures_compatible(structure, out_structure):
                raise NotConvertible(
                    "recursive function %s returns inconsistent structure"
                    % target.__name__, feature="recursion")
            sub.mark_outputs(flat)
        gf.finalize(sub.graph)
        return gf

    def _specs_from_value_spec(self, sp, _flat=None):
        """(out_specs, structure) for a profiled return-value spec."""
        if _flat is None:
            _flat = []
        if sp.is_tensor_like:
            _flat.append((sp.shape, sp.dtype))
            return _flat, ("edge",)
        if sp.kind == spec.PYOBJ:
            _flat.append((Shape.scalar(), None))
            return _flat, ("edge",)
        if sp.kind == spec.NONE:
            return _flat, ("const", None)
        if sp.kind == spec.LIST:
            parts = []
            for esp in sp.elements:
                _, sub_structure = self._specs_from_value_spec(esp, _flat)
                parts.append(sub_structure)
            return _flat, ("seq", sp.is_tuple, tuple(parts))
        raise NotConvertible("return spec %r not convertible" % (sp,),
                             feature="recursion")


# ---------------------------------------------------------------------------
# the statement / expression walker
# ---------------------------------------------------------------------------

class _FunctionConverter:
    """Converts one (possibly inlined) function body into graph nodes."""

    def __init__(self, gen, func, env, builder=None):
        self.gen = gen
        self.func = func                       # for globals/closure lookup
        self.env = env
        self.builder = builder if builder is not None else gen.builder
        self.fkey = function_key(func)

    # -- name resolution -----------------------------------------------------

    def lookup(self, name):
        if name in self.env:
            return self.env[name]
        target = getattr(self.func, "__func__", self.func)
        freevars = target.__code__.co_freevars
        if name in freevars and target.__closure__:
            cell = target.__closure__[freevars.index(name)]
            self._record_external_dep(("closure", name), cell=cell)
            return self._classify_external(cell.cell_contents, name)
        if name in target.__globals__:
            self._record_external_dep(("global", name),
                                      globals_dict=target.__globals__,
                                      global_name=name)
            return self._classify_external(target.__globals__[name], name)
        import builtins as _bi
        if hasattr(_bi, name):
            return Const(getattr(_bi, name))
        raise NotConvertible("unresolved name %r" % name, feature="name")

    def _record_external_dep(self, label, cell=None, globals_dict=None,
                             global_name=None):
        """Fragment dep on a closure cell / global burned in at build."""
        gen = self.gen
        if not gen._frag_stack:
            return
        keep = []
        if cell is not None:
            fetch = lambda c=cell: frag_mod.value_digest(c.cell_contents)
            digest = frag_mod.value_digest(cell.cell_contents, keep)
            keep.append(cell)
        else:
            fetch = lambda g=globals_dict, n=global_name: \
                frag_mod.value_digest(g.get(n, _MISSING))
            digest = frag_mod.value_digest(
                globals_dict.get(global_name, _MISSING), keep)
        gen._dep(label, fetch, digest, keep=keep)

    def _record_attr_dep(self, obj, name):
        """Fragment dep on an object attribute read at build time.

        Tensor-valued attributes digest as ``("dyn",)`` on both sides
        (they are read through guarded heap-read nodes, not burned), so
        recording unconditionally is safe.
        """
        gen = self.gen
        if not gen._frag_stack:
            return
        keep = [obj]
        digest = frag_mod.attr_digest(obj, name, keep)
        gen._dep(("attrval", name),
                 lambda o=obj, n=name: frag_mod.attr_digest(o, n),
                 digest, keep=keep)

    def _classify_external(self, value, name):
        """Globals/closure values become build-time constants.

        Mutable data globals additionally get a precheck so a changed
        global invalidates the cached graph (type assumption on context).
        """
        if isinstance(value, (types.ModuleType, types.FunctionType, type)) \
                or callable(value) or isinstance(value, Variable):
            return Const(value)
        if isinstance(value, (bool, int, float, str)) or value is None:
            target = getattr(self.func, "__func__", self.func)
            self.gen._add_precheck(
                "global %r value" % name,
                spec.GlobalEquals(target, name, value))
            return Const(value)
        return Const(value)

    # -- statements -------------------------------------------------------------

    def convert_block(self, stmts):
        for index, stmt in enumerate(stmts):
            # Annotate conversion failures with the statement they died
            # in (innermost statement wins — an already-set lineno is
            # kept).  The co-execution planner maps the lineno back to a
            # top-level statement to split the function there.
            try:
                if isinstance(stmt, ast.If):
                    handled = self._convert_if(stmt, stmts[index + 1:])
                    if handled == "consumed-rest":
                        return
                    continue
                self.convert_statement(stmt)
            except NotConvertible as exc:
                if exc.lineno is None:
                    exc.lineno = getattr(stmt, "lineno", None)
                raise

    def convert_statement(self, stmt):
        if isinstance(stmt, ast.Expr):
            self.convert_expr(stmt.value)
        elif isinstance(stmt, ast.Assign):
            value = self.convert_expr(stmt.value)
            if len(stmt.targets) != 1:
                for target in stmt.targets:
                    self._bind_target(target, value)
            else:
                self._bind_target(stmt.targets[0], value)
        elif isinstance(stmt, ast.AugAssign):
            load = ast.copy_location(
                ast.Name(id="<aug>", ctx=ast.Load()), stmt)
            current = self._load_target(stmt.target)
            value = self._binop_values(type(stmt.op), current,
                                       self.convert_expr(stmt.value))
            self._bind_target(stmt.target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(stmt.target, self.convert_expr(stmt.value))
        elif isinstance(stmt, ast.Return):
            value = self.convert_expr(stmt.value) \
                if stmt.value is not None else Const(None)
            raise _ReturnValue(value)
        elif isinstance(stmt, ast.While):
            self._convert_while(stmt)
        elif isinstance(stmt, ast.For):
            self._convert_for(stmt)
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, ast.Assert):
            self._convert_assert(stmt)
        elif isinstance(stmt, ast.FunctionDef):
            self.env[stmt.name] = SymFunc(stmt, dict(self.env), self.func,
                                          stmt.name)
        elif isinstance(stmt, ast.Raise):
            raise NotConvertible("reachable raise statement (the raising "
                                 "path runs imperatively)", feature="raise")
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.With):
            self._convert_with(stmt)
        elif isinstance(stmt, ast.Try):
            if stmt.handlers:
                raise NotConvertible("except handlers are imperative-only",
                                     feature="exception-handler")
            self.convert_block(stmt.body)
            self.convert_block(stmt.finalbody)
        elif isinstance(stmt, ast.Global):
            raise NotConvertible("global-write declarations are "
                                 "imperative-only", feature="global")
        else:
            raise NotConvertible("statement %s is not convertible"
                                 % type(stmt).__name__, feature="statement")

    def _convert_with(self, stmt):
        """Appendix A: ``with`` lowers to __enter__/__exit__ calls."""
        for item in stmt.items:
            manager = self.convert_expr(item.context_expr)
            entered = self._convert_method_call(
                manager, "__enter__", [], {},
                self._site(item.context_expr, "call"), stmt)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, entered)
        self.convert_block(stmt.body)
        none = Const(None)
        for item in reversed(stmt.items):
            manager = self.convert_expr(item.context_expr)
            self._convert_method_call(
                manager, "__exit__", [none, none, none], {},
                self._site(item.context_expr, "call"), stmt)

    def _convert_assert(self, stmt):
        test = self.convert_expr(stmt.test)
        if isinstance(test, Const):
            if not test.value:
                raise NotConvertible("assert statically false",
                                     feature="assert")
            return
        api.assert_that(self._tensorize(test),
                        message="user assert at line %d" % stmt.lineno)

    # -- assignment targets --------------------------------------------------------

    def _bind_target(self, target, value):
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = self._unpack(value, len(target.elts))
            for t, v in zip(target.elts, items):
                self._bind_target(t, v)
        elif isinstance(target, ast.Attribute):
            owner = self.convert_expr(target.value)
            self._store_attr(owner, target.attr, value)
        elif isinstance(target, ast.Subscript):
            owner = self.convert_expr(target.value)
            self._store_subscr(owner, target.slice, value)
        else:
            raise NotConvertible("assignment target %s"
                                 % type(target).__name__, feature="target")

    def _load_target(self, target):
        expr = ast.copy_location(_set_load(target), target)
        return self.convert_expr(expr)

    def _unpack(self, value, count):
        if isinstance(value, SymSeq):
            if len(value.elements) != count:
                raise NotConvertible("unpacking arity mismatch",
                                     feature="unpack")
            return value.elements
        if isinstance(value, Const) and isinstance(value.value,
                                                   (list, tuple)):
            if len(value.value) != count:
                raise NotConvertible("unpacking arity mismatch",
                                     feature="unpack")
            return [self._wrap_external(v) for v in value.value]
        if isinstance(value, NodeOutput) and value.dtype is not None:
            dim = value.shape[0] if value.shape.dims else None
            if dim != count:
                raise NotConvertible("cannot unpack tensor with dynamic "
                                     "leading dim", feature="unpack")
            return [api.getitem(value, k) for k in range(count)]
        raise NotConvertible("cannot unpack %r" % (value,),
                             feature="unpack")

    def _store_attr(self, owner, name, value):
        graph_value = self._heap_value(value)
        if isinstance(owner, Const):
            from ..janus.coverage import has_custom_accessors
            if has_custom_accessors(owner.value):
                raise NotConvertible("object with custom accessors",
                                     feature="custom-setattr")
            if not self.gen.config.deferred_state_update:
                self._naive_set_attr(owner.value, name, graph_value)
                return
            self.builder.py_set_attr(PyRef(owner.value), name, graph_value)
        elif isinstance(owner, NodeOutput) and owner.dtype is None:
            self.builder.py_set_attr(owner, name, graph_value)
        else:
            raise NotConvertible("attribute store on %r" % (owner,),
                                 feature="setattr")

    def _naive_set_attr(self, obj, name, graph_value):
        """The rejected design of section 4.2.3: mutate in place via a
        PyFunc-style operation (ablation only — breaks all-or-nothing)."""
        def mutate(value, _obj=obj, _name=name):
            setattr(_obj, _name, value)
            return True

        out = self.builder.py_call(mutate, [graph_value],
                                   name="naive_setattr_%s" % name)
        # Subsequent reads must observe the write: order them after it.
        self.builder._hazard_dep(obj, name, out.node, is_write=True)

    def _store_subscr(self, owner, slice_node, value):
        key = self._const_key(slice_node)
        graph_value = self._heap_value(value)
        if isinstance(owner, Const):
            self.builder.py_set_subscr(PyRef(owner.value), key, graph_value)
        elif isinstance(owner, NodeOutput) and owner.dtype is None:
            self.builder.py_set_subscr(owner, key, graph_value)
        elif isinstance(owner, SymSeq):
            if not isinstance(key, int):
                raise NotConvertible("non-constant list index store",
                                     feature="setitem")
            self.gen._poison_fragments()
            owner.elements[key] = value
        elif isinstance(owner, SymDict):
            self.gen._poison_fragments()
            owner.entries[key] = value
        else:
            raise NotConvertible("subscript store on %r" % (owner,),
                                 feature="setitem")

    def _heap_value(self, value):
        """Lower a symbolic value to a single graph edge for heap writes."""
        if isinstance(value, NodeOutput):
            return value
        if isinstance(value, StackedList):
            return value.tensor
        if isinstance(value, Const):
            return self.builder.convert(self._externalizable(value.value))
        if isinstance(value, SymSeq):
            elems = [self._tensorize(e) for e in value.elements]
            return api.stack(elems) if elems else \
                self.builder.convert(np.zeros((0,), np.float32))
        raise NotConvertible("cannot store %r on the heap" % (value,),
                             feature="heap-store")

    @staticmethod
    def _externalizable(value):
        if isinstance(value, (bool, int, float, np.ndarray, TensorValue,
                              Tensor)):
            return value
        return PyRef(value)

    def _const_key(self, slice_node):
        key = self.convert_expr(slice_node)
        if isinstance(key, Const):
            return key.value
        raise NotConvertible("dynamic heap subscript key",
                             feature="subscript")

    # -- expressions ------------------------------------------------------------------

    def convert_expr(self, node):
        method = getattr(self, "_expr_" + type(node).__name__, None)
        if method is None:
            raise NotConvertible("expression %s is not convertible"
                                 % type(node).__name__, feature="expression")
        return method(node)

    def _expr_Constant(self, node):
        return Const(node.value)

    def _expr_Slice(self, node):
        def part(p):
            if p is None:
                return None
            value = self.convert_expr(p)
            if not isinstance(value, Const):
                raise NotConvertible("dynamic slice bound",
                                     feature="slice")
            return value.value
        return Const(slice(part(node.lower), part(node.upper),
                           part(node.step)))

    def _expr_Name(self, node):
        return self.lookup(node.id)

    def _expr_Tuple(self, node):
        return SymSeq([self.convert_expr(e) for e in node.elts],
                      is_tuple=True)

    def _expr_List(self, node):
        return SymSeq([self.convert_expr(e) for e in node.elts])

    def _expr_Dict(self, node):
        entries = {}
        for k, v in zip(node.keys, node.values):
            key = self.convert_expr(k)
            if not isinstance(key, Const):
                raise NotConvertible("dynamic dict key", feature="dict")
            entries[key.value] = self.convert_expr(v)
        return SymDict(entries)

    def _expr_Lambda(self, node):
        fdef = ast.FunctionDef(name="<lambda>", args=node.args,
                               body=[ast.Return(value=node.body)],
                               decorator_list=[], returns=None)
        ast.copy_location(fdef, node)
        ast.fix_missing_locations(fdef)
        return SymFunc(fdef, dict(self.env), self.func, "<lambda>")

    def _expr_UnaryOp(self, node):
        operand = self.convert_expr(node.operand)
        if isinstance(node.op, ast.USub):
            if isinstance(operand, Const):
                return Const(-operand.value)
            return api.neg(self._tensorize(operand))
        if isinstance(node.op, ast.UAdd):
            return operand
        if isinstance(node.op, ast.Not):
            if isinstance(operand, Const):
                return Const(not operand.value)
            return api.logical_not(self._tensorize(operand))
        if isinstance(node.op, ast.Invert):
            if isinstance(operand, Const):
                return Const(~operand.value)
        raise NotConvertible("unary op %s" % type(node.op).__name__,
                             feature="unary")

    def _expr_BinOp(self, node):
        left = self.convert_expr(node.left)
        right = self.convert_expr(node.right)
        return self._binop_values(type(node.op), left, right)

    def _binop_values(self, op_type, left, right):
        # Build-time folding for constant operands.
        if isinstance(left, Const) and isinstance(right, Const) and \
                op_type in _PY_BINOP and \
                not isinstance(left.value, (np.ndarray, Tensor)) and \
                not isinstance(right.value, (np.ndarray, Tensor)):
            return Const(_PY_BINOP[op_type](left.value, right.value))
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
                extra = [api.expand_dims(self._tensorize(e), 0)
                         for e in right.elements]
                return StackedList(api.concat([left.tensor] + extra, 0))
        if op_type not in _BINOP_API:
            raise NotConvertible("binary op %s" % op_type.__name__,
                                 feature="binop")
        fn = getattr(api, _BINOP_API[op_type])
        return fn(self._tensorize(left), self._tensorize(right))

    def _expr_BoolOp(self, node):
        values = [self.convert_expr(v) for v in node.values]
        if all(isinstance(v, Const) for v in values):
            if isinstance(node.op, ast.And):
                result = values[0].value
                for v in values[1:]:
                    result = result and v.value
            else:
                result = values[0].value
                for v in values[1:]:
                    result = result or v.value
            return Const(result)
        fn = api.logical_and if isinstance(node.op, ast.And) \
            else api.logical_or
        result = self._tensorize(values[0])
        for v in values[1:]:
            result = fn(result, self._tensorize(v))
        return result

    def _expr_Compare(self, node):
        left = self.convert_expr(node.left)
        result = None
        for op, comparator in zip(node.ops, node.comparators):
            right = self.convert_expr(comparator)
            piece = self._compare_values(type(op), left, right)
            result = piece if result is None else \
                self._and_values(result, piece)
            left = right
        return result

    def _and_values(self, a, b):
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value and b.value)
        return api.logical_and(self._tensorize(a), self._tensorize(b))

    def _compare_values(self, op_type, left, right):
        if isinstance(left, Const) and isinstance(right, Const) and \
                not isinstance(left.value, (np.ndarray, Tensor)) and \
                not isinstance(right.value, (np.ndarray, Tensor)):
            return Const(_PY_CMP[op_type](left.value, right.value))
        if op_type in (ast.Is, ast.IsNot):
            if isinstance(left, Const) and left.value is None or \
                    isinstance(right, Const) and right.value is None:
                other = right if isinstance(left, Const) else left
                is_none = isinstance(other, Const) and other.value is None
                return Const(is_none if op_type is ast.Is else not is_none)
            raise NotConvertible("is-comparison on dynamic values",
                                 feature="compare")
        if op_type not in _CMP_API:
            raise NotConvertible("comparison %s" % op_type.__name__,
                                 feature="compare")
        fn = getattr(api, _CMP_API[op_type])
        return fn(self._tensorize(left), self._tensorize(right))

    def _expr_IfExp(self, node):
        test = self.convert_expr(node.test)
        if isinstance(test, Const):
            return self.convert_expr(node.body if test.value
                                     else node.orelse)
        site = self._site(node, "ifexp")
        direction = self.gen.prof_branch_direction(site)
        pred = self._tensorize(test)
        if self.gen.config.unroll_stable_control_flow and \
                direction is not None:
            self._assert_direction(pred, direction, site)
            return self.convert_expr(node.body if direction
                                     else node.orelse)
        # Both sides evaluate (documented TF-style semantics).
        t = self._tensorize(self.convert_expr(node.body))
        f = self._tensorize(self.convert_expr(node.orelse))
        return api.where(pred, t, f)

    def _expr_Attribute(self, node):
        owner = self.convert_expr(node.value)
        return self._load_attr(owner, node.attr, self._site(node, "attr"))

    def _expr_Subscript(self, node):
        owner = self.convert_expr(node.value)
        return self._load_subscr(owner, node.slice,
                                 self._site(node, "subscr"))

    def _expr_Call(self, node):
        return self._convert_call(node)

    def _expr_Starred(self, node):
        raise NotConvertible("starred expression", feature="starred-call")

    def _expr_JoinedStr(self, node):
        parts = []
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                parts.append(piece.value)
            elif isinstance(piece, ast.FormattedValue):
                value = self.convert_expr(piece.value)
                if not isinstance(value, Const):
                    raise NotConvertible("f-string over dynamic value",
                                         feature="fstring")
                parts.append(format(value.value))
        return Const("".join(parts))

    def _expr_ListComp(self, node):
        if len(node.generators) != 1 or node.generators[0].is_async:
            raise NotConvertible("complex comprehension",
                                 feature="comprehension")
        gen = node.generators[0]
        iterable = self.convert_expr(gen.iter)
        items = self._try_static_items(iterable, None)
        if items is None:
            raise NotConvertible("dynamic comprehension iterable",
                                 feature="comprehension")
        out = []
        saved = dict(self.env)
        for item in items:
            self._bind_target(gen.target, item)
            keep = True
            for cond in gen.ifs:
                c = self.convert_expr(cond)
                if not isinstance(c, Const):
                    raise NotConvertible("dynamic comprehension filter",
                                         feature="comprehension")
                keep = keep and bool(c.value)
            if keep:
                out.append(self.convert_expr(node.elt))
        self.env = saved
        return SymSeq(out)

    # -- helper: values as tensors -----------------------------------------------------

    def _tensorize(self, value):
        if isinstance(value, NodeOutput):
            return value
        if isinstance(value, StackedList):
            return value.tensor
        if isinstance(value, Const):
            v = value.value
            if isinstance(v, Variable):
                return self.builder.read_variable(v)
            if isinstance(v, (bool, int, float, np.ndarray, np.generic)):
                return self.builder.convert(v)
            if isinstance(v, Tensor):
                return self.builder.convert(v)
            if isinstance(v, (list, tuple)):
                try:
                    return self.builder.convert(np.asarray(v))
                except (ValueError, TypeError):
                    pass
            raise NotConvertible("value %r has no tensor form" % (v,),
                                 feature="tensorize")
        if isinstance(value, SymSeq):
            return api.stack([self._tensorize(e) for e in value.elements])
        raise NotConvertible("value %r has no tensor form" % (value,),
                             feature="tensorize")

    def _wrap_external(self, value):
        """Wrap a raw Python value produced by constant folding."""
        if isinstance(value, (list, tuple)):
            return SymSeq([self._wrap_external(v) for v in value],
                          is_tuple=isinstance(value, tuple))
        return Const(value)

    def _site(self, node, kind):
        return (self.fkey, getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0), kind)

    def _assert_direction(self, pred, direction, site):
        check = pred if direction else api.logical_not(pred)
        out = api.assert_that(check,
                              message="stable-branch assumption at %s:%d"
                              % (site[0], site[1]),
                              site=("branch", site))
        return out

    # -- attribute / subscript loads ---------------------------------------------------

    def _load_attr(self, owner, name, site):
        if isinstance(owner, Const):
            return self._load_const_attr(owner.value, name, site)
        if isinstance(owner, NodeOutput):
            if owner.dtype is None:
                return self._load_heap_attr(owner, name, site)
            return self._load_tensor_attr(owner, name)
        if isinstance(owner, (SymSeq, StackedList, SymDict)):
            return _BoundSymMethod(owner, name)
        raise NotConvertible("attribute %r on %r" % (name, owner),
                             feature="attribute")

    #: Immutable framework/builtin types whose attributes and methods are
    #: safe to evaluate at graph-build time.
    _CONST_EVAL_TYPES = (Shape, dtypes.DType, tuple, str, range, bytes,
                         frozenset, bool, int, float, complex)

    def _load_const_attr(self, obj, name, site):
        if isinstance(obj, self._CONST_EVAL_TYPES):
            return self._wrap_external(getattr(obj, name))
        from .coverage import has_custom_accessors
        if has_custom_accessors(obj) and not isinstance(
                obj, (types.ModuleType, type)):
            raise NotConvertible("object with custom accessors",
                                 feature="custom-setattr")
        try:
            value = getattr(obj, name)
        except AttributeError:
            # The attribute is created later by a heap write in this same
            # graph; fall back to a dynamic heap read.
            return self._load_heap_attr(PyRef(obj), name, site)
        self._record_attr_dep(obj, name)
        if isinstance(value, Variable):
            return Const(value)
        if callable(value) or isinstance(value, (types.ModuleType, type)):
            return Const(value)
        if isinstance(value, (bool, int, float)):
            # Scalar hyperparameters that held one value throughout
            # profiling become build-time constants guarded by a runtime
            # value check (paper 4.2.2: stable expressions fold to
            # constants); an unstable scalar stays a dynamic heap read.
            profiled = self.gen.prof_attr_spec(site, owner=obj)
            if profiled is not None and \
                    profiled.kind == spec.CONST_TENSOR:
                guard = self.builder.py_get_attr(
                    PyRef(obj), name,
                    expected=("const", profiled.dtype, profiled.value))
                guard.node.attrs["prof_site"] = ("attr", site)
                return Const(value)
            expected = spec.expected_attr_spec(profiled)
            out = self.builder.py_get_attr(PyRef(obj), name,
                                           expected=expected)
            out.node.attrs["prof_site"] = ("attr", site)
            return out
        if isinstance(value, (Tensor, np.ndarray, np.generic)):
            # Numeric instance state is mutable: read through the heap
            # with the profiled spec as a runtime assumption.
            profiled = self.gen.prof_attr_spec(site, owner=obj)
            expected = spec.expected_attr_spec(
                profiled if profiled is not None and
                self.gen.config.specialize_types else
                spec.relax_constants(profiled) if profiled else None)
            out = self.builder.py_get_attr(PyRef(obj), name,
                                           expected=expected)
            out.node.attrs["prof_site"] = ("attr", site)
            return out
        if isinstance(value, (list, tuple)):
            if all(callable(v) or isinstance(v, (Variable, str, type))
                   for v in value):
                return Const(value)
            if all(isinstance(v, (bool, int, float)) for v in value):
                return Const(value)
            if all(isinstance(v, (Tensor, np.ndarray)) for v in value):
                out = self.builder.py_get_attr(PyRef(obj), name)
                out.node.attrs["prof_site"] = ("attr", site)
                return out
            return Const(value)
        if isinstance(value, dict) or value is None or \
                isinstance(value, str):
            return Const(value)
        # Arbitrary object state (e.g. optimizer, sub-module): build-time.
        return Const(value)

    def _load_heap_attr(self, owner_edge, name, site):
        profiled = self.gen.prof_attr_spec(site)
        expected = spec.expected_attr_spec(_type_only(profiled)
                                           if profiled else None)
        out = self.builder.py_get_attr(owner_edge, name, expected=expected)
        out.node.attrs["prof_site"] = ("attr", site)
        return out

    def _load_tensor_attr(self, tensor, name):
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

    def _load_subscr(self, owner, slice_node, site):
        index = self.convert_expr(slice_node) \
            if not isinstance(slice_node, ast.Tuple) else \
            SymSeq([self.convert_expr(e) for e in slice_node.elts],
                   is_tuple=True)
        if isinstance(owner, NodeOutput) and owner.dtype is not None:
            return self._tensor_getitem(owner, index, slice_node)
        if isinstance(owner, StackedList):
            return self._tensor_getitem(owner.tensor, index, slice_node)
        if isinstance(owner, SymSeq):
            if isinstance(index, Const):
                if isinstance(index.value, slice):
                    return SymSeq(owner.elements[index.value],
                                  is_tuple=owner.is_tuple)
                return owner.elements[index.value]
            # Dynamic index into a static list of tensors: stack + gather.
            stacked = api.stack([self._tensorize(e)
                                 for e in owner.elements])
            return api.gather(stacked, self._tensorize(index))
        if isinstance(owner, SymDict):
            if isinstance(index, Const):
                return owner.entries[index.value]
            raise NotConvertible("dynamic dict lookup", feature="dict")
        if isinstance(owner, Const):
            container = owner.value
            if isinstance(index, Const):
                if isinstance(container,
                              (list, tuple, dict, str, range, Shape)):
                    return self._wrap_external(container[index.value])
                if isinstance(container, (np.ndarray, Tensor)):
                    return self._tensor_getitem(self._tensorize(owner),
                                                index, slice_node)
            if isinstance(container, (np.ndarray, Tensor)):
                return self._tensor_getitem(self._tensorize(owner), index,
                                            slice_node)
            if isinstance(container, (list, tuple, dict)):
                profiled = self.gen.prof_subscr_spec(site)
                expected = spec.expected_attr_spec(
                    profiled if self.gen.config.specialize_types else
                    _type_only(profiled))
                key = index.value if isinstance(index, Const) else None
                if key is None:
                    raise NotConvertible("dynamic heap subscript",
                                         feature="subscript")
                out = self.builder.py_get_subscr(PyRef(container), key,
                                                 expected=expected)
                out.node.attrs["prof_site"] = ("subscr", site)
                return out
        if isinstance(owner, NodeOutput) and owner.dtype is None:
            if isinstance(index, Const):
                profiled = self.gen.prof_subscr_spec(site)
                expected = spec.expected_attr_spec(
                    profiled if self.gen.config.specialize_types else
                    _type_only(profiled))
                out = self.builder.py_get_subscr(owner, index.value,
                                                 expected=expected)
                out.node.attrs["prof_site"] = ("subscr", site)
                return out
        raise NotConvertible("subscript on %r" % (owner,),
                             feature="subscript")

    def _tensor_getitem(self, tensor, index, slice_node):
        static = self._static_index(index)
        if static is not _MISSING:
            return api.getitem(tensor, static)
        # Tensor-valued index: gather along axis 0.
        return api.gather(tensor, self._tensorize(index))

    def _static_index(self, index):
        if isinstance(index, Const):
            return index.value
        if isinstance(index, SymSeq):
            parts = []
            for e in index.elements:
                p = self._static_index(e)
                if p is _MISSING:
                    return _MISSING
                parts.append(p)
            return tuple(parts)
        return _MISSING

    # -- calls ----------------------------------------------------------------------------

    def _convert_call(self, node):
        site = self._site(node, "call")
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                raise NotConvertible("**kwargs call", feature="starred-call")
            kwargs[kw.arg] = self.convert_expr(kw.value)
        args = [self.convert_expr(a) for a in node.args]

        # Method-style call: resolve without materializing a py_get node.
        if isinstance(node.func, ast.Attribute):
            owner = self.convert_expr(node.func.value)
            return self._convert_method_call(owner, node.func.attr, args,
                                             kwargs, site, node)
        func_sym = self.convert_expr(node.func)
        return self._dispatch_call(func_sym, args, kwargs, site, node)

    def _convert_method_call(self, owner, name, args, kwargs, site, node):
        if isinstance(owner, (SymSeq, SymDict, StackedList)):
            return self._sym_container_method(owner, name, args, kwargs)
        if isinstance(owner, Const):
            obj = owner.value
            if isinstance(obj, Variable):
                return self._variable_method(obj, name, args, kwargs)
            if isinstance(obj, self._CONST_EVAL_TYPES) and \
                    all(isinstance(a, Const) for a in args) and \
                    all(isinstance(v, Const) for v in kwargs.values()):
                result = getattr(obj, name)(
                    *[a.value for a in args],
                    **{k: v.value for k, v in kwargs.items()})
                return self._wrap_external(result)
            try:
                bound = getattr(obj, name)
            except AttributeError:
                raise NotConvertible("method %r missing on %r"
                                     % (name, obj), feature="method")
            return self._dispatch_call(Const(bound), args, kwargs, site,
                                       node, self_value=owner)
        if isinstance(owner, NodeOutput) and owner.dtype is None:
            # Dynamic receiver: callee identity comes from the profile.
            callee = self.gen.prof_callee(site)
            if callee is None:
                raise NotConvertible("unstable method %r on dynamic object"
                                     % name, feature="method")
            return self._call_user_function(callee, [owner] + args, kwargs,
                                            bound_self=True)
        if isinstance(owner, NodeOutput):
            return self._tensor_method(owner, name, args, kwargs)
        raise NotConvertible("method call %r on %r" % (name, owner),
                             feature="method")

    def _variable_method(self, variable, name, args, kwargs):
        if name == "assign":
            return self.builder.assign_variable(
                variable, self._tensorize(args[0]))
        if name == "assign_add":
            current = self.builder.read_variable(variable)
            return self.builder.assign_variable(
                variable, api.add(current, self._tensorize(args[0])))
        if name == "assign_sub":
            current = self.builder.read_variable(variable)
            return self.builder.assign_variable(
                variable, api.sub(current, self._tensorize(args[0])))
        if name == "value":
            return self.builder.read_variable(variable)
        if name == "numpy":
            raise NotConvertible("Variable.numpy() forces materialization",
                                 feature="numpy")
        raise NotConvertible("Variable method %r" % name, feature="method")

    def _tensor_method(self, tensor, name, args, kwargs):
        if name == "numpy" or name == "item":
            raise NotConvertible("tensor materialization (%s) inside a "
                                 "graph" % name, feature="numpy")
        raise NotConvertible("tensor method %r" % name, feature="method")

    def _sym_container_method(self, owner, name, args, kwargs):
        if isinstance(owner, SymSeq):
            # Build-time mutation of a container that may be shared with
            # the enclosing environment: splicing a cached fragment would
            # skip the mutation, so active fragments become uncacheable.
            if name == "append":
                self.gen._poison_fragments()
                owner.elements.append(args[0])
                return Const(None)
            if name == "extend":
                other = args[0]
                if isinstance(other, SymSeq):
                    self.gen._poison_fragments()
                    owner.elements.extend(other.elements)
                    return Const(None)
            if name == "pop":
                self.gen._poison_fragments()
                idx = args[0].value if args else -1
                return owner.elements.pop(idx)
            if name == "insert":
                self.gen._poison_fragments()
                owner.elements.insert(args[0].value, args[1])
                return Const(None)
        if isinstance(owner, StackedList) and name == "append":
            self.gen._poison_fragments()
            elem = api.expand_dims(self._tensorize(args[0]), 0)
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

    def _dispatch_call(self, func_sym, args, kwargs, site, node,
                       self_value=None):
        if isinstance(func_sym, SymFunc):
            return self._inline_symfunc(func_sym, args, kwargs)
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
            return self._structural_builtin(
                STRUCTURAL_BUILTINS[target], args, kwargs)
        if target in MATH_CONST_FUNCS:
            cargs = [a.value for a in args if isinstance(a, Const)]
            if len(cargs) == len(args):
                return Const(target(*cargs))
            tensor_map = {"sqrt": api.sqrt, "exp": api.exp, "log": api.log}
            name = target.__name__
            if name in tensor_map and len(args) == 1:
                return tensor_map[name](self._tensorize(args[0]))
            raise NotConvertible("math.%s on dynamic value" % name,
                                 feature="math")
        handler = handler_for(target)
        if handler is not None:
            return self._call_whitelisted(handler, callee, args, kwargs)
        if is_whitelisted(target):
            raise NotConvertible("whitelisted %r has no graph handler"
                                 % (target,), feature="whitelist")
        if isinstance(target, types.FunctionType):
            call_args = list(args)
            if hasattr(callee, "__self__"):
                self_obj = callee.__self__
                call_args = [Const(self_obj)] + call_args
            return self._call_user_function(target, call_args, kwargs,
                                            bound_self=hasattr(
                                                callee, "__self__"))
        if isinstance(callee, type):
            raise NotConvertible("constructing %r inside a graph"
                                 % callee.__name__, feature="constructor")
        if callable(callee) and hasattr(type(callee), "__call__") and \
                not isinstance(callee, types.BuiltinFunctionType):
            # Callable object (layer/module): inline its __call__.  The
            # generic Module.__call__ merely forwards to .call, so inline
            # the latter directly (its signature is explicit).
            from ..nn.module import Module
            call_fn = type(callee).__call__
            if isinstance(callee, Module) and \
                    call_fn is Module.__call__:
                call_fn = type(callee).call
            return self._call_user_function(call_fn,
                                            [Const(callee)] + list(args),
                                            kwargs, bound_self=True)
        raise NotConvertible("cannot convert call to %r" % (callee,),
                             feature="call")

    def _call_whitelisted(self, handler, callee, args, kwargs):
        """Emit graph ops for a framework/builtin call (section 4.3.1)."""
        def lower(value):
            if isinstance(value, Const):
                v = value.value
                if isinstance(v, Variable):
                    return self.builder.read_variable(v)
                if isinstance(v, Tensor):
                    return self.builder.convert(v)
                return v
            if isinstance(value, SymSeq):
                return [lower(e) for e in value.elements]
            if isinstance(value, StackedList):
                return value.tensor
            return value

        largs = [lower(a) for a in args]
        lkwargs = {k: lower(v) for k, v in kwargs.items()}
        if handler is getattr(Variable, "assign", None):
            pass
        result = handler(*largs, **lkwargs)
        if isinstance(result, tuple):
            return SymSeq(list(result), is_tuple=True)
        return result

    def _call_user_function(self, target, args, kwargs, bound_self=False):
        key = function_key(target)
        if key in self.gen.recursive_keys:
            return self._call_recursive(target, args, kwargs)
        try:
            fdef = get_function_ast(target)
            check_convertible(fdef)
            env = self._bind_call_args(target, fdef, args, kwargs)
            converter = _FunctionConverter(self.gen, target, env,
                                           builder=self.builder)
            converter.convert_block(fdef.body)
        except _ReturnValue as ret:
            return ret.value
        except NotConvertible as exc:
            # The lineno (if any) is in the callee's coordinates; drop
            # it so the caller's convert_block stamps the call-site
            # statement — the coordinate the co-execution planner needs.
            exc.lineno = None
            raise
        return Const(None)

    def _call_recursive(self, target, args, kwargs):
        if kwargs:
            raise NotConvertible("keyword args on recursive calls",
                                 feature="recursion")
        args = [self._lower_recursive_arg(a) for a in args]
        gf = self.gen.get_graph_function(target, args)
        meta = gf.janus_meta
        graph_args = []
        for value, is_const in zip(args, meta["const_mask"]):
            if is_const:
                continue
            flat = []
            flatten_value(value, flat)
            graph_args.extend(flat)
        outputs = self.builder.invoke(gf, graph_args, meta["out_specs"])
        if not isinstance(outputs, tuple):
            outputs = (outputs,)
        return rebuild_value(meta["out_structure"], iter(outputs))

    def _lower_recursive_arg(self, value):
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
        from ..nn.module import Module
        if isinstance(v, (types.FunctionType, types.MethodType,
                          types.ModuleType, type, Variable, Module,
                          str)) or v is None or callable(v):
            return value
        if isinstance(v, (bool, int, float, np.ndarray, np.generic,
                          Tensor)):
            return self._tensorize(value)
        return self.builder.pyref_constant(PyRef(v))

    def _bind_call_args(self, target, fdef, args, kwargs):
        params = [a.arg for a in fdef.args.args]
        defaults = list(fdef.args.defaults)
        env = {}
        surplus = []
        for i, value in enumerate(args):
            if i >= len(params):
                if fdef.args.vararg is not None:
                    surplus.append(value)
                    continue
                raise NotConvertible("too many arguments to %s"
                                     % target.__name__, feature="call")
            env[params[i]] = value
        if fdef.args.vararg is not None:
            env[fdef.args.vararg.arg] = SymSeq(surplus, is_tuple=True)
        for name, value in kwargs.items():
            if name not in params:
                raise NotConvertible("unknown kwarg %r" % name,
                                     feature="call")
            env[name] = value
        # Defaults from the live function object (evaluated values).
        n_required = len(params) - len(target.__defaults__ or ())
        for i, name in enumerate(params):
            if name in env:
                continue
            if i >= n_required:
                env[name] = self._wrap_external(
                    target.__defaults__[i - n_required])
            else:
                raise NotConvertible("missing argument %r" % name,
                                     feature="call")
        return env

    def _inline_symfunc(self, sym_func, args, kwargs):
        fdef = sym_func.fdef
        params = [a.arg for a in fdef.args.args]
        env = dict(sym_func.env)
        for i, value in enumerate(args):
            env[params[i]] = value
        for name, value in kwargs.items():
            env[name] = value
        defaults = fdef.args.defaults
        for i, name in enumerate(params):
            if name not in env:
                d_index = i - (len(params) - len(defaults))
                if d_index >= 0:
                    env[name] = self.convert_expr(defaults[d_index])
                else:
                    raise NotConvertible("missing argument %r" % name,
                                         feature="call")
        converter = _FunctionConverter(self.gen, sym_func.owner_func, env,
                                       builder=self.builder)
        try:
            converter.convert_block(fdef.body)
        except _ReturnValue as ret:
            return ret.value
        except NotConvertible as exc:
            # Callee coordinates, same as _call_user_function: the
            # call-site statement is the one the planner must split at.
            exc.lineno = None
            raise
        return Const(None)

    # -- structural builtins ------------------------------------------------------------

    def _structural_builtin(self, name, args, kwargs):
        if name == "len":
            return self._builtin_len(args[0])
        if name == "range":
            return self._builtin_range(args)
        if name == "enumerate":
            return _SymEnumerate(args[0],
                                 args[1] if len(args) > 1 else Const(0))
        if name == "zip":
            return _SymZip(args)
        if name in ("float", "int", "bool"):
            if isinstance(args[0], Const):
                cast_fn = {"float": float, "int": int, "bool": bool}[name]
                return Const(cast_fn(args[0].value))
            dtype = {"float": "float32", "int": "int64",
                     "bool": "bool"}[name]
            return api.cast(self._tensorize(args[0]), dtype)
        if name in ("min", "max"):
            fn = api.minimum if name == "min" else api.maximum
            values = args
            if len(args) == 1 and isinstance(args[0], SymSeq):
                values = args[0].elements
            if all(isinstance(v, Const) for v in values):
                pick = min if name == "min" else max
                return Const(pick(v.value for v in values))
            result = self._tensorize(values[0])
            for v in values[1:]:
                result = fn(result, self._tensorize(v))
            return result
        if name == "sum":
            seq = args[0]
            if isinstance(seq, SymSeq):
                if not seq.elements:
                    return Const(0)
                total = seq.elements[0]
                for e in seq.elements[1:]:
                    total = self._binop_values(ast.Add, total, e)
                return total
            if isinstance(seq, StackedList):
                return api.reduce_sum(seq.tensor, axis=0)
            if isinstance(seq, NodeOutput):
                return api.reduce_sum(seq, axis=0)
        if name == "isinstance":
            if isinstance(args[0], Const) and isinstance(args[1], Const):
                return Const(isinstance(args[0].value, args[1].value))
            raise NotConvertible("isinstance on dynamic value",
                                 feature="isinstance")
        if name == "list":
            if not args:
                return SymSeq([])
            seq = args[0]
            if isinstance(seq, SymSeq):
                return SymSeq(list(seq.elements))
            if isinstance(seq, Const) and isinstance(seq.value,
                                                     (list, tuple, range)):
                return SymSeq([self._wrap_external(v) for v in seq.value])
        if name == "tuple":
            if not args:
                return SymSeq([], is_tuple=True)
            seq = args[0]
            if isinstance(seq, SymSeq):
                return SymSeq(list(seq.elements), is_tuple=True)
        if name == "reversed":
            seq = args[0]
            if isinstance(seq, SymSeq):
                return SymSeq(list(reversed(seq.elements)),
                              is_tuple=seq.is_tuple)
            if isinstance(seq, Const) and isinstance(seq.value,
                                                     (list, tuple, range)):
                return SymSeq([self._wrap_external(v)
                               for v in reversed(seq.value)])
        raise NotConvertible("builtin %s with these operands" % name,
                             feature="builtin")

    def _builtin_len(self, value):
        if isinstance(value, SymSeq):
            return Const(len(value.elements))
        if isinstance(value, SymDict):
            return Const(len(value.entries))
        if isinstance(value, Const) and hasattr(value.value, "__len__"):
            return Const(len(value.value))
        if isinstance(value, StackedList):
            value = value.tensor
        if isinstance(value, NodeOutput) and value.dtype is not None:
            dim = value.shape[0] if value.shape.dims else None
            if dim is not None:
                return Const(dim)
            return api.getitem(api.shape_of(value), 0)
        raise NotConvertible("len() of %r" % (value,), feature="len")

    def _builtin_range(self, args):
        vals = list(args) + [Const(None)] * (3 - len(args))
        start, stop, step = vals[:3]
        if len(args) == 1:
            start, stop, step = Const(0), args[0], Const(1)
        if step.value is None if isinstance(step, Const) else False:
            step = Const(1)
        if all(isinstance(v, Const) for v in (start, stop, step)):
            return Const(range(start.value, stop.value, step.value))
        return SymRange(start, stop, step)

    # -- dynamic control flow (paper section 4.2.1) --------------------------------------

    def _convert_if(self, stmt, rest):
        """Convert an if statement; returns "consumed-rest" when the
        trailing statements were folded into a synthesized else branch
        (guard pattern: a branch that returns with no else)."""
        test = self.convert_expr(stmt.test)
        if isinstance(test, Const):
            self.convert_block(stmt.body if test.value else stmt.orelse)
            return None
        pred = self._tensorize(test)
        site = self._site(stmt, "if")
        direction = self.gen.prof_branch_direction(site)
        if self.gen.config.unroll_stable_control_flow and \
                direction is not None:
            taken = stmt.body if direction else stmt.orelse
            not_taken = stmt.orelse if direction else stmt.body
            if contains_raise(taken):
                raise NotConvertible("stable path raises",
                                     feature="raise")
            self._assert_direction(pred, direction, site)
            self.convert_block(taken)
            return None
        # Dynamic conditional.
        body_returns = always_returns(stmt.body)
        orelse = stmt.orelse
        consumed_rest = False
        if body_returns and not orelse and rest:
            orelse = list(rest)
            consumed_rest = True
        orelse_returns = always_returns(orelse) if orelse else False
        if body_returns and orelse_returns:
            value = self._dynamic_cond_returning(pred, stmt.body, orelse,
                                                 site=site)
            raise _ReturnValue(value)
        if body_returns != orelse_returns:
            raise NotConvertible("conditionally returning branch without "
                                 "a stable profile", feature="control-flow")
        self._dynamic_cond_assigning(pred, stmt.body, orelse, site=site)
        return "consumed-rest" if consumed_rest else None

    def _dynamic_cond_returning(self, pred, body, orelse, site=None):
        gen = self.gen
        key = ("cond_ret", site)
        spliced = self._splice_cond(key, pred, body, orelse, None)
        if spliced is not None:
            outputs, structure = spliced
            return rebuild_value(structure, iter(outputs))
        rec = gen._begin_fragment()
        try:
            t_func, t_struct, captured = self._build_branch(body, None,
                                                            "true")
            f_func, f_struct, captured2 = self._build_branch(
                orelse, None, "false", captured_plan=captured)
        finally:
            gen._end_fragment()
        if not structures_compatible(t_struct, f_struct):
            raise NotConvertible("branches return different structures "
                                 "(section 4.3.1 type rule)",
                                 feature="control-flow")
        out_specs = self._join_out_specs(t_func, f_func)
        flat_captured = [v for _, v in captured]
        outputs = self.builder.cond(pred, t_func, f_func, flat_captured,
                                    out_specs)
        if not isinstance(outputs, tuple):
            outputs = (outputs,)
        self._store_cond_fragment(key, rec, body, orelse, None,
                                  t_func, f_func, t_struct, captured)
        return rebuild_value(t_struct, iter(outputs))

    def _dynamic_cond_assigning(self, pred, body, orelse, site=None):
        gen = self.gen
        in_body = assigned_names(body)
        in_orelse = assigned_names(orelse)
        # Names assigned on both paths always merge; one-sided names need
        # a pre-existing binding to supply the other branch's value.
        out_names = sorted((in_body & in_orelse) |
                           {n for n in (in_body | in_orelse)
                            if n in self.env})
        key = ("cond_set", site)
        spliced = self._splice_cond(key, pred, body, orelse,
                                    tuple(out_names))
        if spliced is not None:
            outputs, structure = spliced
            merged = rebuild_value(structure, iter(outputs))
            for name, value in zip(out_names, merged.elements):
                self.env[name] = value
            return

        def trailer(env_after):
            return SymSeq([env_after.get(n, self.env.get(n))
                           for n in out_names], is_tuple=True)

        rec = gen._begin_fragment()
        try:
            t_func, t_struct, captured = self._build_branch(body, trailer,
                                                            "true")
            f_func, f_struct, _ = self._build_branch(orelse or [], trailer,
                                                     "false",
                                                     captured_plan=captured)
        finally:
            gen._end_fragment()
        if not structures_compatible(t_struct, f_struct):
            raise NotConvertible("branches assign incompatible values",
                                 feature="control-flow")
        out_specs = self._join_out_specs(t_func, f_func)
        flat_captured = [v for _, v in captured]
        outputs = self.builder.cond(pred, t_func, f_func, flat_captured,
                                    out_specs)
        if not isinstance(outputs, tuple):
            outputs = (outputs,)
        self._store_cond_fragment(key, rec, body, orelse or [],
                                  tuple(out_names), t_func, f_func,
                                  t_struct, captured)
        merged = rebuild_value(t_struct, iter(outputs))
        for name, value in zip(out_names, merged.elements):
            self.env[name] = value

    # -- fragment splice / store (incremental regeneration) ------------------

    def _env_token(self, value, keep=None):
        """How an env name currently resolves, for fragment validation."""
        if _holds_graph_value(value):
            flat = []
            structure = flatten_value(value, flat)
            return ("graph", _structure_token(structure, keep))
        return ("const", self._sym_digest(value, keep))

    def _sym_digest(self, value, keep=None, depth=0):
        if isinstance(value, Const):
            return ("c", frag_mod.value_digest(value.value, keep))
        if value is None:
            return ("c", ("val", "NoneType", None))
        if isinstance(value, SymSeq):
            if depth >= 3 or len(value.elements) > 32:
                return ("unsum", object())
            return ("seq", value.is_tuple,
                    tuple(self._sym_digest(e, keep, depth + 1)
                          for e in value.elements))
        if isinstance(value, SymDict):
            if depth >= 3 or len(value.entries) > 32:
                return ("unsum", object())
            return ("map", tuple(
                (k, self._sym_digest(v, keep, depth + 1))
                for k, v in value.entries.items()))
        if isinstance(value, SymRange):
            return ("rng", self._sym_digest(value.start, keep, depth + 1),
                    self._sym_digest(value.stop, keep, depth + 1),
                    self._sym_digest(value.step, keep, depth + 1))
        # SymFunc environments and anything else defy a cheap summary:
        # a fresh sentinel never compares equal, so regions reading such
        # values always reconvert rather than risk a stale splice.
        return ("unsum", object())

    def _env_summary_for(self, names, rec):
        summary = {}
        for name in sorted(names):
            if name in self.env:
                summary[name] = self._env_token(self.env[name],
                                                rec.keepalive)
            else:
                summary[name] = ("ext",)
        return summary

    def _env_matches(self, frag):
        for name, token in frag.env_summary.items():
            if name in self.env:
                if self._env_token(self.env[name]) != token:
                    return False
            elif token != ("ext",):
                return False
        return True

    def _replay_captures(self, frag):
        """Current capture edges matching the fragment's plan, or None.

        Strict by design: every planned edge must exist with exactly the
        recorded shape dims and dtype, because the fragment body's
        placeholders were built against them.
        """
        flat_by_base = {}
        edges = []
        for ckey, (dims, dtype) in zip(frag.captured_keys,
                                       frag.capture_specs):
            base, _, idx = ckey.rpartition("#")
            flat = flat_by_base.get(base)
            if flat is None:
                if base not in self.env:
                    return None
                flat = []
                try:
                    flatten_value(self.env[base], flat)
                except NotConvertible:
                    return None
                flat_by_base[base] = flat
            k = int(idx)
            if k >= len(flat):
                return None
            edge = flat[k]
            if not isinstance(edge, NodeOutput) or edge.dtype is not dtype \
                    or edge.shape.dims != dims:
                return None
            edges.append(edge)
        return edges

    def _cond_env_names(self, body, orelse, out_names):
        names = read_names(body) | read_names(orelse or [])
        if out_names:
            names |= set(out_names)
        return names

    def _splice_cond(self, key, pred, body, orelse, out_names):
        gen = self.gen
        if key[1] is None:
            return None
        for frag in gen.fragments.lookup(key):
            if frag.out_names != out_names:
                continue
            if not frag_mod.deps_valid(frag, gen.dirty_sites):
                continue
            if not self._env_matches(frag):
                continue
            edges = self._replay_captures(frag)
            if edges is None:
                continue
            try:
                out_specs = self._join_out_specs(frag.t_func, frag.f_func)
            except NotConvertible:
                continue
            outputs = self.builder.cond(pred, frag.t_func, frag.f_func,
                                        edges, out_specs)
            if not isinstance(outputs, tuple):
                outputs = (outputs,)
            gen._adopt_fragment(key, frag)
            return outputs, frag.structure
        gen.fragments.miss()
        return None

    def _store_cond_fragment(self, key, rec, body, orelse, out_names,
                             t_func, f_func, structure, captured):
        gen = self.gen
        gen.fragments_reconverted += 1
        gen._record_fragment_health(key, reused=False)
        if rec.poisoned or key[1] is None:
            return
        env_summary = self._env_summary_for(
            self._cond_env_names(body, orelse, out_names), rec)
        frag = frag_mod.Fragment(
            "cond", key, rec, env_summary,
            list(gen.prechecks[rec.precheck_start:]),
            t_func=t_func, f_func=f_func, structure=structure,
            out_names=out_names,
            captured_keys=[k for k, _ in captured],
            capture_specs=[(edge.shape.dims, edge.dtype)
                           for _, edge in captured])
        gen.fragments.store(key, frag)

    def _build_branch(self, stmts, trailer, label, captured_plan=None):
        """Convert a branch body into a GraphFunction.

        ``captured_plan`` (from the first branch) pins the capture list so
        both branches share one signature; extra captures needed by the
        second branch are appended.
        """
        if captured_plan is None:
            captured_plan = []
        # Capture every env name holding graph values that the branch
        # reads (flattened); constants are shared by reference.
        needed = read_names(stmts)
        capture_names = []
        for name in sorted(needed):
            if name in self.env and _holds_graph_value(self.env[name]):
                capture_names.append(name)
        if trailer is not None:
            for name in sorted(set(
                    n for n in assigned_names(stmts) if n in self.env)):
                if _holds_graph_value(self.env[name]) and \
                        name not in capture_names:
                    capture_names.append(name)

        plan_bases = {key.split("#")[0] for key, _ in captured_plan}
        for name in capture_names:
            if name not in plan_bases:
                flat = []
                flatten_value(self.env[name], flat)
                for k, edge in enumerate(flat):
                    captured_plan.append(("%s#%d" % (name, k), edge))
                plan_bases.add(name)

        sub = GraphBuilder(name="branch_%s" % label)
        with sub:
            env = dict(self.env)
            # Rebind captured names to branch placeholders.
            by_name = {}
            for key, edge in captured_plan:
                base = key.split("#")[0]
                by_name.setdefault(base, []).append(
                    sub.placeholder(key, shape=edge.shape,
                                    dtype=edge.dtype))
            for base, phs in by_name.items():
                if base in self.env:
                    flat = []
                    structure = flatten_value(self.env[base], flat)
                    env[base] = rebuild_value(structure, iter(phs))
            converter = _FunctionConverter(self.gen, self.func, env,
                                           builder=sub)
            try:
                converter.convert_block(list(stmts))
                if trailer is None:
                    result = Const(None)
                else:
                    result = trailer(converter.env)
            except _ReturnValue as ret:
                result = ret.value
            except (_BreakSignal, _ContinueSignal):
                raise NotConvertible(
                    "break/continue across a dynamic branch has no "
                    "graph representation", feature="break")
            flat = []
            structure = flatten_value(result, flat)
            lowered = []
            for edge in flat:
                lowered.append(edge)
            sub.mark_outputs(lowered)
        func = sub.finalize_function("branch_%s" % label)
        return func, structure, captured_plan

    def _join_out_specs(self, t_func, f_func):
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

    # -- loops ---------------------------------------------------------------------------

    def _convert_while(self, stmt):
        if stmt.orelse:
            raise NotConvertible("while-else", feature="loop")
        site = self._site(stmt, "while")
        trip = self.gen.prof_trip_count(site)
        if self.gen.config.unroll_stable_control_flow and \
                trip is not None and trip <= self.gen.config.max_unroll:
            broke = False
            for _ in range(trip):
                pred = self._tensorize(self.convert_expr(stmt.test))
                self._assert_direction(pred, True, site)
                try:
                    self.convert_block(stmt.body)
                except _ContinueSignal:
                    continue
                except _BreakSignal:
                    broke = True
                    break
            if not broke:
                pred = self._tensorize(self.convert_expr(stmt.test))
                self._assert_direction(pred, False, site)
            return
        self._dynamic_loop(test_stmts=stmt, body=stmt.body, site=site)

    def _convert_for(self, stmt):
        if stmt.orelse:
            raise NotConvertible("for-else", feature="loop")
        iterable = self.convert_expr(stmt.iter)
        site = self._site(stmt, "for")
        items = self._try_static_items(iterable, site)
        if items is not None:
            if len(items) > self.gen.config.max_unroll or \
                    not self.gen.config.unroll_stable_control_flow:
                dynamic = self._as_dynamic_iterable(iterable, items)
                if dynamic is not None:
                    self._dynamic_for(stmt, dynamic, site)
                    return
            for item in items:
                self._bind_target(stmt.target, item)
                try:
                    self.convert_block(stmt.body)
                except _ContinueSignal:
                    continue
                except _BreakSignal:
                    break
            return
        dynamic = self._as_dynamic_iterable(iterable, None)
        if dynamic is None:
            raise NotConvertible("iterable %r is not convertible"
                                 % (iterable,), feature="loop")
        self._dynamic_for(stmt, dynamic, site)

    def _try_static_items(self, iterable, site):
        """Items for a statically-unrollable iterable, else None."""
        if isinstance(iterable, Const):
            v = iterable.value
            if isinstance(v, range):
                return [Const(i) for i in v]
            if isinstance(v, Shape) and v.dims is not None:
                return [Const(d) for d in v.dims]
            if isinstance(v, (list, tuple)):
                if all(isinstance(e, (bool, int, float, str)) or e is None
                       for e in v):
                    return [Const(e) for e in v]
                if all(isinstance(e, (Tensor, np.ndarray)) for e in v):
                    return [self.builder.convert(e) for e in v]
                # Heterogeneous / object lists: unroll over identities.
                return [Const(e) for e in v]
        if isinstance(iterable, SymSeq):
            return list(iterable.elements)
        if isinstance(iterable, _SymEnumerate):
            inner = self._try_static_items(iterable.inner, site)
            if inner is None:
                return None
            start = iterable.start.value \
                if isinstance(iterable.start, Const) else 0
            return [SymSeq([Const(start + i), e], is_tuple=True)
                    for i, e in enumerate(inner)]
        if isinstance(iterable, _SymZip):
            columns = [self._try_static_items(part, site)
                       for part in iterable.parts]
            if any(c is None for c in columns):
                return None
            n = min(len(c) for c in columns)
            return [SymSeq([c[i] for c in columns], is_tuple=True)
                    for i in range(n)]
        if isinstance(iterable, NodeOutput) and iterable.dtype is not None:
            dim = iterable.shape[0] if iterable.shape.dims else None
            if dim is not None and \
                    self.gen.config.unroll_stable_control_flow:
                return [api.getitem(iterable, i) for i in range(dim)]
            return None
        if isinstance(iterable, StackedList):
            return self._try_static_items(iterable.tensor, site)
        return None

    def _as_dynamic_iterable(self, iterable, static_items):
        """(count_expr, helper_env, elem_fn, salt) for a dynamic loop,
        or None.

        ``helper_env`` maps synthetic env names to graph values that must
        be carried into the loop body as invariants (the iterated tensor,
        a symbolic range start); ``elem_fn(converter, counter)`` produces
        the per-iteration element *inside* the body builder using those
        carried values.  ``salt`` extends the fragment-cache key with any
        iteration parameter the body burns in as a constant (a
        const-range start), so differently-parameterized bodies never
        alias one cached fragment.
        """
        if isinstance(iterable, SymRange):
            step = iterable.step
            if not (isinstance(step, Const) and step.value == 1):
                return None
            start = api.cast(self._tensorize(iterable.start), "int64")
            stop = api.cast(self._tensorize(iterable.stop), "int64")
            count = api.sub(stop, start)
            helpers = {"__janus_range_start__": start}

            def elem(conv, counter):
                return api.add(counter, conv.env["__janus_range_start__"])

            return count, helpers, elem, ()
        if isinstance(iterable, StackedList):
            iterable = iterable.tensor
        if isinstance(iterable, NodeOutput) and iterable.dtype is not None:
            count = self._tensorize(self._builtin_len(iterable))
            helpers = {"__janus_iterated__": iterable}

            def elem(conv, counter):
                return api.gather(conv.env["__janus_iterated__"], counter)

            return api.cast(count, "int64"), helpers, elem, ()
        if isinstance(iterable, Const) and isinstance(iterable.value, range):
            r = iterable.value
            if r.step != 1:
                return None
            count = self.builder.convert(np.int64(len(r)))
            start = r.start

            def elem(conv, counter, s=start):
                return api.add(counter, np.int64(s))

            return count, {}, elem, ("crange", start)
        return None

    def _dynamic_for(self, stmt, dynamic, site):
        count_expr, helpers, elem_fn, salt = dynamic
        for name, value in helpers.items():
            self.env[name] = value
        try:
            self._dynamic_loop(test_stmts=None, body=stmt.body, site=site,
                               count_expr=count_expr, elem_fn=elem_fn,
                               for_target=stmt.target,
                               extra_invariants=sorted(helpers),
                               fragment_salt=salt)
        finally:
            for name in helpers:
                self.env.pop(name, None)

    def _dynamic_loop(self, test_stmts, body, site, count_expr=None,
                      elem_fn=None, for_target=None,
                      extra_invariants=(), fragment_salt=()):
        """Emit a while_loop node for a dynamic while/for (section 4.2.1).

        Loop-carried state is every env name assigned in the body plus
        every graph value the body or test reads; Python lists of tensors
        crossing the boundary are lowered to stacked accumulators.
        """
        carried_names = sorted(
            n for n in assigned_names(body) if n in self.env)
        # Names assigned only inside the body are per-iteration locals;
        # if one is genuinely read before assignment (or after the loop)
        # its lookup fails during body conversion with a clear error.
        read = read_names(body)
        if test_stmts is not None:
            read |= read_names([test_stmts.test] if hasattr(
                test_stmts, "test") else [])
        invariant_names = sorted(
            set(extra_invariants) |
            {n for n in read
             if n in self.env and n not in carried_names and
             _holds_graph_value(self.env[n])})

        # Lower loop-carried state into graph edges: Python lists of
        # tensors become stacked accumulators, and build-time numbers
        # become scalar tensors (their value changes across iterations).
        for name in carried_names:
            value = self.env[name]
            if isinstance(value, SymSeq):
                self.env[name] = self._to_stacked(value, name)
            elif isinstance(value, Const) and isinstance(
                    value.value, (bool, int, float)) and \
                    not isinstance(value.value, bool):
                self.env[name] = self._tensorize(value)

        loop_names = carried_names + invariant_names
        flat_inits, structures, widths = [], [], []
        for name in loop_names:
            flat = []
            structures.append(flatten_value(self.env[name], flat))
            flat_inits.append(flat)
            widths.append(len(flat))

        counter_init = self.builder.convert(np.int64(0))
        all_inits = [counter_init] + [e for flat in flat_inits
                                      for e in flat]
        if count_expr is not None:
            # Hoist the trip count: evaluated once, carried as invariant.
            all_inits.append(api.cast(count_expr, "int64"))

        def rebind(env, placeholders):
            """Map flat loop-var placeholders back into an environment."""
            idx = 1  # skip counter
            for name, structure, width in zip(loop_names, structures,
                                              widths):
                env[name] = rebuild_value(
                    structure, iter(placeholders[idx:idx + width]))
                idx += width
            return placeholders[0], placeholders[-1] \
                if count_expr is not None else None

        key = ("loop", site, tuple(fragment_salt))
        spliced = self._splice_loop(key, loop_names, structures, all_inits,
                                    count_expr is not None)
        if spliced is not None:
            cond_func, body_func = spliced
        else:
            rec = self.gen._begin_fragment()
            try:
                # condition function
                cond_sub = GraphBuilder(name="loop_cond")
                with cond_sub:
                    phs = [cond_sub.placeholder("lv%d" % k, shape=v.shape,
                                                dtype=v.dtype)
                           for k, v in enumerate(all_inits)]
                    env = dict(self.env)
                    counter_edge, bound_edge = rebind(env, phs)
                    conv = _FunctionConverter(self.gen, self.func, env,
                                              builder=cond_sub)
                    if count_expr is not None:
                        keep = api.less(counter_edge, bound_edge)
                    else:
                        keep = conv._tensorize(
                            conv.convert_expr(test_stmts.test))
                    cond_sub.mark_outputs([keep])
                cond_func = cond_sub.finalize_function("loop_cond")

                # body function
                body_sub = GraphBuilder(name="loop_body")
                with body_sub:
                    phs = [body_sub.placeholder("lv%d" % k, shape=v.shape,
                                                dtype=v.dtype)
                           for k, v in enumerate(all_inits)]
                    env = dict(self.env)
                    counter_edge, bound_edge = rebind(env, phs)
                    conv = _FunctionConverter(self.gen, self.func, env,
                                              builder=body_sub)
                    if elem_fn is not None:
                        conv._bind_target(for_target,
                                          elem_fn(conv, counter_edge))
                    try:
                        conv.convert_block(list(body))
                    except (_BreakSignal, _ContinueSignal):
                        raise NotConvertible(
                            "break/continue inside a dynamic loop has no "
                            "graph representation", feature="break")
                    new_flat = []
                    for name, structure in zip(loop_names, structures):
                        value = conv.env[name]
                        if isinstance(value, SymSeq):
                            value = conv.env[name] = self._to_stacked(
                                value, name)
                        flat = []
                        new_structure = flatten_value(value, flat)
                        if not structures_compatible(new_structure,
                                                     structure):
                            raise NotConvertible(
                                "loop-carried %r changes structure across "
                                "iterations" % name, feature="loop")
                        new_flat.extend(flat)
                    outputs = [api.add(counter_edge, np.int64(1))] + \
                        new_flat
                    if count_expr is not None:
                        outputs.append(bound_edge)
                    body_sub.mark_outputs(outputs)
                body_func = body_sub.finalize_function("loop_body")
            finally:
                self.gen._end_fragment()
            self._store_loop_fragment(key, rec, test_stmts, body,
                                      loop_names, structures, all_inits,
                                      count_expr is not None, cond_func,
                                      body_func)

        out_specs = []
        for init, out in zip(all_inits, body_func.graph.outputs):
            if init.dtype is not out.dtype and not (
                    init.dtype is None and out.dtype is None):
                raise NotConvertible("loop-carried dtype changes",
                                     feature="loop")
            out_specs.append((init.shape.relax_against(out.shape),
                              init.dtype))
        results = self.builder.while_loop(cond_func, body_func, all_inits,
                                          out_specs)
        idx = 1
        for name, structure, width in zip(loop_names, structures, widths):
            self.env[name] = rebuild_value(
                structure, iter(results[idx:idx + width]))
            idx += width

    def _loop_env_names(self, test_stmts, body, loop_names):
        names = read_names(body) | set(loop_names)
        if test_stmts is not None and hasattr(test_stmts, "test"):
            names |= read_names([test_stmts.test])
        return names

    def _splice_loop(self, key, loop_names, structures, all_inits,
                     has_bound):
        gen = self.gen
        init_specs = [(e.shape.dims, e.dtype) for e in all_inits]
        for frag in gen.fragments.lookup(key):
            if frag.loop_names != tuple(loop_names) or \
                    frag.has_bound != has_bound:
                continue
            if frag.init_specs != init_specs:
                continue
            if len(frag.structures) != len(structures) or not all(
                    structures_compatible(a, b)
                    for a, b in zip(frag.structures, structures)):
                continue
            if not frag_mod.deps_valid(frag, gen.dirty_sites):
                continue
            if not self._env_matches(frag):
                continue
            gen._adopt_fragment(key, frag)
            return frag.cond_func, frag.body_func
        gen.fragments.miss()
        return None

    def _store_loop_fragment(self, key, rec, test_stmts, body, loop_names,
                             structures, all_inits, has_bound, cond_func,
                             body_func):
        gen = self.gen
        gen.fragments_reconverted += 1
        gen._record_fragment_health(key, reused=False)
        if rec.poisoned:
            return
        env_summary = self._env_summary_for(
            self._loop_env_names(test_stmts, body, loop_names), rec)
        frag = frag_mod.Fragment(
            "loop", key, rec, env_summary,
            list(gen.prechecks[rec.precheck_start:]),
            cond_func=cond_func, body_func=body_func,
            loop_names=tuple(loop_names), structures=tuple(structures),
            init_specs=[(e.shape.dims, e.dtype) for e in all_inits],
            has_bound=has_bound)
        gen.fragments.store(key, frag)

    def _to_stacked(self, seq, name):
        """Lower a SymSeq of same-shaped tensors into a StackedList."""
        if not seq.elements:
            raise NotConvertible(
                "list %r is empty at a dynamic loop boundary; "
                "cannot infer element shape" % name, feature="loop")
        tensors = [self._tensorize(e) for e in seq.elements]
        first = tensors[0]
        for t in tensors[1:]:
            if t.dtype is not first.dtype:
                raise NotConvertible("list %r mixes dtypes at a loop "
                                     "boundary" % name, feature="loop")
        return StackedList(api.stack(tensors))


def _name_in_target(target, name):
    if isinstance(target, ast.Name):
        return target.id == name
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_name_in_target(e, name) for e in target.elts)
    return False


def _holds_graph_value(value):
    if isinstance(value, (NodeOutput, StackedList)):
        return True
    if isinstance(value, SymSeq):
        return any(_holds_graph_value(e) for e in value.elements)
    if isinstance(value, SymDict):
        return any(_holds_graph_value(v) for v in value.entries.values())
    return False


def _type_only(profiled):
    if profiled is None:
        return None
    return spec.relax_constants(profiled)


def _set_load(node):
    import copy
    clone = copy.deepcopy(node)

    class _V(ast.NodeTransformer):
        def visit_Name(self, n):
            n.ctx = ast.Load()
            return n

        def visit_Attribute(self, n):
            self.generic_visit(n)
            n.ctx = ast.Load()
            return n

        def visit_Subscript(self, n):
            self.generic_visit(n)
            n.ctx = ast.Load()
            return n

    return _V().visit(clone)


class _BoundSymMethod:
    __slots__ = ("owner", "name")

    def __init__(self, owner, name):
        self.owner = owner
        self.name = name


class _SymEnumerate:
    __slots__ = ("inner", "start")

    def __init__(self, inner, start):
        self.inner = inner
        self.start = start


class _SymZip:
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts
