"""``GraphGenerator``: one profiled function in, one ``GeneratedGraph`` out.

Owns what a generation shares across every body it converts: argument
binding and the cache-retrieval prechecks, the set of recursive callees,
the profile queries (recorded as dependencies of the regions being
converted), the fragment cache the regions splice from, and the
counters and trace events a finished generation reports.
"""

import contextlib
import time
import types

from ...errors import NotConvertible
from ...observability import COUNTERS, HEALTH, METRICS, TRACER
from ...graph.builder import GraphBuilder
from ...graph.core import NodeOutput
from ...graph import autodiff
from ...graph.passes import PassManager
from ...tensor import TensorValue
from .. import fragments as frag_mod
from .. import specialization as spec
from ..coverage import check_convertible
from ..instrument import get_function_ast, function_key
from ..whitelist import is_whitelisted
# The construct modules register their handlers on import.
from . import (calls, controlflow, expressions, heap,  # noqa: F401
               statements)
from .converter import convert_body
from .values import Const, SymSeq, flatten_value

_OPTIMIZE_SECONDS = METRICS.histogram(
    "janus_graphgen_optimize_seconds",
    "Optimization-pass time per generated graph.").labels()

#: Profiler query -> (digest of its answer, whether its key is a
#: profiler site).  See :meth:`GraphGenerator.profile`.
_PROFILE_QUERIES = {
    "branch_direction": (lambda answer: answer, True),
    "trip_count": (lambda answer: answer, True),
    "callee": (frag_mod.value_digest, True),
    "attr_spec": (spec.spec_digest, True),
    "subscr_spec": (spec.spec_digest, True),
    "return_spec": (spec.spec_digest, False),
}

#: Argument kinds bound as build-time constants -> (what the cache-
#: retrieval precheck pins, the precheck).
_BURNED_ARGS = {
    spec.CONST_PY: ("const", spec.ArgEquals),
    spec.CALLABLE: ("callee identity", spec.ArgCallableIs),
    spec.VARIABLE: ("variable identity", spec.ArgIsObject),
    spec.PYOBJ: ("object identity", spec.ArgIsObject),
}


def _tensor_type(sp):
    """The dtype/shape assumption of a tensor argument spec."""
    return spec.ValueSpec(spec.TENSOR, dtype=sp.dtype, shape=sp.shape)


class GeneratedGraph:
    """The product of conversion: graph + binding plan + assumptions."""

    def __init__(self, graph, arg_plan, output_structure, prechecks,
                 nodes_raw, bound_arg_specs):
        self.graph = graph
        self.arg_plan = arg_plan          # list of ("arg", i) / ("item", i, j)
        self.output_structure = output_structure
        self.prechecks = prechecks        # list of (describe, check_fn)
        #: Node count before the optimization passes ran (compile-time
        #: metadata surfaced through CompiledGraph / trace events).
        self.nodes_raw = nodes_raw
        #: The argument specs this graph was specialized on; handed to
        #: the next regeneration as a RegenerationSeed.
        self.bound_arg_specs = bound_arg_specs

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
        from ...graph.executor import _externalize
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
            env, bound_specs = self._bind_arguments(fdef, arg_plan)
            result = convert_body(self, target, env, self.builder, fdef.body)
            flat = []
            structure = flatten_value(result, flat)
            if self.optimizer is not None:
                self._attach_training(result)
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
        return GeneratedGraph(graph, arg_plan, structure, self.prechecks,
                              nodes_before, bound_specs)

    def _attach_training(self, result):
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

    # -- argument binding ----------------------------------------------------------

    def _bind_arguments(self, fdef, arg_plan):
        """``(environment, the specs it was bound from)``."""
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
        names = [a.arg for a in args.args]
        if len(specs) != len(names):
            raise NotConvertible("profiled arity %d != signature %d"
                                 % (len(specs), len(names)),
                                 feature="signature")
        env = {}
        for i, (name, sp) in enumerate(zip(names, specs)):
            env[name] = self._bind_one_arg(i, name, sp, arg_plan)
        return env, list(specs)

    def _bind_one_arg(self, index, name, sp, arg_plan):
        if sp is None or sp.kind == spec.BOTTOM:
            raise NotConvertible("argument %r has no stable spec" % name,
                                 feature="argument")
        if sp.kind == spec.CONST_TENSOR and self.config.specialize_types:
            self.add_precheck("arg %d constant" % index,
                              spec.ArgConstTensor(index, sp.value))
            return self.builder.constant(TensorValue.of(sp.value))
        if sp.is_tensor_like:
            # Shapes are part of the basic type assumption (checked at
            # cache retrieval); +SPCN additionally burns stable *values*
            # into the graph as constants.
            check = spec.ArgSpecMatches(index, _tensor_type(sp))
            self.add_precheck("arg %d tensor spec" % index, check)
            return self._arg_placeholder("arg_%d_%s" % (index, name), sp,
                                         ("arg", index), arg_plan)
        if sp.kind == spec.NONE:
            return Const(None)
        if sp.kind == spec.PYOBJ and sp.value is None:
            self.add_precheck("arg %d object type" % index,
                              spec.ArgTypeIs(index, sp.py_type))
            arg_plan.append(("arg", index))
            return self.builder.placeholder("arg_%d_%s" % (index, name),
                                            shape=(), dtype=None)
        if sp.kind in _BURNED_ARGS:
            what, check = _BURNED_ARGS[sp.kind]
            self.add_precheck("arg %d %s" % (index, what),
                              check(index, sp.value))
            return Const(sp.value)
        if sp.kind == spec.LIST:
            elements = []
            self.add_precheck("arg %d sequence length" % index,
                              spec.ArgSeqLen(index, len(sp.elements)))
            for j, esp in enumerate(sp.elements):
                if not esp.is_tensor_like:
                    raise NotConvertible(
                        "argument %r: non-tensor sequence elements are "
                        "imperative-only" % name, feature="argument")
                check = spec.ArgItemMatches(index, j, _tensor_type(esp))
                self.add_precheck("arg %d item %d" % (index, j), check)
                elements.append(self._arg_placeholder(
                    "arg_%d_%s_%d" % (index, name, j), esp,
                    ("item", index, j), arg_plan))
            return SymSeq(elements, is_tuple=sp.is_tuple)
        raise NotConvertible("argument %r spec %r not convertible"
                             % (name, sp), feature="argument")

    def _arg_placeholder(self, label, sp, path, arg_plan):
        arg_plan.append(path)
        return self.builder.placeholder(label, shape=sp.shape,
                                        dtype=sp.dtype)

    def add_precheck(self, description, check):
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

    # -- what a region's conversion depended on -------------------------------

    @contextlib.contextmanager
    def recording_region(self):
        """Record the dependencies of the region converted inside."""
        rec = frag_mod.FragmentRecorder(precheck_start=len(self.prechecks))
        self._frag_stack.append(rec)
        try:
            yield rec
        finally:
            self._frag_stack.pop()

    def dep(self, label, fetch, digest, site=None, keep=()):
        """Record a dependency into every active fragment recorder, so
        outer fragments absorb the deps of regions converted inside
        them."""
        for rec in self._frag_stack:
            rec.deps.append((label, fetch, digest))
            if site is not None:
                rec.dep_sites.add(site)
            rec.keepalive.extend(keep)

    def value_dep(self, label, digest, keep=()):
        """Dependency on a Python value burned in at build time (closure
        cell, global, object attribute): ``digest(keep)`` re-reads and
        digests it, pinning what it digests by identity in *keep*.
        Nothing is read or sealed unless a region is converting."""
        if self._frag_stack:
            keep = list(keep)
            self.dep(label, digest, digest(keep), keep=keep)

    def poison_fragments(self):
        """Mark every active recorder unreusable (the conversion had a
        build-time side effect that splicing would not replay)."""
        for rec in self._frag_stack:
            rec.poisoned = True

    def profile(self, query, key, **kwargs):
        """Ask the profiler ``query(key, **kwargs)``.

        Every profiler query of a conversion routes through here so
        active fragment recorders capture exactly which profiled facts a
        region consumed — re-queried and digest-compared at splice time.
        """
        ask = getattr(self.profiler, query)
        answer = ask(key, **kwargs)
        if self._frag_stack:
            digest, by_site = _PROFILE_QUERIES[query]
            label = key if by_site else function_key(key)
            keep = [x for x in (answer, *kwargs.values()) if x is not None]
            self.dep((query, label),
                     lambda: digest(ask(key, **kwargs)), digest(answer),
                     site=key if by_site else None, keep=keep)
        return answer

    def adopt_fragment(self, key, frag):
        """Account a splice and re-adopt the fragment's record."""
        self.fragments_reused += 1
        self._record_fragment_health(key, reused=True)
        self.fragments.touch(key, frag)
        frag.adopt(self.prechecks, self._frag_stack)

    def count_reconverted(self, key):
        self.fragments_reconverted += 1
        self._record_fragment_health(key, reused=False)

    def _record_fragment_health(self, key, reused):
        """Attribute a splice accept/reject to its profiler site so the
        per-site fragment-reuse ratio shows up in janus-stats."""
        if METRICS.enabled:
            owner = getattr(self.profiler, "owner", None)
            if owner is not None:
                HEALTH.function(owner).record_fragment(key[1], reused)
