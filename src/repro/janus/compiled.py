"""The compile-once execution artifact.

JANUS's speedup claim (paper §4.3) rests on paying conversion and
specialization cost once and then executing a cheap specialized graph
many times.  :class:`CompiledGraph` is the unit that bet is made on: it
bundles everything produced at graph-generation time — the converted
:class:`~repro.janus.graphgen.GeneratedGraph` (graph + binding plan +
prechecks), the compiled :class:`~repro.graph.executor.GraphExecutor`
(the fused graph's flat closure program with its guard preamble and
specialized per-node guard closures), and the compile-time metadata
used to audit the amortization — so nothing is re-derived on the hot
path.

``compile_generated`` is the single construction point, called from
:mod:`repro.janus.api` inside the ``graphgen`` trace span; the artifact
then lives in the :class:`~repro.janus.cache.GraphCache` until evicted
or invalidated.
"""

import pickle
import time

from ..graph.executor import GraphExecutor
from ..graph.passes import fuse_graph
from ..observability import COUNTERS, METRICS, TRACER
from ..tensor import PyRef, TensorValue

#: Bump when the pickled GeneratedGraph layout changes incompatibly;
#: the disk cache treats any other value as a miss.  (2: the class moved
#: to ``graphgen.generator`` and takes ``nodes_raw``/``bound_arg_specs``
#: at construction.)
ARTIFACT_FORMAT = 2

_COMPILE_SECONDS = METRICS.histogram(
    "janus_compile_seconds",
    "Fusion + executor compilation of one generated graph.").labels()


class UnportableArtifact(Exception):
    """This artifact pins process-local state and cannot be persisted.

    ``reason`` is a short machine-readable kind (surfaced as a
    ``diskcache.store_skipped.<reason>`` counter), never an error the
    caller must handle beyond "don't publish".
    """

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def portability_blockers(generated):
    """Why a GeneratedGraph must not cross a process boundary (or None).

    A graph is portable when nothing in it refers to objects of the
    producing process by *identity*: no Variables, no Python-heap access
    (``py_*`` nodes / PyRef constants), and no identity prechecks.  Such
    graphs are pure tensor programs — exactly the ones whose semantics
    survive pickling.
    """
    for desc, check in generated.prechecks:
        if not getattr(check, "portable", False):
            return "identity_precheck"
    seen = set()
    stack = [generated.graph]
    while stack:
        graph = stack.pop()
        if id(graph) in seen:
            continue
        seen.add(id(graph))
        for node in graph.nodes:
            if node.variable is not None:
                return "variable"
            if node.py_object is not None or node.op_name.startswith("py_"):
                return "heap_access"
            if isinstance(node.constant_value, PyRef):
                return "pyref_const"
            for func in node._nested_functions():
                if func is not None and func.graph is not None:
                    stack.append(func.graph)
    blocker = _structure_blocker(generated.output_structure)
    if blocker:
        return blocker
    return None


def _structure_blocker(structure):
    kind = structure[0]
    if kind == "const":
        value = structure[1]
        if not (value is None or isinstance(
                value, (bool, int, float, str, TensorValue))):
            return "const_output"
        return None
    if kind in ("seq", "dict"):
        for sub in structure[2]:
            blocker = _structure_blocker(sub)
            if blocker:
                return blocker
    return None


def serialize_generated(generated):
    """Pickle a (pre-fusion) GeneratedGraph, or raise UnportableArtifact.

    Must be called *before* :func:`~repro.graph.passes.fuse_graph`
    mutates the graph: fused kernels are exec-generated code objects
    that cannot pickle.  Loading re-runs the full deterministic
    ``compile_generated`` pipeline on the deserialized graph, so loaded
    and freshly-compiled artifacts are bit-for-bit identical.
    """
    blocker = portability_blockers(generated)
    if blocker:
        raise UnportableArtifact(blocker)
    try:
        return pickle.dumps(generated, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # defensive: persistence must never block compile
        raise UnportableArtifact("pickle_error")


def deserialize_generated(payload):
    """Inverse of :func:`serialize_generated` (raises on corrupt input)."""
    generated = pickle.loads(payload)
    if not isinstance(generated, object) or \
            not hasattr(generated, "graph") or \
            not hasattr(generated, "prechecks"):
        raise ValueError("payload is not a GeneratedGraph")
    return generated


class CompiledGraph:
    """Everything needed to run one specialized graph, built exactly once.

    Thin by design: the artifact owns its pieces and forwards the calls
    the runtime makes per invocation (``bind_feeds`` /
    ``check_preconditions`` / ``repack_outputs``), so callers never
    reach around it to re-create executors or re-inspect the generator.
    """

    __slots__ = ("generated", "executor", "signature", "node_count",
                 "compile_seconds", "fused_ops", "payload",
                 "portable_skip", "from_disk")

    def __init__(self, generated, executor, signature=None,
                 compile_seconds=0.0, fused_ops=0):
        self.generated = generated
        self.executor = executor
        self.signature = signature
        self.node_count = len(generated.graph.nodes)
        self.compile_seconds = compile_seconds
        self.fused_ops = fused_ops
        #: Pre-fusion pickle of ``generated``, captured by
        #: ``compile_generated(..., persist=True)`` for disk publication;
        #: consumed (once) via :meth:`take_payload`.
        self.payload = None
        #: Why the artifact could not be serialized (None = it could, or
        #: persistence was never requested).
        self.portable_skip = None
        #: True when this artifact was rebuilt from a disk-cache entry.
        self.from_disk = False

    def take_payload(self):
        """Hand off the serialized form (and release the bytes)."""
        payload = self.payload
        self.payload = None
        return payload

    @property
    def graph(self):
        return self.generated.graph

    @property
    def lowered(self):
        # Read by benchmarks/ledger (exec.lowered_share); the one executor.
        return self.executor

    def bind_feeds(self, args):
        return self.generated.bind_feeds(args)

    def check_preconditions(self, args):
        return self.generated.check_preconditions(args)

    def repack_outputs(self, flat_values):
        return self.generated.repack_outputs(flat_values)

    def run_flat(self, feeds):
        """Execute the precompiled program over already-bound feeds."""
        return self.executor.run(feeds)

    def __repr__(self):
        return "CompiledGraph(%s, %d nodes, %d ops fused, compiled in " \
            "%.1f ms)" % (self.graph.name, self.node_count, self.fused_ops,
                          self.compile_seconds * 1e3)


class RegenerationSeed:
    """What an invalidated :class:`CompiledGraph` bequeaths its successor.

    When an assumption failure invalidates a cache entry, the old
    artifact still holds two things the regeneration can reuse instead
    of re-deriving from profile data: the bound argument specs of the
    previous graph (valid wherever the relaxation did not touch them)
    and the set of profiler sites whose assumptions were relaxed — the
    *dirty set* that tells the incremental generator which fragments
    must reconvert.  The seed is remembered per call signature by the
    :class:`~repro.janus.cache.GraphCache` and consumed (popped) by the
    next ``generate()`` for that signature.
    """

    __slots__ = ("compiled", "dirty_sites")

    def __init__(self, compiled, dirty_sites=frozenset()):
        self.compiled = compiled
        self.dirty_sites = frozenset(dirty_sites)

    @property
    def bound_arg_specs(self):
        """Arg specs the previous graph was specialized on (or None)."""
        return getattr(self.compiled.generated, "bound_arg_specs", None)


class CoExecArtifact:
    """The multi-fragment artifact behind a co-execution plan.

    A co-executed function does not own one :class:`CompiledGraph` — it
    owns an alternating schedule of symbolic fragments (each a full
    JanusFunction with its own :class:`~repro.janus.cache.GraphCache`
    of CompiledGraph artifacts, compiled through the same
    ``compile_generated`` pipeline) and imperative gaps.  This record
    is the introspection/invalidation handle over that whole family:
    ``janus-stats`` reads the converted-op ratio off it, and tearing a
    plan down invalidates every fragment cache in one sweep.
    """

    __slots__ = ("name", "segments", "fragment_functions",
                 "converted_ratio")

    def __init__(self, name, segments, fragment_functions,
                 converted_ratio):
        #: Owning janus.function name.
        self.name = name
        #: ``[("sym"|"gap", start_stmt, end_stmt), ...]`` — the current
        #: top-level partition, for reporting.
        self.segments = list(segments)
        #: The live fragment JanusFunctions (symbolic segments only).
        self.fragment_functions = list(fragment_functions)
        #: Weighted fraction of the function body covered by symbolic
        #: fragments (AST-node weighted; see docs/coexecution.md).
        self.converted_ratio = converted_ratio

    def compiled_graphs(self):
        """Every live CompiledGraph across all fragment caches."""
        out = []
        for jf in self.fragment_functions:
            for _sig, entry in jf.cache.entries():
                out.append(entry.compiled)
        return out

    def invalidate(self):
        """Invalidate every fragment's cached artifacts (counted)."""
        for jf in self.fragment_functions:
            jf.cache.invalidate_all()

    def stats(self):
        return {
            "fragments": len(self.fragment_functions),
            "gaps": sum(1 for kind, _a, _b in self.segments
                        if kind == "gap"),
            "converted_ratio": self.converted_ratio,
            "fragment_graphs": len(self.compiled_graphs()),
        }


def compile_generated(generated, config, signature=None, persist=False):
    """Build the :class:`CompiledGraph` artifact for a generated graph.

    This is the one place executor programs (and with them the
    specialized guard/heap-read closures) are compiled on the JANUS
    path; everything downstream reuses the artifact.

    ``persist=True`` additionally snapshots the pre-fusion pickle of
    *generated* (when portable) so the caller can publish the artifact
    to the cross-process disk cache; the snapshot must happen here,
    before fusion rewrites the graph in place.
    """
    start = time.perf_counter()
    payload = None
    portable_skip = None
    if persist:
        try:
            payload = serialize_generated(generated)
        except UnportableArtifact as exc:
            portable_skip = exc.reason
            COUNTERS.labels(
                "diskcache.store_skipped.%s" % exc.reason).inc()
    # Fuse before the executor compiles: the program binds the fused
    # kernels' closures, and nothing may mutate the graph afterwards.
    with TRACER.span("janus", "fuse", graph=generated.graph.name):
        fused_ops = fuse_graph(generated.graph)
    executor = GraphExecutor(generated.graph,
                             parallel=config.parallel_execution)
    elapsed = time.perf_counter() - start
    COUNTERS.labels("janus.graphs_compiled").inc()
    _COMPILE_SECONDS.observe(elapsed)
    compiled = CompiledGraph(generated, executor, signature=signature,
                             compile_seconds=elapsed, fused_ops=fused_ops)
    compiled.payload = payload
    compiled.portable_skip = portable_skip
    if TRACER.level:
        TRACER.instant("graphgen", "compiled", graph=generated.graph.name,
                       nodes=compiled.node_count,
                       compile_ms=round(elapsed * 1e3, 3),
                       fused_ops=fused_ops)
    return compiled


def load_compiled(payload, config, signature=None):
    """Rebuild a full CompiledGraph from a persisted payload.

    Runs the standard ``compile_generated`` pipeline (fuse → executor)
    on the deserialized pre-fusion graph, so the result is
    indistinguishable from a freshly-compiled artifact apart from
    ``from_disk``.  Raises on corrupt payloads; the disk cache converts
    any raise into a counted miss.
    """
    generated = deserialize_generated(payload)
    compiled = compile_generated(generated, config, signature=signature)
    compiled.from_disk = True
    return compiled
