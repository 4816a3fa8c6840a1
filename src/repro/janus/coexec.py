"""Terra-style imperative–symbolic co-execution (docs/coexecution.md).

JANUS as described in the paper is all-or-nothing: one unconvertible
construct routes the whole function to the imperative executor forever
(figure 2 path (C)).  Per Terra (arXiv 2201.09210), this module splits
such a function at its top-level statements into an alternating
schedule of

* **symbolic fragments** — maximal runs of convertible statements,
  synthesized into standalone functions and wrapped in their own
  :class:`~repro.janus.api.JanusFunction` so they reuse the entire
  profile → speculate → guard → regenerate pipeline (including
  ``compile_generated`` and the per-fragment GraphCache), and
* **imperative gaps** — the unsupported statements, synthesized into
  plain functions executed eagerly.

Live values cross each handoff boundary through an explicit environment
dict; Variables and heap effects cross through the heap itself (gaps
mutate eagerly, fragments commit their deferred state updates
all-or-nothing before returning).  Every segment returns a uniform
``(done, payload)`` pair: ``done`` means a ``return`` statement inside
the segment ended the call and ``payload`` is the function result;
otherwise ``payload`` carries the segment's live-out values.

**Refinement.**  The initial partition is static (coverage-scan
violations, known-opaque method calls, and the statement the
whole-function conversion died in).  Anything the static scan misses is
caught dynamically: fragments run with ``fail_on_not_convertible`` so a
conversion failure surfaces as :class:`~repro.errors.NotConvertible`
annotated with the failing line, and the plan splits the fragment at
that statement — before the fragment executed anything, so the call
resumes correctly with the refined schedule.  A fragment that shrinks
to a single unconvertible statement becomes a gap; a plan whose
symbolic segments all degenerate into gaps abandons itself and the
function transitions to classic imperative-only.

**Fallback.**  Any boundary mismatch (a segment returning the wrong
structure, a live-in missing from the environment) abandons the plan
and re-runs the whole function imperatively — correctness always wins
over the partial speedup.  Note the caveat: segments already executed
before the mismatch have applied their heap effects, so the imperative
re-run may repeat them; the planner's static binding makes this path
unreachable short of a bug, but it is the documented policy
(docs/coexecution.md#boundary-mismatches).

Functions with an optimizer (training functions) are never co-executed:
per-fragment symbolic autodiff does not compose across imperative gaps.
Inference functions co-execute freely — and when a
:class:`~repro.imperative.tape.GradientTape` is recording, the plan
runs its fragments imperatively for that call so the tape observes
every op and gradients match the un-split function exactly.
"""

import ast
import copy
import itertools
import linecache
import threading
import types

from ..errors import NotConvertible
from ..imperative.tape import _tapes
from ..observability import COUNTERS, TRACER, reqtrace
from .compiled import CoExecArtifact
from .coverage import scan as coverage_scan
from .graphgen import assigned_names, read_names

#: Method names that are opaque to the graph generator and common enough
#: to pre-classify statically (dynamic refinement catches the rest).
_OPAQUE_METHODS = frozenset({
    "numpy", "tolist", "item", "append", "extend", "insert", "remove",
    "update", "setdefault", "write", "writelines", "read", "readline",
})

#: Unique suffix for synthesized-source filenames (two plans over the
#: same function must not collide in linecache).
_PLAN_IDS = itertools.count()

#: NotConvertible feature tags that partitioning cannot help with: the
#: failure is about the function's own signature/arguments, not a body
#: statement.  ("source"/"coroutine" raised for the parent itself are
#: gated by the get_function_ast call in build_plan; raised for a
#: *callee* they are localized to a call statement and splittable.)
_UNSPLITTABLE_FEATURES = frozenset({
    "signature", "argument", "training",
})


class BoundaryMismatch(Exception):
    """A handoff boundary produced an unexpected shape; the caller must
    abandon the plan and fall back whole-function imperative."""


def _tape_active():
    return any(t._recording for t in _tapes())


# ---------------------------------------------------------------------------
# Statement analysis
# ---------------------------------------------------------------------------

def _stmt_violations(stmt):
    """Coverage-scan a single statement (yields (feature, lineno))."""
    return coverage_scan(types.SimpleNamespace(body=[stmt]))


def _has_opaque_call(stmt):
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _OPAQUE_METHODS:
            return True
    return False


def _is_static_gap(stmt):
    """Cheap pre-classification: obviously-unconvertible statement?"""
    if _stmt_violations(stmt):
        return True
    return _has_opaque_call(stmt)


def _function_names(stmts):
    """Names bound to nested function objects in these statements."""
    names = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


class _ReturnTransformer(ast.NodeTransformer):
    """``return v`` → ``return (True, v)`` — the segment protocol.

    Nested scopes keep their own ``return`` semantics untouched.
    """

    def visit_FunctionDef(self, node):
        return node

    def visit_AsyncFunctionDef(self, node):
        return node

    def visit_Lambda(self, node):
        return node

    def visit_ClassDef(self, node):
        return node

    def visit_Return(self, node):
        value = node.value if node.value is not None \
            else ast.Constant(value=None)
        pair = ast.Tuple(elts=[ast.Constant(value=True), value],
                         ctx=ast.Load())
        return ast.copy_location(ast.Return(value=pair), node)


def _name_load(name):
    return ast.Name(id=name, ctx=ast.Load())


def _materialize(func, fdef, filename):
    """Compile a synthesized FunctionDef into a callable cloning ``func``.

    Like :func:`repro.janus.instrument.compile_function_def`, but routed
    through real source text registered in ``linecache`` so the
    resulting callable survives ``inspect.getsource`` — fragment
    functions are re-parsed by the instrumentation and graph-generation
    machinery.  Returns ``(callable, source_text)``.
    """
    target = getattr(func, "__func__", func)
    freevars = target.__code__.co_freevars
    module = ast.Module(body=[], type_ignores=[])
    if freevars:
        factory_args = ast.arguments(
            posonlyargs=[], args=[ast.arg(arg=v) for v in freevars],
            vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
            defaults=[])
        touch = [ast.Assign(
            targets=[ast.Name(id="__janus_touch__", ctx=ast.Store())],
            value=ast.Tuple(elts=[_name_load(v) for v in freevars],
                            ctx=ast.Load()))]
        factory = ast.FunctionDef(
            name="__janus_factory__", args=factory_args,
            body=[fdef] + touch + [ast.Return(value=_name_load(fdef.name))],
            decorator_list=[], returns=None)
        module.body = [factory]
    else:
        module.body = [fdef]
    ast.fix_missing_locations(module)
    src = ast.unparse(module) + "\n"
    linecache.cache[filename] = (len(src), None, src.splitlines(True),
                                 filename)
    code = compile(src, filename, "exec")
    globs = dict(target.__globals__)
    namespace = {}
    exec(code, globs, namespace)
    if freevars:
        factory_fn = namespace["__janus_factory__"]
        inner_code = None
        for const in factory_fn.__code__.co_consts:
            if isinstance(const, types.CodeType) and \
                    const.co_name == fdef.name:
                inner_code = const
                break
        if inner_code is None:
            raise NotConvertible("failed to locate synthesized code",
                                 feature="closure")
        cell_by_name = dict(zip(target.__code__.co_freevars,
                                target.__closure__ or ()))
        closure = tuple(cell_by_name[name]
                        for name in inner_code.co_freevars)
        fn = types.FunctionType(inner_code, globs, fdef.name, None,
                                closure)
    else:
        fn = namespace[fdef.name]
    return fn, src


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

class _Segment:
    """One contiguous run ``[start, end)`` of top-level statements."""

    __slots__ = ("kind", "start", "end", "live_in", "live_out", "fn",
                 "jf", "stmt_ranges", "filename")

    def __init__(self, kind, start, end):
        self.kind = kind            # "sym" | "gap"
        self.start = start
        self.end = end
        self.live_in = ()
        self.live_out = ()
        self.fn = None              # plain callable (gaps)
        self.jf = None              # JanusFunction (symbolic fragments)
        #: [(lineno, end_lineno, body_index), ...] in synthesized-source
        #: coordinates — maps a fragment conversion failure back to the
        #: top-level statement it belongs to.
        self.stmt_ranges = ()
        self.filename = None


class CoExecPlan:
    """The alternating fragment/gap schedule for one JanusFunction."""

    def __init__(self, parent, func, fdef, reason):
        self.name = getattr(func, "__name__", "?")
        self.func = func
        self.config = parent.config
        self.body = fdef.body
        self.param_names = [a.arg for a in fdef.args.args]
        self.not_convertible_reason = reason
        self._plan_id = next(_PLAN_IDS)
        self._lock = threading.RLock()
        self._segments = []
        self._seg_memo = {}
        #: False once refinement leaves no symbolic segment.
        self.alive = True
        self.splits = 0
        #: AST-node weight per top-level statement (converted-op ratio).
        self._weights = [sum(1 for _ in ast.walk(s)) for s in self.body]
        # Fragment configs run the same pipeline, minus recursion into
        # co-execution; NotConvertible must surface: that is the
        # refinement signal.
        self._frag_config = parent.config.copy(
            coexecution=False, fail_on_not_convertible=True)

    # -- partition bookkeeping ----------------------------------------------

    @property
    def segments(self):
        with self._lock:
            return list(self._segments)

    @property
    def converted_ratio(self):
        """Weighted fraction of the body inside symbolic fragments."""
        with self._lock:
            total = sum(self._weights) or 1
            sym = sum(self._weights[i]
                      for seg in self._segments if seg.kind == "sym"
                      for i in range(seg.start, seg.end))
            return sym / total

    def fragment_functions(self):
        with self._lock:
            return [seg.jf for seg in self._segments
                    if seg.kind == "sym"]

    def artifact(self):
        """The introspection/invalidation record (compiled.py)."""
        with self._lock:
            segments = [(s.kind, s.start, s.end) for s in self._segments]
            frags = [s.jf for s in self._segments if s.kind == "sym"]
        return CoExecArtifact(self.name, segments, frags,
                              self.converted_ratio)

    def invalidate(self):
        self.artifact().invalidate()

    def _defined_before(self, start):
        return set(self.param_names) | assigned_names(self.body[:start])

    def _read_after(self, end):
        return read_names(self.body[end:])

    def _set_segments(self, ranges):
        """Install a partition: fuse closure escapes and materialize
        segment callables (memoized per range).

        Adjacent gaps are deliberately NOT merged here: a refinement
        can land mid-call, after the statements of an earlier adjacent
        gap already executed — the run loop must still find a segment
        starting exactly at its resume position.  (Initial partitions
        never produce adjacent same-kind ranges; build_plan coalesces
        runs.)
        """
        ranges = self._fuse_escapes(ranges)
        segments = []
        for kind, a, b in ranges:
            seg = self._seg_memo.get((kind, a, b))
            if seg is None:
                try:
                    seg = self._synthesize(kind, a, b)
                except Exception:
                    if kind == "gap":
                        raise
                    # A fragment that cannot even be synthesized is a gap.
                    seg = self._seg_memo.get(("gap", a, b)) \
                        or self._synthesize("gap", a, b)
                    self._seg_memo[("gap", a, b)] = seg
                self._seg_memo[(seg.kind, a, b)] = seg
            segments.append(seg)
        self._segments = segments
        self.alive = any(s.kind == "sym" for s in segments)

    def _fuse_escapes(self, ranges):
        """A gap that binds a function read later must absorb the rest
        of the body: the closure's cells would not see later env
        updates, so no boundary may separate the def from its uses."""
        out = []
        n = len(self.body)
        for kind, a, b in ranges:
            if kind == "gap":
                defs = _function_names(self.body[a:b])
                if defs and defs & self._read_after(b):
                    out.append(("gap", a, n))
                    return out
            out.append((kind, a, b))
        return out

    # -- synthesis ----------------------------------------------------------

    def _synthesize(self, kind, start, end):
        seg = _Segment(kind, start, end)
        final = end == len(self.body)
        stmts = [copy.deepcopy(s) for s in self.body[start:end]]
        live_in = sorted(read_names(stmts) & self._defined_before(start))
        live_out = [] if final else sorted(
            assigned_names(stmts) & self._read_after(end))
        seg.live_in = tuple(live_in)
        seg.live_out = tuple(live_out)
        transformer = _ReturnTransformer()
        new_stmts = [transformer.visit(s) for s in stmts]
        if final:
            tail_payload = ast.Constant(value=None)
            done = True
        else:
            tail_payload = ast.Tuple(
                elts=[_name_load(n) for n in live_out], ctx=ast.Load())
            done = False
        tail = ast.Return(value=ast.Tuple(
            elts=[ast.Constant(value=done), tail_payload], ctx=ast.Load()))
        prefix = "jfrag" if kind == "sym" else "jgap"
        fname = "%s__%s_%d_%d" % (self.name, prefix, start, end)
        fdef = ast.FunctionDef(
            name=fname,
            args=ast.arguments(
                posonlyargs=[], args=[ast.arg(arg=n) for n in live_in],
                vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
                defaults=[]),
            body=new_stmts + [tail], decorator_list=[], returns=None)
        seg.filename = "<janus-coexec:%s:%d:%s:%d:%d>" % (
            self.name, self._plan_id, kind, start, end)
        fn, src = _materialize(self.func, fdef, seg.filename)
        if kind == "sym":
            from .api import JanusFunction
            seg.jf = JanusFunction(fn, config=self._frag_config)
            seg.stmt_ranges = self._index_ranges(src, fname, start,
                                                 len(stmts))
        else:
            seg.fn = fn
        return seg

    @staticmethod
    def _index_ranges(src, fname, start, n_stmts):
        """Map synthesized-source linenos back to body indices."""
        try:
            module = ast.parse(src)
        except SyntaxError:  # pragma: no cover - unparse round-trip
            return ()
        fdef = None
        for node in ast.walk(module):
            if isinstance(node, ast.FunctionDef) and node.name == fname:
                fdef = node
                break
        if fdef is None:  # pragma: no cover - unparse round-trip
            return ()
        ranges = []
        for i, stmt in enumerate(fdef.body[:n_stmts]):
            ranges.append((stmt.lineno,
                           getattr(stmt, "end_lineno", stmt.lineno),
                           start + i))
        return tuple(ranges)

    # -- refinement ----------------------------------------------------------

    def _split(self, seg, exc):
        """Refine the partition after ``seg`` failed to convert."""
        with self._lock:
            if seg not in self._segments:
                return          # another caller already refined here
            index = self._map_failure(seg, exc)
            ranges = []
            for s in self._segments:
                if s is not seg:
                    ranges.append((s.kind, s.start, s.end))
                    continue
                if index is None or seg.end - seg.start <= 1:
                    ranges.append(("gap", seg.start, seg.end))
                else:
                    if index > seg.start:
                        ranges.append(("sym", seg.start, index))
                    ranges.append(("gap", index, index + 1))
                    if index + 1 < seg.end:
                        ranges.append(("sym", index + 1, seg.end))
            self._set_segments(ranges)
            self.splits += 1
        COUNTERS.labels("coexec.splits").inc()
        if TRACER.level:
            TRACER.instant("coexec_split", self.name,
                           segment="%d:%d" % (seg.start, seg.end),
                           detail=str(exc))

    @staticmethod
    def _map_failure(seg, exc):
        lineno = getattr(exc, "lineno", None)
        if lineno is None:
            return None
        for lo, hi, index in seg.stmt_ranges:
            if lo <= lineno <= hi:
                return index
        return None

    def _segment_at(self, start):
        with self._lock:
            for seg in self._segments:
                if seg.start == start:
                    return seg
        return None

    # -- execution -----------------------------------------------------------

    def _bind_env(self, args):
        names = self.param_names
        if len(args) > len(names):
            raise BoundaryMismatch(
                "%d args for %d parameters" % (len(args), len(names)))
        env = dict(zip(names, args))
        defaults = getattr(self.func, "__defaults__", None) or ()
        for name, value in zip(names[len(names) - len(defaults):],
                               defaults):
            env.setdefault(name, value)
        if len(env) < len(names):
            missing = [n for n in names if n not in env]
            raise BoundaryMismatch("missing arguments %r" % (missing,))
        return env

    def run(self, args):
        """Execute one call: returns ``(result, fragment_graph_runs,
        alive)``.  Raises :class:`BoundaryMismatch` when a handoff
        boundary broke (caller falls back whole-function imperative).
        """
        env = self._bind_env(args)
        imperative_fragments = _tape_active()
        frag_graph_runs = 0
        n = len(self.body)
        position = 0
        while position < n:
            seg = self._segment_at(position)
            if seg is None:  # pragma: no cover - partition invariant
                raise BoundaryMismatch(
                    "no segment starts at statement %d" % position)
            try:
                values = [env[name] for name in seg.live_in]
            except KeyError as exc:
                raise BoundaryMismatch(
                    "live-in %s undefined at statement %d"
                    % (exc, position)) from exc
            if seg.kind == "sym" and not imperative_fragments:
                before = seg.jf.stats["graph_runs"]
                try:
                    with reqtrace.span("coexec_fragment", self.name,
                                       stmts="%d:%d" % (seg.start,
                                                        seg.end)):
                        result = seg.jf(*values)
                except NotConvertible as exc:
                    # The fragment did not execute: refine the partition
                    # and resume this call at the same statement.
                    self._split(seg, exc)
                    continue
                frag_graph_runs += seg.jf.stats["graph_runs"] - before
            elif seg.kind == "sym":
                # A GradientTape is recording: run the fragment body
                # eagerly so the tape sees every op (gradient parity
                # through boundaries).
                result = seg.jf.func(*values)
            else:
                with reqtrace.span("coexec_gap", self.name,
                                   stmts="%d:%d" % (seg.start, seg.end)):
                    result = seg.fn(*values)
            done, payload = self._unpack(seg, result)
            if done:
                return payload, frag_graph_runs, self.alive
            self._writeback(seg, payload, env)
            position = seg.end
        return None, frag_graph_runs, self.alive

    @staticmethod
    def _unpack(seg, result):
        if not isinstance(result, (tuple, list)) or len(result) != 2:
            raise BoundaryMismatch(
                "segment %d:%d returned %r instead of (done, payload)"
                % (seg.start, seg.end, type(result).__name__))
        return bool(result[0]), result[1]

    @staticmethod
    def _writeback(seg, payload, env):
        if not seg.live_out:
            return
        if not isinstance(payload, (tuple, list)) or \
                len(payload) != len(seg.live_out):
            raise BoundaryMismatch(
                "segment %d:%d live-out arity mismatch (%d names, %r)"
                % (seg.start, seg.end, len(seg.live_out), payload))
        for name, value in zip(seg.live_out, payload):
            env[name] = value


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------

def build_plan(parent, exc):
    """Build a :class:`CoExecPlan` for a function whose whole-function
    conversion raised ``exc`` — or None when partitioning cannot help.
    """
    func = parent.func
    if parent.optimizer is not None:
        return None
    if getattr(exc, "feature", None) in _UNSPLITTABLE_FEATURES:
        return None
    if hasattr(func, "__self__"):
        return None
    try:
        from .instrument import get_function_ast
        fdef = get_function_ast(func, mutable=True)
    except NotConvertible:
        return None
    args = fdef.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
        return None
    body = fdef.body
    if len(body) < 2:
        return None
    # Scope declarations bind the whole function body to one frame;
    # partitioned segments cannot honour them.
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                return None
    gap_indices = {i for i, stmt in enumerate(body)
                   if _is_static_gap(stmt)}
    lineno = getattr(exc, "lineno", None)
    if lineno is not None:
        for i, stmt in enumerate(body):
            if stmt.lineno <= lineno <= getattr(stmt, "end_lineno",
                                                stmt.lineno):
                gap_indices.add(i)
                break
    if not gap_indices or len(gap_indices) == len(body):
        return None
    ranges = []
    for i in range(len(body)):
        kind = "gap" if i in gap_indices else "sym"
        if ranges and ranges[-1][0] == kind:
            ranges[-1] = (kind, ranges[-1][1], i + 1)
        else:
            ranges.append((kind, i, i + 1))
    plan = CoExecPlan(parent, func, fdef, str(exc))
    try:
        plan._set_segments(ranges)
    except Exception:
        return None
    if not plan.alive:
        return None
    COUNTERS.labels("coexec.plans_built").inc()
    if TRACER.level:
        TRACER.instant("coexec_plan", plan.name,
                       segments=[(k, a, b) for k, a, b
                                 in ((s.kind, s.start, s.end)
                                     for s in plan.segments)],
                       converted_ratio=plan.converted_ratio,
                       reason=str(exc))
    return plan
