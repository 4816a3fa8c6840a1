"""Dataflow graph executor.

Compiles a graph into generated Python functions over numpy buffers.
Every SSA value has a preallocated register slot in one flat ``values``
list.  :meth:`GraphExecutor._compile` schedules the graph's nodes once
and keeps, for each, its slots and how it runs: a registered op's
kernel bound to its node's attributes (``op_def.bind(attrs)``,
evaluated once per node), or — for a static heap read, a heap write, a
Python call and the four call sites only — a pre-bound
``fn(values, run_state)`` closure.  Every executed form is a rendering
of that one node list (:func:`_render`): a registered op is the line
``r = k<i>(args)``, a constant, a variable access and a heap read of a
receiver on an edge are line templates of their own, and a closure node
is a call of its closure, so all instruction-kind dispatch happens at
compile time and a node's run-time semantics are written once.  There
are three renderings: the *in-order* program an untraced run calls,
with intermediates in locals; the *level form* the level schedule runs
(:meth:`GraphExecutor._compile_levels`); and the *traced* program, the
in-order lines with one level-2 ``op`` event after each node, rendered
on the first level-2 run.  A nested call (invoke, cond, while_loop,
replay_grad) is a *call site*: its closure pins the callee on first run
and calls a function generated for that pin, so a warm nested run costs
an identity test and a few calls.  This is the one execution tier; the
JANUS path and the symbolic baseline share it.  Three properties
reproduce the paper's execution model:

* **Low per-op overhead** — running an op costs its kernel call plus
  list indexing, unlike the eager executor's full dispatch path.  This
  is the BASE speedup of figure 7 and the "only residual cost is
  checking the assumptions" claim of section 4.3.
* **Deferred, all-or-nothing state updates** (section 4.2.3) — variable
  assignments and Python-heap writes go to per-run *local copies*; the
  Python heap is only mutated in the commit phase after every assertion
  has passed, so an :class:`~repro.errors.AssumptionFailed` abort never
  leaves partial state behind and fallback is always safe.
* **Inter-op parallelism** (+PARL of figure 7) — an optional level-wise
  schedule runs each op of a candidate level rendered alone, on a
  thread pool (numpy kernels release the GIL for the heavy lifting),
  but only for the levels where the executor *measured* the fan-out to
  be clearly faster than running the level in order; everywhere else
  it stands aside.

See docs/compilation.md ("Mechanism 4: the executed form").
"""

import itertools
import linecache
import threading
import time
import types
import weakref
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .. import host
from ..errors import AssumptionFailed, ExecutionError, GraphError
from ..observability import COUNTERS, METRICS, TRACER
from ..tensor import PyRef, Shape, TensorValue
from .core import EFFECT_OPS

_POOL_LOCK = threading.Lock()
_POOL = None


def _shared_pool():
    global _POOL
    pool = _POOL
    if pool is None:
        with _POOL_LOCK:
            if _POOL is None:
                _POOL = ThreadPoolExecutor(max_workers=host.usable_cpus(),
                                           thread_name_prefix="repro-graph")
            pool = _POOL
    return pool


class RunState:
    """Per-top-level-run mutable state shared with nested subgraph runs."""

    __slots__ = ("var_local", "py_local", "receivers", "py_read_cache")

    def __init__(self):
        self.var_local = {}        # Variable -> np.ndarray (local copy)
        self.py_local = {}         # (id(obj), kind, key) -> raw value
        #: id(obj) -> obj for every receiver of a ``py_local`` write,
        #: whichever (nested) executor ran it; held for this run only.
        self.receivers = {}
        #: (id(obj), kind, key) -> internalized heap read.  Heap state is
        #: stable within a run (writes go to py_local, which shadows this
        #: cache), so a slot read again in the run — by every iteration of
        #: a loop body, or every call of a recursive function that reads
        #: one model attribute — skips getattr/convert/assumption checking.
        self.py_read_cache = {}

    def commit(self):
        """Write local copies back to variables and the Python heap."""
        for variable, array in self.var_local.items():
            variable.storage = TensorValue(array, variable.dtype)
            variable.version += 1
        receivers = self.receivers
        for (obj_id, kind, key), raw in self.py_local.items():
            obj = receivers[obj_id]
            value = _externalize(raw)
            if kind == "attr":
                setattr(obj, key, value)
            else:
                obj[key] = value


_Tensor = None
_Variable = None


def _lazy_types():
    global _Tensor, _Variable
    if _Tensor is None:
        from ..imperative.eager import Tensor
        from ..imperative.variable import Variable
        _Tensor = Tensor
        _Variable = Variable
    return _Tensor, _Variable


def _externalize(raw):
    """Convert an executor-internal value into user-facing form."""
    tensor_cls, _ = _lazy_types()
    if isinstance(raw, PyRef):
        return raw.obj
    if isinstance(raw, np.ndarray):
        return tensor_cls(TensorValue.of(raw))
    return raw


_MEMO_SAFE = None


#: Counted where the memo is consulted: a counter takes no lock.
_MEMO_HIT = COUNTERS.labels("executor.memo_hit")
_MEMO_STALE = COUNTERS.labels("executor.memo_stale")
#: Bumped once per candidate level, when its measured verdict lands.
_LEVELS_PARALLEL = COUNTERS.labels("executor.levels_parallel")
_LEVELS_SEQUENTIAL = COUNTERS.labels("executor.levels_sequential")
_GRAPH_RUN = METRICS.histogram(
    "janus_graph_run_seconds",
    "Top-level compiled-graph executions.").labels()
_GUARD_CHECK = METRICS.histogram(
    "janus_guard_check_seconds",
    "Individual runtime assumption checks inside the executor.").labels()


def _memo_safe_types():
    """Types whose identity *alone* pins internal form and guard verdict.

    The py_get identity memo may only skip re-internalization and
    re-checking when ``value is memo[0]`` implies the internalized form
    and the guard outcome are unchanged.  That holds for immutable
    scalars and for Variable (internalized to a PyRef that reads through
    to current storage; its guard only checks the type name).  It does
    NOT hold for lists or dicts — in-place mutation preserves identity
    while changing content, which would let a stale memo bypass the
    assumption guard.  Tensors / TensorValues / ndarrays are handled
    separately by the version-stamped memo in ``_compile_py_get``, whose
    hit test additionally compares the write-barrier version and the
    buffer's shape and dtype (see docs/compilation.md#write-barrier).
    """
    global _MEMO_SAFE
    if _MEMO_SAFE is None:
        _, variable_cls = _lazy_types()
        _MEMO_SAFE = frozenset([bool, int, float, complex, str, bytes,
                                type(None), variable_cls])
    return _MEMO_SAFE


def _internalize_sequence(value):
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError):
        return PyRef(value)
    if arr.dtype.kind in "bif":
        if arr.dtype == np.float64:
            arr = arr.astype(np.float32)
        return arr
    return PyRef(value)


def _same(value):
    return value


#: ``(exact-type dict, isinstance tuple, ordered chain)`` over the same
#: ``(base, converter)`` pairs; one object, so a reader sees all three or
#: none.  Built on first use: the eager types import lazily.
_CONVERSIONS = None


def _build_conversions():
    global _CONVERSIONS
    tensor_cls, variable_cls = _lazy_types()
    asarray = np.asarray
    # Precedence order: ``bool`` before ``int``; python ``float`` —
    # which ``np.float64`` subclasses — before the numpy scalars.
    chain = (
        (tensor_cls, lambda v: v.value.array),
        (TensorValue, lambda v: v.array),
        (PyRef, _same),
        (variable_cls, PyRef),
        (bool, lambda v: asarray(v, np.bool_)),
        (int, lambda v: asarray(v, np.int64)),
        # Framework conversion rules: python floats are float32.
        (float, lambda v: asarray(v, np.float32)),
        (np.bool_, asarray),
        (np.integer, asarray),
        (np.floating, asarray),
        (np.ndarray, _same),
        (list, _internalize_sequence),
        (tuple, _internalize_sequence),
    )
    _CONVERSIONS = (dict(chain), tuple(base for base, _ in chain), chain)
    return _CONVERSIONS


def _internalize(value):
    """Convert a heap/user value into executor-internal form.

    Dispatches on the exact type; a subclass of a convertible type takes
    the first ``isinstance`` match in precedence order, and anything
    else — the common case on dynamic heap reads, e.g. a tree node — is
    wrapped in a :class:`PyRef` after one ``isinstance`` call.
    """
    exact, bases, chain = _CONVERSIONS or _build_conversions()
    convert = exact.get(type(value))
    if convert is not None:
        return convert(value)
    if isinstance(value, bases):
        for base, convert in chain:
            if isinstance(value, base):
                return convert(value)
    return PyRef(value)


def _truth(pred):
    """``bool(np.all(pred))`` without its three ``fromnumeric`` frames."""
    return bool(pred) if pred.size == 1 else bool(pred.all())


#: Exact types that already are executor-internal form.
_INTERNAL = (np.ndarray, PyRef)

#: Adjacent (in order, fanned out) timings a candidate level gets, and
#: the share of the in-order time the fan-out has to save in every one
#: of them to be kept — above this host's run-to-run noise.
_TRIALS = 3
_MARGIN = 0.30


class _Level:
    """One step of the level schedule: a rendered run of in-order levels
    (verdict False, one function), or a candidate fan-out level — the
    one-node renderings of its ops — and the evidence."""

    __slots__ = ("fns", "nodes", "dead", "verdict", "trials", "seq")

    def __init__(self, fns, nodes, dead, verdict=None):
        self.fns = fns
        #: The scheduled nodes it runs.
        self.nodes = nodes
        #: The slots to drop once it ran: no later level reads them.
        self.dead = dead
        #: None while measuring; then whether the fan-out is kept.
        self.verdict = verdict
        self.trials = 0
        #: In-order time of the pair being measured.
        self.seq = 0.0


def _run_level(fns, fan_out, values, run_state):
    if not fan_out:
        for fn in fns:
            fn(values, run_state)
        return
    pool = _shared_pool()
    futures = [pool.submit(fn, values, run_state) for fn in fns]
    wait(futures)
    # Submission order is schedule order: when several ops of one
    # level fail, raise what the sequential schedule would have raised.
    for future in futures:
        exc = future.exception()
        if exc is not None:
            raise exc


class GraphExecutor:
    """A compiled, reusable program for one graph: its scheduled nodes
    and their renderings."""

    def __init__(self, graph, parallel=False):
        self.graph = graph
        #: Whether runs go level by level.  A request, not a
        #: promise: it needs more than one usable CPU and a level with
        #: two heavy ops to start with, and turns False for good once
        #: every such level has been measured and none kept its fan-out.
        self.parallel = parallel and host.usable_cpus() > 1
        #: The levels the schedule measures (:class:`_Level`); empty
        #: unless ``parallel`` was asked for and possible.
        self._candidates = ()
        self._compile()

    @property
    def instruction_count(self):
        return len(self._entries)

    def __repr__(self):
        return "GraphExecutor(%s, %d instructions, " \
            "%d/%d levels parallel)" % (
                self.graph.name, len(self._entries),
                sum(1 for level in self._candidates if level.verdict),
                len(self._candidates))

    # -- compilation -------------------------------------------------------

    #: Nodes whose values a replayed forward iteration supplies (see
    #: :class:`_ReplayExecutor`): they are not scheduled and get no new
    #: slot.
    _bound = {}
    #: Whether the rendered program stores every result to the register
    #: file.  True for a body :func:`_function_executor` builds: a
    #: caller's record may copy any slot of its file.
    _keeps_stores = False

    def _live(self):
        return self.graph.live_nodes()

    def _computed_outputs(self):
        return self.graph.outputs

    def _bound_slots(self):
        """``(slot map, slot count)`` before the program's own slots."""
        return {}, 0

    def _compile(self):
        graph = self.graph
        live = self._live()
        order = [n for n in graph.topological_order() if n in live]
        #: The nodes this program computes or binds; a replay of this
        #: executor's iterations binds only clones of these.
        self._live_nodes = live
        bound = self._bound
        self._slots, slot_count = self._bound_slots()
        for node in order:
            if node in bound:
                continue
            keys = [(id(node), out.index) for out in node.outputs]
            if node.attrs.get("record_grad"):
                keys.append((id(node), _RECORD))
            for key in keys:
                self._slots[key] = slot_count
                slot_count += 1
        self._slot_count = slot_count

        #: The scheduled nodes, in schedule order, each as ``(node,
        #: closure, in_slots, out_slots, kernel)``: a registered op's
        #: ``kernel`` is ``op_def.bind(attrs)``, and ``closure`` is None
        #: but for the nodes :meth:`_compile_node` builds one for.  Every
        #: rendering (:func:`_render`) writes this one list.
        self._entries = entries = []
        self._placeholder_slots = {}
        for node in order:
            if node in bound or node.op_name == "group":
                continue    # a group only orders its inputs
            in_slots = tuple(self._slots[(id(i.node), i.index)]
                             for i in node.inputs)
            out_slots = tuple(self._slots[(id(node), out.index)]
                              for out in node.outputs)
            if node.op_name == "placeholder":     # filled by feed binding
                self._placeholder_slots[node.attrs["ph_name"]] = out_slots[0]
                continue
            kernel = fn = None
            if node.op_def is not None:
                kernel = node.op_def.bind(node.attrs)
            else:
                fn = self._compile_node(node, in_slots, out_slots)
            entries.append((node, fn, in_slots, out_slots, kernel))
        self._ph_slot_order = [
            self._placeholder_slots[node.attrs["ph_name"]]
            for node in graph.placeholders if node not in bound]
        self._output_slots = [self._slots[(id(o.node), o.index)]
                              for o in self._computed_outputs()]
        #: Aligned with _entries: whether the in-order and traced
        #: renderings store the node's result to the register file.
        self._stores = self._store_plan(entries)
        #: Ops whose result the rendered program keeps only in a local.
        self.local_ops = sum(
            1 for (node, *_), store in zip(entries, self._stores)
            if not store and node.op_name != "constant")
        #: The in-order rendering, what an untraced run calls.
        self._rendered = _render(entries, self._stores)
        #: The traced rendering, made by the first level-2 run.
        self._traced = None
        if self.parallel:
            self._compile_levels(order, entries)

    def _store_plan(self, entries):
        """For each scheduled node, whether the in-order program stores
        its result to the register file.  A node whose result cannot
        live in a local (:func:`_local_result`) always does.  One that
        can does when its result is an output, when a node of the other
        kind reads it, or when a line of a later region reads it
        (:data:`_REGION_OPS`), and always under ``_keeps_stores``;
        otherwise later lines of its own region read it from a local."""
        stored = set(self._output_slots)
        made = {}   # slot of a local-able result -> the region that made it
        regions = []
        for i, (node, _, in_slots, out_slots, _) in enumerate(entries):
            region = i // _REGION_OPS \
                if _local_result(node, out_slots) else None
            for slot in in_slots:
                if slot in made and made[slot] != region:
                    stored.add(slot)
            if region is not None:
                made[out_slots[0]] = region
            regions.append(region)
        return [self._keeps_stores or region is None or outs[0] in stored
                for region, (_, _, _, outs, _) in zip(regions, entries)]

    def _compile_node(self, node, in_slots, out_slots):
        """The closure of a node other than a registered op, for the
        nodes a rendering calls one for: a static heap read, a heap
        write, a Python call and a call site.  None for a constant, a
        variable access and a heap read of a receiver on an edge, which
        :func:`_render_region` writes as lines."""
        op = node.op_name
        if op in ("constant", "var_read", "var_assign"):
            return None
        if op in ("py_get_attr", "py_get_subscr"):
            return None if node.py_object is None \
                else self._compile_py_get(node, out_slots)
        if op in ("py_set_attr", "py_set_subscr"):
            return self._compile_py_set(node, in_slots, out_slots)
        if op == "py_call":
            return self._compile_py_call(node, in_slots, out_slots)
        if op in ("invoke", "cond"):
            return self._compile_call(node, in_slots, out_slots)
        if op == "while_loop":
            return self._compile_while(node, in_slots, out_slots)
        if op == "replay_grad":
            return self._compile_replay_grad(node, in_slots, out_slots)
        raise GraphError("cannot compile node %s" % node.debug_name)

    def _compile_py_get(self, node, out_slots):
        """Specialize one static heap read into a precompiled closure.

        The object, key, guard check and output slot are all bound at
        compile time, so a run costs two dict probes plus (at most) one
        getattr.  A per-node identity memo additionally skips
        re-internalizing and re-checking a value that was already
        validated on an earlier run.  Immutable scalars
        and PyRef wrappers hit on identity alone; Tensor-typed reads
        (``memo[2]`` non-None) also require an unchanged write-barrier
        version stamp plus the buffer's shape and dtype — the version
        catches sanctioned in-place writes and COW rebinds, the
        shape/dtype compare re-proves the guard for metadata mutation
        that ``writeable=False`` cannot intercept (``a.shape = ...``).
        A hit returns the *live* buffer, so content stays aliased
        exactly as on the slow path (tensor guards never pin content).
        """
        kind = "attr" if node.op_name == "py_get_attr" else "subscr"
        key = node.attrs["name"] if kind == "attr" else node.attrs["key"]
        check = _compile_expected_check(node.attrs.get("expected"), node)
        out_slot = out_slots[0]
        obj = node.py_object.obj
        local_key = (id(obj), kind, key)
        memo_safe = _memo_safe_types()
        tensor_cls, _ = _lazy_types()
        # Single-cell publication: the memo holds one immutable tuple
        # (value, raw, None | (tv-or-None, version, shape, dtype)) or
        # None.  Concurrent runs share this closure, so the entry is
        # read once and published in one store — readers can never see
        # a value from one validation paired with the raw form of
        # another (the old three-slot layout could tear that way).
        memo = [None]
        internalize = _internalize
        ndarray = np.ndarray
        if kind == "attr":
            def fetch(obj=obj, key=key):
                return getattr(obj, key)
        else:
            def fetch(obj=obj, key=key):
                return obj[key]

        def run_get(values, run_state, fetch=fetch, local_key=local_key,
                    check=check, memo=memo, out_slot=out_slot,
                    hit=_MEMO_HIT.inc, stale=_MEMO_STALE.inc):
            raw = run_state.py_local.get(local_key)
            if raw is None:
                raw = run_state.py_read_cache.get(local_key)
                if raw is None:
                    value = fetch()
                    entry = memo[0]
                    if entry is not None and value is entry[0]:
                        state = entry[2]
                        if state is None:
                            raw = entry[1]
                            hit()
                        else:
                            tv = state[0]
                            arr = value if tv is None else tv.array
                            if (tv is None
                                    or (tv.version == state[1]
                                        and (value is tv
                                             or value.value is tv))) \
                                    and arr.shape == state[2] \
                                    and arr.dtype is state[3]:
                                raw = arr
                                hit()
                            else:
                                stale()
                    elif entry is not None:
                        stale()
                    if raw is None:
                        raw = internalize(value)
                        if check is not None:
                            _run_check(check, raw)
                        t = type(value)
                        if t in memo_safe:
                            memo[0] = (value, raw, None)
                        else:
                            if t is tensor_cls:
                                tv = value.value
                            elif t is TensorValue:
                                tv = value
                            else:
                                tv = None
                            if (tv is not None and tv.track()) \
                                    or t is ndarray:
                                memo[0] = (
                                    value, raw,
                                    (tv, 0 if tv is None else tv.version,
                                     raw.shape, raw.dtype))
                    run_state.py_read_cache[local_key] = raw
            values[out_slot] = raw
        return run_get

    def _compile_py_set(self, node, in_slots, out_slots):
        kind = "attr" if node.op_name == "py_set_attr" else "subscr"
        key = node.attrs["name"] if kind == "attr" else node.attrs["key"]
        static_obj = None if node.py_object is None else node.py_object.obj
        dyn_slot = in_slots[0]
        value_slot = in_slots[-1]
        out_slot = out_slots[0]

        def run_set(values, run_state):
            obj = static_obj if static_obj is not None \
                else values[dyn_slot].obj
            run_state.py_local[(id(obj), kind, key)] = values[value_slot]
            run_state.receivers[id(obj)] = obj
            values[out_slot] = PyRef(obj)
        return run_set

    @staticmethod
    def _compile_py_call(node, in_slots, out_slots):
        fn = node.py_object.obj
        single = out_slots[0] if len(out_slots) == 1 else None

        def run_call(values, run_state):
            result = fn(*[_externalize(values[s]) for s in in_slots])
            # An arbitrary Python call may mutate the heap (the naive
            # state-update ablation does): cached reads are now stale.
            run_state.py_read_cache.clear()
            if single is not None:
                values[single] = _internalize(result)
            else:
                for slot, r in zip(out_slots, result):
                    values[slot] = _internalize(r)
        return run_call

    # Each invoke, cond, while_loop and replay_grad node is a call site:
    # a closure that pins its callee on first run (a recursive callee may
    # be the executor still compiling) and calls the function generated
    # for the pin.  A warm run checks the pin by identity against the
    # callee graph's ``_executor_cache``, which graph mutation clears.  A
    # pin is one immutable tuple, published in one store.

    def _compile_call(self, node, in_slots, out_slots):
        """An invoke, or a cond: a call of the branch its predicate
        picks.  One whose gradient is taken keeps, in its record slot,
        ``(callee executor, [record], gradient of the callee)``; the
        record holds the values of the callee's register file that the
        gradient ``record_grad`` reads (per branch for a cond;
        :func:`_record_layout`).  A cond pins each branch apart."""
        record_slot = self._slots.get((id(node), _RECORD))
        grads = node.attrs.get("record_grad")
        if node.op_name == "cond":
            pred_slot, arg_slots = in_slots[0], in_slots[1:]
            funcs = (node.branches["true"], node.branches["false"])
            grads = (grads or {}).get("true"), (grads or {}).get("false")
        else:
            pred_slot, arg_slots = None, in_slots
            funcs, grads = (node.func,), (grads,)
        pins = [None] * len(funcs)

        def pin_call(k):
            callee = _function_executor(funcs[k])
            layouts = None if record_slot is None \
                else grads[k].graph._executor_cache
            entry = None if layouts is None \
                else _record_layout(grads[k], callee)
            pins[k] = pin = (
                funcs[k].graph._executor_cache, callee, layouts, entry,
                _call_site(callee, arg_slots, out_slots, record_slot,
                           entry, grads[k]))
            return pin

        def run_call(values, run_state):
            k = 0 if pred_slot is None or _truth(values[pred_slot]) else 1
            pin = pins[k]
            if pin is None or pin[0].get("nested") is not pin[1] \
                    or (pin[2] is not None
                        and pin[2].get("record") is not pin[3]):
                pin = pin_call(k)
            pin[4](values, run_state)
        return run_call

    def _compile_while(self, node, in_slots, out_slots):
        """A loop.  One whose gradient is taken keeps, in its record
        slot, ``(body executor, [record per iteration], body gradient)``
        (as :meth:`_compile_call` does for one call)."""
        cond_func = node.attrs["cond_func"]
        body_func = node.attrs["body_func"]
        grad = node.attrs.get("record_grad")
        record_slot = self._slots.get((id(node), _RECORD))
        max_iters = node.attrs.get("max_iterations", 1_000_000)
        pins = [None]

        def pin_while():
            cond = _function_executor(cond_func)
            body = _function_executor(body_func)
            layouts = None if record_slot is None \
                else grad.graph._executor_cache
            entry = None if layouts is None else _record_layout(grad, body)
            pins[0] = pin = (
                cond_func.graph._executor_cache, cond,
                body_func.graph._executor_cache, body, layouts, entry,
                _loop_site(cond, body, in_slots, out_slots, record_slot,
                           entry, grad, max_iters))
            return pin

        def run_while(values, run_state):
            pin = pins[0]
            if pin is None or pin[0].get("nested") is not pin[1] \
                    or pin[2].get("nested") is not pin[3] \
                    or (pin[4] is not None
                        and pin[4].get("record") is not pin[5]):
                pin = pin_while()
            pin[6](values, run_state)
        return run_while

    def _compile_replay_grad(self, node, in_slots, out_slots):
        """Backprop through an invoke, cond or loop: the callee's
        gradient runs once per record its forward node kept, last first
        (:class:`_ReplayExecutor`), fed the adjoints of the float outputs.
        It computes only the outputs something reads; the others stay
        unset.  Only a loop threads adjoints: output ``k`` of the
        gradient of one iteration, for each loop variable ``k`` it
        depends on, is the incoming adjoint ``k`` of the one before
        (:func:`_adjoint_closure`), and a loop that ran zero times gives
        zero variable gradients.  One pin per gradient function."""
        forward = node.attrs["forward_node"]
        record_slot = self._slots.get((id(forward), _RECORD))
        reads = self._read_outputs(node)
        grads = forward.attrs["record_grad"]
        grads = (grads["true"], grads["false"]) \
            if forward.op_name == "cond" else (grads,)
        if forward.op_name == "while_loop":
            n_carried = len(in_slots)
            wanted = _adjoint_closure(grads[0].graph, len(forward.inputs),
                                      n_carried, reads)
        else:
            n_carried = 0
            wanted = tuple(sorted(reads))
        # A loop that ran zero times adds nothing: zeros of the
        # variable's own shape, so a scalar Variable stays a scalar.
        zeros = {i: (node.outputs[i].shape.as_tuple(),
                     node.outputs[i].dtype.np_dtype)
                 for i in wanted if i >= n_carried} if n_carried else {}
        key = ("replay", wanted)
        pins = [None] * len(grads)

        def pin_replay(k, callee):
            cache = grads[k].graph._executor_cache
            replay = cache.get(key)
            if replay is None or replay.forward is not callee:
                replay = cache[key] = _ReplayExecutor(grads[k], callee,
                                                      wanted)
            pins[k] = pin = (callee, cache, replay, _replay_site(
                replay, in_slots, out_slots, record_slot, n_carried, zeros))
            return pin

        def run_replay_grad(values, run_state):
            record = None if record_slot is None else values[record_slot]
            if record is None:
                raise ExecutionError("replay_grad has no record of %s"
                                     % forward.debug_name)
            callee, _, grad = record
            k = 0 if grad is grads[0] else 1
            pin = pins[k]
            if pin is None or pin[0] is not callee \
                    or pin[1].get(key) is not pin[2]:
                pin = pin_replay(k, callee)
            pin[3](values, run_state)
        return run_replay_grad

    def _read_outputs(self, node):
        """Indices of ``node``'s outputs that a live node or a graph
        output of this program reads."""
        reads = {out.index for out in self._computed_outputs()
                 if out.node is node}
        for consumer in self._live_nodes:
            reads.update(i.index for i in consumer.inputs if i.node is node)
        return reads

    #: Ops heavy enough that a level holding two of them is worth
    #: measuring fanned out.
    _HEAVY_OPS = frozenset([
        "matmul", "conv2d", "conv2d_transpose", "conv2d_input_grad",
        "conv2d_filter_grad", "max_pool", "max_pool_grad", "avg_pool",
        "avg_pool_grad", "invoke", "gather_grad",
    ])

    def _compile_levels(self, order, entries):
        """The level form: the program grouped into dependency levels.

        A level with at least two *heavy* instructions is a candidate
        for the thread pool, not a fan-out: inter-op parallelism only
        pays for coarse, concurrently executable kernels (paper section
        6.3.1), and neither the CPU count nor the op names say whether
        these are — so each candidate is measured both ways over its
        first runs (:meth:`_trial`) and fans out only if that clearly
        won.  Every other level runs in order.  Without a candidate the
        executor is not parallel, and nothing more is rendered.

        Levels follow state as well as edges (TensorFlow's automatic
        control dependencies): a write of a state lands after every
        earlier access of it in program order and before every later
        one, so no level reorders a write past a read, either way.

        Each maximal run of in-order levels is one rendering
        (:func:`_render`), and each op of a candidate level is rendered
        alone, a closure node being its own rendering.  Every result is
        stored, and each slot no later level reads is dropped once its
        last level ran — by a line of the run, or after the candidate
        (``_Level.dead``): a replay reads its forward's record, and an
        output is never dropped.
        """
        node_level = {}
        last_write = {}     # state -> level of its latest write
        last_access = {}    # state -> highest level touching it so far
        for node in order:
            deps = [i.node for i in node.inputs] + list(node.control_inputs)
            lvl = 0
            for dep in deps:
                lvl = max(lvl, node_level.get(dep, -1) + 1)
            reads, writes = _state_accesses(node, set())
            for state in reads:
                lvl = max(lvl, last_write.get(state, -1) + 1)
            for state in writes:
                lvl = max(lvl, last_access.get(state, -1) + 1)
            for state in reads | writes:
                last_access[state] = max(last_access.get(state, -1), lvl)
            for state in writes:
                last_write[state] = lvl
            node_level[node] = lvl
        by_level = {}
        for entry in entries:
            by_level.setdefault(node_level[entry[0]], []).append(entry)
        levels = [by_level[key] for key in sorted(by_level)]
        candidate = [sum(1 for entry in level
                         if entry[0].op_name in self._HEAVY_OPS) >= 2
                     for level in levels]
        if not any(candidate):
            self.parallel = False
            return
        last = {}   # slot -> index of the last level that makes or reads it
        for index, level in enumerate(levels):
            for node, _, in_slots, out_slots, _ in level:
                touched = [*in_slots, *out_slots,
                           self._slots.get((id(node), _RECORD))]
                if node.op_name == "replay_grad":
                    touched.append(self._slots.get(
                        (id(node.attrs["forward_node"]), _RECORD)))
                for slot in touched:
                    last[slot] = index
        dead = [[] for _ in levels]
        outputs = set(self._output_slots)
        for slot, index in last.items():
            if slot is not None and slot not in outputs:
                dead[index].append(slot)
        #: In dependency order: :class:`_Level` steps.
        self._levels = []
        for fan, steps in itertools.groupby(zip(levels, candidate, dead),
                                            key=lambda step: step[1]):
            if fan:
                self._levels += [_Level(
                    [entry[1] if entry[1] is not None
                     else _render_region([entry], (True,))
                     for entry in level],
                    [entry[0] for entry in level], gone)
                    for level, _, gone in steps]
                continue
            run, drops = [], []
            for level, _, gone in steps:
                run += level
                drops += [()] * (len(level) - 1) + [gone]
            self._levels.append(_Level(
                [_render(run, [True] * len(run), drops)],
                [entry[0] for entry in run], (), verdict=False))
        self._candidates = [level for level in self._levels
                            if level.verdict is None]

    # -- execution ------------------------------------------------------------

    def run(self, feeds=()):
        """Execute the graph as one top-level run.

        ``feeds`` is a sequence of values bound positionally to the
        graph's placeholders.  Returns the list of output values
        (numpy arrays, or the wrapped object for PyRef outputs is kept as
        PyRef — callers externalize) and commits the deferred state
        updates on success.  Nested bodies run through their call
        sites (:meth:`_compile_call`), which share the caller's run
        state and never commit.
        """
        run_state = RunState()
        run_start = time.perf_counter() \
            if (TRACER.level or METRICS.enabled) else 0.0
        values = self._bind(feeds)
        if self.parallel:
            self._run_levels(values, run_state)
        elif TRACER.level >= 2:
            self._run_traced(values, run_state)
        else:
            self._rendered(values, run_state)

        outputs = [values[s] for s in self._output_slots]
        run_state.commit()
        if TRACER.level:
            TRACER.complete("op", "run:%s" % self.graph.name,
                            run_start,
                            time.perf_counter() - run_start,
                            instructions=len(self._entries),
                            parallel=self.parallel)
        if METRICS.enabled and run_start:
            _GRAPH_RUN.observe(time.perf_counter() - run_start)
        return outputs

    def _bind(self, feeds):
        """Fresh slots with ``feeds`` internalized on the placeholders."""
        ph_slots = self._ph_slot_order
        if len(feeds) != len(ph_slots):
            raise ExecutionError("graph %s expects %d feeds, got %d"
                                 % (self.graph.name, len(ph_slots),
                                    len(feeds)))
        values = [None] * self._slot_count
        for slot, value in zip(ph_slots, feeds):
            values[slot] = value if type(value) in _INTERNAL \
                else _internalize(value)
        return values

    def _run_traced(self, values, run_state):
        """The in-order program with one level-2 ``op`` event after each
        scheduled node: its rendering is made on the first level-2 run
        and published in one store."""
        traced = self._traced
        if traced is None:
            traced = self._traced = _render(self._entries, self._stores,
                                            graph=self.graph.name)
        traced(values, run_state)

    def _run_levels(self, values, run_state):
        """Run level by level; level-2 tracing gets one ``level`` event
        per step (trials carry ``trial="seq"|"par"``)."""
        trace = TRACER.level >= 2
        for index, level in enumerate(self._levels):
            start = time.perf_counter() if trace else 0.0
            trial = {}
            fan_out = level.verdict
            if fan_out is None:
                fan_out = self._trial(level, values, run_state)
                trial = {"trial": "par" if fan_out else "seq"}
            else:
                _run_level(level.fns, fan_out, values, run_state)
            for slot in level.dead:
                values[slot] = None
            if trace:
                TRACER.complete("level", "L%d" % index, start,
                                time.perf_counter() - start, level=2,
                                graph=self.graph.name,
                                instructions=len(level.nodes),
                                parallel=fan_out, **trial)

    def _trial(self, level, values, run_state):
        """One timed run of an undecided level.

        Returns whether this one fanned out: trials alternate, in
        schedule order first, and each fanned-out one is compared with
        the in-order one before it.  The first pair the fan-out does not
        win by the margin settles the level in order; ``_TRIALS`` pairs
        won keep the fan-out.  The verdict state is plain attributes
        without a lock: concurrent runs may repeat or lose a trial (and,
        landing one verdict at once, count it twice), never get a wrong
        result — both schedules run the same renderings on the same
        slots.  A trial in which one raised never reaches the
        bookkeeping, so it is not counted.
        """
        fan_out = bool(level.trials & 1)
        start = time.perf_counter()
        _run_level(level.fns, fan_out, values, run_state)
        elapsed = time.perf_counter() - start
        level.trials += 1
        if not fan_out:
            level.seq = elapsed
        elif elapsed >= level.seq * (1.0 - _MARGIN):
            self._decide(level, False)
        elif level.trials >= 2 * _TRIALS:
            self._decide(level, True)
        return fan_out

    def _decide(self, level, keep):
        if level.verdict is None:
            level.verdict = keep
            (_LEVELS_PARALLEL if keep else _LEVELS_SEQUENTIAL).inc()
        # No level measuring or kept: leave the level schedule for good.
        if all(level.verdict is False for level in self._candidates):
            self.parallel = False


def _constant_raw(node):
    """The value a constant node stores, in executor-internal form."""
    value = node.constant_value
    return value.array if isinstance(value, TensorValue) else value


#: Numbers the linecache names of rendered programs.
_RENDER_COUNTER = itertools.count()

#: The most scheduled nodes one generated function of a rendered
#: program holds.  ``compile()`` keeps a few KB per generated line until
#: it returns, so a long program (an unrolled LSTM renders 1,700 lines)
#: compiles region by region.
_REGION_OPS = 200

#: ``source text -> (code object, linecache name)``.  Rendered source
#: is byte-identical for identical structure (bound kernels, constants,
#: variables and closures are parameters, not literals), and structures
#: repeat — the same model built again, per-topology TreeNN
#: regenerations — so compiling each text once cuts the dominant cost of
#: generating code.
#: Bounded crudely: emptied when it outgrows _CODE_CACHE_MAX sources.
#: Locked: functions compile concurrently (each under its own compile
#: lock), and the clear-then-store sequence must not interleave.
_CODE_CACHE = {}
_CODE_CACHE_MAX = 512
_CODE_CACHE_LOCK = threading.Lock()


def compile_cached(source):
    """The code of generated ``source``, compiled once per text.

    A new source is registered in :mod:`linecache` under a fresh
    ``<janus-render-N>`` name for as long as the code that runs it
    lives, so tracebacks and profilers show its lines whether or not the
    cache still holds it.
    """
    with _CODE_CACHE_LOCK:
        cached = _CODE_CACHE.get(source)
        if cached is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.clear()
            name = "<janus-render-%d>" % next(_RENDER_COUNTER)
            code = compile(source, name, "exec")
            linecache.cache[name] = (len(source), None,
                                     source.splitlines(True), name)
            weakref.finalize(_innermost(code), linecache.cache.pop, name,
                             None)
            cached = _CODE_CACHE[source] = (code, name)
    return cached[0]


def _innermost(code):
    """The code of the innermost function ``code`` defines: what runs."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            return _innermost(const)
    return code


def _local_result(node, out_slots):
    """Whether :func:`_render_region` may keep ``node``'s result in a
    local: a constant's, or a single-output registered op's."""
    return node.op_name == "constant" or (
        node.op_def is not None and len(out_slots) == 1)


def _render(entries, stores, drops=None, graph=None):
    """The program ``entries`` as one generated ``_rendered(v, rs)``.

    ``entries`` holds :attr:`GraphExecutor._entries` tuples in schedule
    order, and ``stores`` says for each whether its result must land in
    the register file ``v`` (:meth:`GraphExecutor._store_plan`).  A
    registered op becomes the line ``r = k<i>(args)``, a call of its
    bound kernel, and a coercion of each result to an ndarray into its
    slot.  A single-output op's result goes to ``v`` if ``store`` says
    so, and to a local if a later line of its region reads it; the local
    is deleted after the last line that reads it.  A constant is read by
    its binding's name; a variable read reads the run's local copy
    (``rs.var_local``), else the variable's stored array, and a variable
    write writes the local copy; a heap read of a receiver on an edge is
    the lines of :func:`_dynamic_get_lines`.  Every other node — call
    sites included — is a call of its closure, which reads and writes
    ``v``.  ``drops``, aligned with ``entries`` if given, names the
    slots set to None after each node.  Given a ``graph`` name, one
    level-2 ``op`` event follows each node, timing it.

    Each region of at most :data:`_REGION_OPS` nodes is one generated
    function; one more calls them in order when there are several.
    Kernels, constants, variables, closures and regions are parameters
    of a binding function named by position, so programs of one
    structure render the same source and share one code object
    (:func:`compile_cached`).
    """
    regions = [_render_region(entries[k:k + _REGION_OPS],
                              stores[k:k + _REGION_OPS],
                              drops and drops[k:k + _REGION_OPS], graph)
               for k in range(0, len(entries), _REGION_OPS)]
    if len(regions) == 1:
        return regions[0]
    names = ["r%d" % k for k in range(len(regions))]
    return _generate(names, regions, [name + "(v, rs)" for name in names])


def _render_region(entries, stores, drops=None, graph=None):
    """One region of :func:`_render`'s program, as its function."""
    last = {}   # slot -> the last local-able line of the region reading it
    for i, (node, _, in_slots, out_slots, _) in enumerate(entries):
        if _local_result(node, out_slots):
            for slot in in_slots:
                last[slot] = i
    params = ["_nd", "_as", "_PR", "_EE", "_in", "_rc"]
    bindings = [np.ndarray, np.asarray, PyRef, ExecutionError,
                _internalize, _run_check]
    if graph is not None:
        params += ["_pc", "_tc", "_gn"]
        bindings += [time.perf_counter, TRACER.complete, graph]
    body = []
    names = {}       # slot -> the local or binding a line reads it by
    local = set()    # slots held in a local
    for i, ((node, fn, in_slots, out_slots, kernel), store) in enumerate(
            zip(entries, stores)):
        op = node.op_name
        if graph is not None:
            body.append("t = _pc()")
        if fn is not None:
            params.append("f%d" % i)
            bindings.append(fn)
            body.append("f%d(v, rs)" % i)
        elif op in ("py_get_attr", "py_get_subscr"):
            body.extend(_dynamic_get_lines(i, node, in_slots, out_slots,
                                           params, bindings))
        elif op in ("var_read", "var_assign"):
            params.append("V%d" % i)
            bindings.append(node.variable)
            if op == "var_read":
                body += ["r = rs.var_local.get(V%d)" % i,
                         "v[%d] = V%d.storage.array if r is None else r"
                         % (out_slots[0], i)]
            else:
                body.append("v[%d] = rs.var_local[V%d] = v[%d]"
                            % (out_slots[0], i, in_slots[0]))
        elif op == "constant":
            slot, = out_slots
            names[slot] = "c%d" % i
            params.append(names[slot])
            bindings.append(_constant_raw(node))
            if store:
                body.append("v[%d] = c%d" % (slot, i))
        else:
            params.append("k%d" % i)
            bindings.append(kernel)
            # A local lives only as long as a local-able line reads it.
            reads = names if len(out_slots) == 1 else {}
            body.append("r = k%d(%s)" % (i, ", ".join(
                reads.get(s, "v[%d]" % s) for s in in_slots)))
            if len(out_slots) != 1:
                for j, slot in enumerate(out_slots):
                    body += ["q = r[%d]" % j,
                             "v[%d] = q if q.__class__ is _nd else _as(q)"
                             % slot]
            else:
                slot, = out_slots
                targets = ["v[%d]" % slot] if store else []
                if last.get(slot, -1) > i:
                    names[slot] = "s%d" % slot
                    local.add(slot)
                    targets.append(names[slot])
                if targets:
                    body.append("%s = r if r.__class__ is _nd else _as(r)"
                                % " = ".join(targets))
                dead = sorted({s for s in in_slots
                               if s in local and last[s] == i})
                if dead:
                    body.append("del " + ", ".join("s%d" % s for s in dead))
        if graph is not None:
            params.append("n%d" % i)
            bindings.append(node.debug_name)
            body.append("_tc('op', %r, t, _pc() - t, level=2, node=n%d, "
                        "graph=_gn)" % (op, i))
        if drops and drops[i]:
            body.append(" = ".join("v[%d]" % s for s in drops[i]) + " = None")
    return _generate(params, bindings, body)


def _generate(params, bindings, body):
    """A generated ``_rendered(v, rs)`` running the lines ``body``, with
    ``params`` bound to ``bindings``."""
    lines = ["def _bind(%s):" % ", ".join(params),
             "    def _rendered(v, rs):"]
    lines.extend("        " + line for line in body or ["pass"])
    lines.append("    return _rendered")
    namespace = {}
    exec(compile_cached("\n".join(lines) + "\n"), namespace)
    return namespace["_bind"](*bindings)


def _feed_lines(file, callee, sources):
    """Lines making ``callee``'s register file, named ``file``, with the
    expressions ``sources`` on its placeholders."""
    slots = callee._ph_slot_order
    if len(sources) != len(slots):
        raise ExecutionError("graph %s expects %d feeds, got %d"
                             % (callee.graph.name, len(slots),
                                len(sources)))
    return ["%s = [None] * %d" % (file, callee._slot_count)] + [
        "%s[%d] = %s" % (file, slot, source)
        for slot, source in zip(slots, sources)]


def _call_site(callee, arg_slots, out_slots, record_slot, entry, grad):
    """The function of an invoke or cond branch pinned to ``callee``:
    its file ``w`` fed from the caller's slots, a call of its program
    (the traced one under level-2 tracing), the record the layout
    ``entry`` names as one list display, and the outputs copied back."""
    body = _feed_lines("w", callee, ["v[%d]" % s for s in arg_slots])
    body.append("(tr if _T.level >= 2 else rd)(w, rs)")
    if entry is not None:
        body.append("v[%d] = (ex, [[%s]], gr)" % (record_slot, ", ".join(
            "w[%d]" % s for s in entry[1])))
    body += ["v[%d] = w[%d]" % pair
             for pair in zip(out_slots, callee._output_slots)]
    return _generate(
        ["_T", "rd", "tr", "ex", "gr"],
        [TRACER, callee._rendered, callee._run_traced, callee, grad], body)


def _loop_site(cond, body_ex, in_slots, out_slots, record_slot, entry,
               grad, max_iters):
    """The function of a loop pinned to ``cond`` and ``body_ex``: the
    loop state in locals ``x0…``; per iteration a call of each program
    over a fresh file, and the record ``entry`` names appended."""
    state = ["x%d" % j for j in range(len(in_slots))]
    loop = _feed_lines("c", cond, state) + [
        "cr(c, rs)", "if not _tr(c[%d]):" % cond._output_slots[0],
        "    break"] + _feed_lines("w", body_ex, state) + ["br(w, rs)"]
    if entry is not None:
        loop.append("recs.append([%s])" % ", ".join(
            "w[%d]" % s for s in entry[1]))
    loop += ["%s = w[%d]" % pair
             for pair in zip(state, body_ex._output_slots)]
    loop += ["n += 1", "if n > mx:",
             "    raise _EE('while_loop exceeded %d iterations' % mx)"]
    body = ["%s = v[%d]" % pair for pair in zip(state, in_slots)]
    body += ["recs = []", "n = 0", "cr = ct if _T.level >= 2 else cd",
             "br = bt if _T.level >= 2 else bd", "while True:"]
    body += ["    " + line for line in loop]
    if entry is not None:
        body.append("v[%d] = (ex, recs, gr)" % record_slot)
    body += ["v[%d] = %s" % pair for pair in zip(out_slots, state)]
    return _generate(
        ["_T", "_tr", "_EE", "cd", "ct", "bd", "bt", "ex", "gr", "mx"],
        [TRACER, _truth, ExecutionError, cond._rendered, cond._run_traced,
         body_ex._rendered, body_ex._run_traced, body_ex, grad, max_iters],
        body)


def _replay_site(replay, in_slots, out_slots, record_slot, n_carried,
                 zeros):
    """The function of a ``replay_grad`` pinned to ``replay``: per
    record, last first, the record's file with the adjoints (locals
    ``g0…``) on its placeholders and a call of its program, then the
    carried adjoints updated and the rest summed (locals ``t0…``).  A
    loop with no record gives ``zeros``."""
    results = list(zip(replay.wanted, replay._output_slots))
    carried = [(i, slot) for i, slot in results if i < n_carried]
    summed = [(i, slot) for i, slot in results if i >= n_carried]
    loop = ["w = kept + tl"] + [
        "w[%d] = g%d" % (slot, j)
        for j, slot in enumerate(replay._ph_slot_order[:len(in_slots)])]
    loop += ["run(w, rs)"] + ["g%d = w[%d]" % pair for pair in carried]
    for i, slot in summed:
        loop += ["r = w[%d]" % slot,
                 "t%d = r if t%d is None else t%d + r" % (i, i, i)]
    body = ["recs = v[%d][1]" % record_slot]
    body += ["g%d = v[%d]" % pair for pair in enumerate(in_slots)]
    body += ["t%d = None" % i for i, _ in summed]
    body += ["run = tr if _T.level >= 2 else rd",
             "for kept in reversed(recs):"]
    body += ["    " + line for line in loop]
    body += ["v[%d] = g%d" % (out_slots[i], i) for i, _ in carried]
    if zeros and summed:
        body.append("if not recs:")
        body += ["    t%d = _zs(*zs[%d])" % (i, i) for i, _ in summed]
    body += ["v[%d] = t%d" % (out_slots[i], i) for i, _ in summed]
    return _generate(["_T", "rd", "tr", "tl", "_zs", "zs"],
                     [TRACER, replay._rendered, replay._run_traced,
                      replay._tail, np.zeros, zeros], body)


def _run_check(check, raw):
    """Run one heap-read guard, timed when metrics are on."""
    if METRICS.enabled:
        guard_start = time.perf_counter()
        try:
            check(raw)
        finally:
            _GUARD_CHECK.observe(time.perf_counter() - guard_start)
    else:
        check(raw)


def _dynamic_get_lines(i, node, in_slots, out_slots, params, bindings):
    """Line ``i`` of a region: a heap read of the receiver in slot
    ``in_slots[0]``.  It reads the run's own write (``py_local``) first,
    then the run's earlier read of the same slot (``py_read_cache``),
    and only then the heap, internalized and guarded; there is no
    per-node memo because the receiver may differ run to run."""
    kind = "attr" if node.op_name == "py_get_attr" else "subscr"
    params.append("y%d" % i)
    bindings.append(node.attrs["name"] if kind == "attr"
                    else node.attrs["key"])
    check = _compile_expected_check(node.attrs.get("expected"), node)
    fetch = "getattr(p, y%d)" % i if kind == "attr" else "p[y%d]" % i
    lines = ["p = v[%d]" % in_slots[0],
             "if not isinstance(p, _PR):",
             "    raise _EE('py_get on non-PyRef input')",
             "p = p.obj",
             "q = (id(p), %r, y%d)" % (kind, i),
             "r = rs.py_local.get(q)",
             "if r is None:",
             "    r = rs.py_read_cache.get(q)",
             "    if r is None:",
             "        r = _in(%s)" % fetch]
    if check is not None:
        params.append("g%d" % i)
        bindings.append(check)
        lines.append("        _rc(g%d, r)" % i)
    return lines + ["        rs.py_read_cache[q] = r",
                    "v[%d] = r" % out_slots[0]]


def _compile_expected_check(expected, node):
    """Precompile a node's expected-value guard into a bound check closure.

    The per-kind reference data (the profiled constant as an ndarray, the
    numpy dtype, the Shape object, the type name) is derived once at
    compile time; the returned closure performs only the comparisons.
    Returns None when the node carries no expectation.
    """
    if expected is None:
        return None
    kind = expected[0]
    debug_name = node.debug_name
    if kind == "const":
        _, _dtype, value = expected
        expected_arr = np.asarray(value)
        expected_shape = expected_arr.shape
        site = node.attrs.get("prof_site", debug_name)
        array_equal = np.array_equal
        ndarray = np.ndarray

        def check_const(raw):
            if not isinstance(raw, ndarray) or raw.shape != expected_shape \
                    or not array_equal(raw, expected_arr):
                raise AssumptionFailed(
                    "heap read %s: value changed from its profiled constant"
                    % debug_name, site=site, observed=raw)
        return check_const
    if kind == "tensor":
        _, dtype, shape = expected
        np_dtype = dtype.np_dtype if dtype is not None else None
        dtype_name = dtype.name if dtype is not None else None
        shape_obj = None if shape is None else Shape.of(shape)
        ndarray = np.ndarray

        def check_tensor(raw):
            if not isinstance(raw, ndarray):
                raise AssumptionFailed(
                    "heap read %s: expected a tensor, got %s"
                    % (debug_name, type(raw).__name__),
                    site=debug_name, observed=raw)
            if np_dtype is not None and raw.dtype != np_dtype:
                raise AssumptionFailed(
                    "heap read %s: dtype %s != expected %s"
                    % (debug_name, raw.dtype, dtype_name),
                    site=debug_name, observed=raw)
            if shape_obj is not None \
                    and not shape_obj.matches_value(raw.shape):
                raise AssumptionFailed(
                    "heap read %s: shape %s violates assumption %s"
                    % (debug_name, raw.shape, shape),
                    site=debug_name, observed=raw)
        return check_tensor
    if kind == "pyref":
        type_name = expected[1]

        def check_pyref(raw):
            obj = raw.obj if isinstance(raw, PyRef) else raw
            if type(obj).__name__ != type_name:
                raise AssumptionFailed(
                    "heap read %s: type %s != expected %s"
                    % (debug_name, type(obj).__name__, type_name),
                    site=debug_name, observed=raw)
        return check_pyref
    return None


def _state_accesses(node, seen_graphs):
    """``(reads, writes)``: the state a node and its nested bodies touch.

    A state is a Variable or a heap slot ``(kind, key)``.  A slot is
    named by its key alone: a dynamic receiver is known only at run
    time, so accesses of one key on any two receivers are ordered.
    """
    reads, writes = set(), set()
    op = node.op_name
    if op in ("var_read", "var_assign"):
        state = node.variable
    elif op in ("py_get_attr", "py_set_attr"):
        state = ("attr", node.attrs["name"])
    elif op in ("py_get_subscr", "py_set_subscr"):
        state = ("subscr", node.attrs["key"])
    else:
        state = None
    if state is not None:
        (writes if op in EFFECT_OPS else reads).add(state)
    for func in node._nested_functions():
        if func is None or func.graph is None \
                or id(func.graph) in seen_graphs:
            continue
        seen_graphs.add(id(func.graph))
        for inner in func.graph.nodes:
            inner_reads, inner_writes = _state_accesses(inner, seen_graphs)
            reads |= inner_reads
            writes |= inner_writes
    return reads, writes


#: Slot-map key of a recording invoke, cond or loop's record, beside the
#: indices of its outputs.
_RECORD = "record"


class _ReplayExecutor(GraphExecutor):
    """A callee's gradient, run over one record of its forward: one
    call, or one loop iteration.

    The gradient body (``autodiff.grad_function``) is a clone of the
    forward body followed by backprop, and ``grad_meta["forward_of"]``
    maps each clone to its forward node.  A clone whose forward node is
    in ``forward``'s program is *bound*: it is not scheduled, and the
    value it has, if the replay reads it, is at the front of the
    register file, copied from the record.  Only the rest is scheduled:
    backprop nodes, and clones of forward nodes a pass removed, which
    recompute.  The callee's guards, heap writes,
    variable writes and random draws therefore happen once, in the
    forward.  A call or loop nested in the body is matched by structure:
    its bound clone's record slot is the forward node's, so a recursive
    gradient replays each call from that call's own record.  Only the
    outputs ``wanted`` names are computed, in order.
    """

    def __init__(self, func, forward, wanted):
        self.forward = forward
        self.wanted = wanted
        self._bound = _bound_clones(func, forward)
        self._layout = _record_layout(func, forward)[1]
        super().__init__(func.graph)
        self._tail = [None] * (self._slot_count - len(self._layout))

    def _live(self):
        return _replay_live(self.graph, self._bound,
                            self._computed_outputs())

    def _computed_outputs(self):
        outputs = self.graph.outputs
        return [outputs[i] for i in self.wanted]

    def _bound_slots(self):
        """A bound clone's value is at its forward slot's position in
        the record."""
        position = {slot: k for k, slot in enumerate(self._layout)}
        forward_slots = self.forward._slots
        slots = {}
        for clone, node in self._bound.items():
            for index in [out.index for out in clone.outputs] + [_RECORD]:
                slot = forward_slots.get((id(node), index))
                if slot in position:
                    slots[(id(clone), index)] = position[slot]
        return slots, len(self._layout)


def _bound_clones(func, forward):
    """Clone -> forward node, for each clone in gradient body ``func``
    whose forward node ``forward``'s program computes."""
    live = forward._live_nodes
    forward_of = func.grad_meta["forward_of"]
    return {clone: node for clone, node in forward_of.items()
            if node in live}


def _replay_live(graph, bound, outputs):
    """Ancestors of ``outputs``, plus the placeholders, that a replay
    needs: a bound clone roots nothing, its value is recorded."""
    live = set()
    stack = [o.node for o in outputs] + list(graph.placeholders)
    while stack:
        node = stack.pop()
        if node in live:
            continue
        live.add(node)
        if node not in bound:
            stack.extend(i.node for i in node.inputs)
            stack.extend(node.control_inputs)
    return live


def _record_layout(func, forward):
    """``(forward, layout)``: the slots of ``forward``'s register file
    a record keeps, those a replay of gradient body ``func`` reads when
    it computes every output, so a replay of any of them finds its
    values.  Cached in ``func.graph``'s executor cache while ``forward``
    is the one it was computed against (a recompiled forward body lays
    its slots out anew); a call site pins the cached pair."""
    cache = func.graph._executor_cache
    cached = cache.get("record")
    if cached is not None and cached[0] is forward:
        return cached
    bound = _bound_clones(func, forward)
    forward_slots = forward._slots
    reads = set()

    def read(node, index):
        if node in bound:
            reads.add(forward_slots[(id(bound[node]), index)])

    graph = func.graph
    for node in _replay_live(graph, bound, graph.outputs):
        if node in bound:
            continue
        for inp in node.inputs:
            read(inp.node, inp.index)
        if node.op_name == "replay_grad":
            read(node.attrs["forward_node"], _RECORD)
    for out in graph.outputs:
        read(out.node, out.index)
    entry = cache["record"] = (forward, tuple(sorted(reads)))
    return entry


def _adjoint_closure(graph, n_args, n_float, reads):
    """The body-gradient outputs a loop gradient computes: ``reads``,
    plus every loop-carried adjoint they depend on.  An output that
    depends on placeholder ``out_grad_k`` needs output ``k`` of the
    iteration after it, and so on to a fixed point."""
    grad_bits = {id(ph): 1 << k
                 for k, ph in enumerate(graph.placeholders[n_args:])}
    needs = {}
    for node in graph.topological_order():
        mask = grad_bits.get(id(node), 0)
        for inp in node.inputs:
            mask |= needs[id(inp.node)]
        for dep in node.control_inputs:
            mask |= needs[id(dep)]
        needs[id(node)] = mask
    wanted = set(reads)
    stack = list(wanted)
    while stack:
        mask = needs[id(graph.outputs[stack.pop()].node)]
        for k in range(n_float):
            if mask >> k & 1 and k not in wanted:
                wanted.add(k)
                stack.append(k)
    return tuple(sorted(wanted))


def _function_executor(func):
    """Compiled (sequential) executor for a GraphFunction, cached.

    Cached in ``func.graph._executor_cache`` (graph mutation clears
    it).  Its rendered program keeps every store
    (``_keeps_stores``): a caller's record may copy any slot.
    """
    if func.graph is None:
        raise GraphError("function %s invoked before finalization"
                         % func.name)
    cache = func.graph._executor_cache
    executor = cache.get("nested")
    if executor is None:
        # Set before __init__ compiles, as _ReplayExecutor sets _bound.
        executor = GraphExecutor.__new__(GraphExecutor)
        executor._keeps_stores = True
        executor.__init__(func.graph)
        cache["nested"] = executor
    return executor
