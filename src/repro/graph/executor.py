"""Dataflow graph executor.

Compiles a graph into a flat closure program and runs it over numpy
buffers.  Every SSA value has a preallocated register slot in one flat
``values`` list and every instruction — registered op, fused kernel,
heap access, variable access, functional control flow — is a pre-bound
``fn(values, run_state)`` closure, so the run loop is
``for fn in program: fn(values, run_state)``: all instruction-kind
dispatch happens once at compile time, none per run.  This is the one
execution tier; the JANUS path and the symbolic baseline share it.
Three properties reproduce the paper's execution model:

* **Low per-op overhead** — running a node costs one closure call plus
  list indexing, unlike the eager executor's full dispatch path.  This
  is the BASE speedup of figure 7 and the "only residual cost is
  checking the assumptions" claim of section 4.3.
* **Deferred, all-or-nothing state updates** (section 4.2.3) — variable
  assignments and Python-heap writes go to per-run *local copies*; the
  Python heap is only mutated in the commit phase after every assertion
  has passed, so an :class:`~repro.errors.AssumptionFailed` abort never
  leaves partial state behind and fallback is always safe.
* **Inter-op parallelism** (+PARL of figure 7) — an optional level-wise
  schedule runs the same closures on a thread pool (numpy kernels
  release the GIL for the heavy lifting), but only for the levels where
  the executor *measured* the fan-out to be clearly faster than running
  the level in order; everywhere else it stands aside.

See docs/compilation.md ("Mechanism 4: the executed form").
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .. import host
from ..errors import AssumptionFailed, ExecutionError, GraphError
from ..observability import COUNTERS, METRICS, TRACER
from ..tensor import TensorValue, PyRef
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

    __slots__ = ("var_local", "py_local", "while_records",
                 "invoke_memo", "py_read_cache")

    def __init__(self):
        self.var_local = {}        # Variable -> np.ndarray (local copy)
        self.py_local = {}         # (id(obj), kind, key) -> raw value
        self.while_records = {}    # Node -> stack of per-execution records
        #: (id(func), arg identities) -> outputs, for invokes of callees
        #: without effects (a guard is not one: on the same arguments and
        #: state it checks the same thing).  Gradient functions recompute
        #: their forward bodies (see graph.autodiff); memoizing pure
        #: recursive calls within one run collapses that recomputation
        #: from O(n * depth) to O(n) — the executor-side counterpart of
        #: the InvokeOp bookkeeping in the paper's reference [20].  Every
        #: state write of the run empties it.
        self.invoke_memo = {}
        #: (id(obj), kind, key) -> internalized heap read.  Heap state is
        #: stable within a run (writes go to py_local, which shadows this
        #: cache), so repeated reads — e.g. during gradient-side forward
        #: recomputation — skip getattr/convert/assumption checking.
        self.py_read_cache = {}

    def commit(self, py_objects):
        """Write local copies back to variables and the Python heap."""
        for variable, array in self.var_local.items():
            variable.storage = TensorValue(array, variable.dtype)
            variable.version += 1
        for (obj_id, kind, key), raw in self.py_local.items():
            obj = py_objects[obj_id]
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


#: Sentinel meaning "no value validated yet" in a py_get identity memo.
_MEMO_MISS = object()
_MEMO_SAFE = None


#: Counted where the memo is consulted: a counter takes no lock.
_MEMO_HIT = COUNTERS.labels("executor.memo_hit")
_MEMO_STALE = COUNTERS.labels("executor.memo_stale")
_INVOKE_MEMO_HIT = COUNTERS.labels("executor.invoke_memo_hit")
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
    """One candidate fan-out level: its closures and the evidence."""

    __slots__ = ("fns", "verdict", "trials", "seq")

    def __init__(self, fns):
        self.fns = fns
        #: None while measuring; then whether the fan-out is kept.
        self.verdict = None
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
    # Submission order is schedule order: when several closures of one
    # level fail, raise what the sequential schedule would have raised.
    for future in futures:
        exc = future.exception()
        if exc is not None:
            raise exc


class GraphExecutor:
    """A compiled, reusable flat closure program for one graph."""

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
        return len(self._program)

    def __repr__(self):
        return "GraphExecutor(%s, %d instructions, " \
            "%d/%d levels parallel)" % (
                self.graph.name, len(self._program),
                sum(1 for level in self._candidates if level.verdict),
                len(self._candidates))

    # -- compilation -------------------------------------------------------

    def _compile(self):
        graph = self.graph
        live = graph.live_nodes()
        order = [n for n in graph.topological_order() if n in live]
        self._slots = {}
        slot_count = 0
        for node in order:
            for out in node.outputs:
                self._slots[(id(node), out.index)] = slot_count
                slot_count += 1
        self._slot_count = slot_count
        self._py_objects = {}

        scheduled = []   # (node, closure), in schedule order
        self._placeholder_slots = {}
        for node in order:
            in_slots = tuple(self._slots[(id(i.node), i.index)]
                             for i in node.inputs)
            out_slots = tuple(self._slots[(id(node), out.index)]
                              for out in node.outputs)
            fn = self._compile_node(node, in_slots, out_slots)
            if fn is not None:
                scheduled.append((node, fn))
        #: The flat program: one ``fn(values, run_state)`` per node.
        self._program = [fn for _, fn in scheduled]
        #: Aligned with _program; consumed by level-2 op tracing.
        self._labels = [(node.op_name, node.debug_name)
                        for node, _ in scheduled]
        self._ph_slot_order = [
            self._placeholder_slots[node.attrs["ph_name"]]
            for node in graph.placeholders]
        self._output_slots = [self._slots[(id(o.node), o.index)]
                              for o in graph.outputs]
        if self.parallel:
            self._compile_levels(order, scheduled)

    def _compile_node(self, node, in_slots, out_slots):
        """One node -> one bare ``fn(values, run_state)`` closure.

        Returns None for nodes that execute nothing (placeholders are
        filled during feed binding, groups only order their inputs).
        """
        op = node.op_name
        if op == "placeholder":
            self._placeholder_slots[node.attrs["ph_name"]] = out_slots[0]
            return None
        if op == "constant":
            value = node.constant_value
            raw = value.array if isinstance(value, TensorValue) else value
            slot = out_slots[0]

            def run_const(values, run_state, raw=raw, slot=slot):
                values[slot] = raw
            return run_const
        if op == "var_read":
            variable = node.variable
            slot = out_slots[0]

            def run_read(values, run_state, variable=variable, slot=slot):
                local = run_state.var_local.get(variable)
                values[slot] = local if local is not None \
                    else variable.storage.array
            return run_read
        if op == "var_assign":
            variable = node.variable
            in_slot, out_slot = in_slots[0], out_slots[0]

            def run_assign(values, run_state):
                value = values[in_slot]
                run_state.var_local[variable] = value
                run_state.invoke_memo.clear()
                values[out_slot] = value
            return run_assign
        if op in ("py_get_attr", "py_get_subscr"):
            return self._compile_py_get(node, in_slots, out_slots)
        if op in ("py_set_attr", "py_set_subscr"):
            return self._compile_py_set(node, in_slots, out_slots)
        if op == "py_call":
            return self._compile_py_call(node, in_slots, out_slots)
        if op == "invoke":
            return self._compile_invoke(node, in_slots, out_slots)
        if op == "cond":
            return self._compile_cond(node, in_slots, out_slots)
        if op == "while_loop":
            return self._compile_while(node, in_slots, out_slots)
        if op == "while_grad":
            return self._compile_while_grad(node, in_slots, out_slots)
        if op == "group":
            return None
        if node.op_def is not None:
            return self._make_op_closure(node.op_def.kernel, node.attrs,
                                         in_slots, out_slots)
        raise GraphError("cannot compile node %s" % node.debug_name)

    @staticmethod
    def _make_op_closure(kernel, attrs, in_slots, out_slots):
        """A pre-bound callable for one registered-op node.

        Binding slots and kernel at compile time removes the per-node
        tuple unpacking and dispatch from the hot loop — the 'low per-op
        overhead' property the symbolic executor owes its BASE speedup to.
        """
        asarray = np.asarray
        ndarray = np.ndarray
        if len(out_slots) == 1:
            o0 = out_slots[0]
            if len(in_slots) == 1:
                a0 = in_slots[0]

                def run1(values, run_state):
                    r = kernel(attrs, values[a0])
                    values[o0] = r if type(r) is ndarray else asarray(r)
                return run1
            if len(in_slots) == 2:
                a0, a1 = in_slots

                def run2(values, run_state):
                    r = kernel(attrs, values[a0], values[a1])
                    values[o0] = r if type(r) is ndarray else asarray(r)
                return run2

            def run_n(values, run_state):
                r = kernel(attrs, *[values[s] for s in in_slots])
                values[o0] = r if type(r) is ndarray else asarray(r)
            return run_n

        def run_multi(values, run_state):
            results = kernel(attrs, *[values[s] for s in in_slots])
            for slot, r in zip(out_slots, results):
                values[slot] = r if type(r) is ndarray else asarray(r)
        return run_multi

    def _compile_py_get(self, node, in_slots, out_slots):
        """Specialize one heap read into a precompiled closure.

        Mirrors :meth:`_make_op_closure`: the object, key, guard check
        and output slot are all bound at compile time, so a run costs
        two dict probes plus (at most) one getattr.  A per-node identity
        memo additionally skips re-internalizing and re-checking a value
        that was already validated on an earlier run.  Immutable scalars
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
        if node.py_object is None:
            return _dynamic_py_get(kind, in_slots[0], key, check, out_slot)
        obj = node.py_object.obj
        self._py_objects[id(obj)] = obj
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
        static_obj = None
        dyn_slot = in_slots[0]
        value_slot = in_slots[-1]
        out_slot = out_slots[0]
        # Receivers first met at run time register here too, so commit's
        # transitive object collection can reach them.
        py_objects = self._py_objects
        if node.py_object is not None:
            static_obj = node.py_object.obj
            py_objects[id(static_obj)] = static_obj

        def run_set(values, run_state):
            obj = static_obj if static_obj is not None \
                else values[dyn_slot].obj
            run_state.py_local[(id(obj), kind, key)] = values[value_slot]
            run_state.invoke_memo.clear()
            py_objects[id(obj)] = obj
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
            run_state.invoke_memo.clear()
            if single is not None:
                values[single] = _internalize(result)
            else:
                for slot, r in zip(out_slots, result):
                    values[slot] = _internalize(r)
        return run_call

    # Nested bodies (invoke / cond / while) resolve their executor per
    # run, not at compile time: a recursive function's graph may not be
    # finalized yet when its caller compiles, and graph mutation clears
    # ``_executor_cache`` underneath long-lived parents.

    def _compile_invoke(self, node, in_slots, out_slots):
        func = node.func

        def run_invoke(values, run_state, hit=_INVOKE_MEMO_HIT.inc):
            args = [values[s] for s in in_slots]
            memo_key = _invoke_memo_key(func, args)
            if memo_key is not None:
                cached = run_state.invoke_memo.get(memo_key)
                if cached is not None:
                    hit()
                    for slot, r in zip(out_slots, cached):
                        values[slot] = r
                    return
            results = _function_executor(func)._run_nested(args, run_state)
            if memo_key is not None:
                run_state.invoke_memo[memo_key] = results
            for slot, r in zip(out_slots, results):
                values[slot] = r
        return run_invoke

    def _compile_cond(self, node, in_slots, out_slots):
        branches = node.branches
        pred_slot = in_slots[0]
        arg_slots = in_slots[1:]

        def run_cond(values, run_state):
            branch = branches["true" if _truth(values[pred_slot])
                              else "false"]
            results = _function_executor(branch)._run_nested(
                [values[s] for s in arg_slots], run_state)
            for slot, r in zip(out_slots, results):
                values[slot] = r
        return run_cond

    def _compile_while(self, node, in_slots, out_slots):
        cond_func = node.attrs["cond_func"]
        body_func = node.attrs["body_func"]
        record_grad = bool(node.attrs.get("record_grad"))
        max_iters = node.attrs.get("max_iterations", 1_000_000)

        def run_while(values, run_state):
            cond_step = _function_executor(cond_func)._run_nested
            body_step = _function_executor(body_func)._run_nested
            state = [values[s] for s in in_slots]
            record = [] if record_grad else None
            iteration = 0
            while True:
                if not _truth(cond_step(state, run_state)[0]):
                    break
                if record is not None:
                    record.append(list(state))
                state = body_step(state, run_state)
                iteration += 1
                if iteration > max_iters:
                    raise ExecutionError("while_loop exceeded %d iterations"
                                         % max_iters)
            if record is not None:
                run_state.while_records.setdefault(node, []).append(record)
            for slot, value in zip(out_slots, state):
                values[slot] = value
        return run_while

    def _compile_while_grad(self, node, in_slots, out_slots):
        forward = node.attrs["forward_node"]
        body_grad_func = node.attrs["body_grad_func"]
        grad_var_count = node.attrs["grad_var_count"]
        n_float = sum(node.attrs["float_mask"])

        def run_while_grad(values, run_state):
            stack = run_state.while_records.get(forward)
            if not stack:
                raise ExecutionError("while_grad has no recorded iterations")
            record = stack.pop()
            grad_step = _function_executor(body_grad_func)._run_nested
            state_grads = [values[s] for s in in_slots]
            var_totals = [None] * grad_var_count
            for iteration_state in reversed(record):
                results = grad_step(list(iteration_state) + state_grads,
                                    run_state)
                state_grads = results[:n_float]
                for i, g in enumerate(results[n_float:]):
                    var_totals[i] = g if var_totals[i] is None \
                        else var_totals[i] + g
            outputs = list(state_grads) + [
                g if g is not None else np.zeros(1, np.float32)
                for g in var_totals]
            for slot, value in zip(out_slots, outputs):
                values[slot] = value
        return run_while_grad

    #: Ops heavy enough that a level holding two of them is worth
    #: measuring fanned out.
    _HEAVY_OPS = frozenset([
        "matmul", "conv2d", "conv2d_transpose", "conv2d_input_grad",
        "conv2d_filter_grad", "max_pool", "max_pool_grad", "avg_pool",
        "avg_pool_grad", "invoke", "gather_grad",
    ])

    def _compile_levels(self, order, scheduled):
        """Group the program's closures into dependency levels.

        A level with at least two *heavy* instructions is a candidate
        for the thread pool, not a fan-out: inter-op parallelism only
        pays for coarse, concurrently executable kernels (paper section
        6.3.1), and neither the CPU count nor the op names say whether
        these are — so each candidate is measured both ways over its
        first runs (:meth:`_trial`) and fans out only if that clearly
        won.  Every other level runs in order.

        Levels follow state as well as edges (TensorFlow's automatic
        control dependencies): a write of a state lands after every
        earlier access of it in program order and before every later
        one, so no level reorders a write past a read, either way.
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
        levels = {}
        for node, fn in scheduled:
            levels.setdefault(node_level[node], []).append((node, fn))
        #: In dependency order: a closure list (runs in order) or a
        #: candidate :class:`_Level`.
        self._levels = []
        for key in sorted(levels):
            fns = [fn for _, fn in levels[key]]
            heavy = sum(1 for node, _ in levels[key]
                        if node.op_name in self._HEAVY_OPS)
            self._levels.append(_Level(fns) if heavy >= 2 else fns)
        self._candidates = [level for level in self._levels
                            if type(level) is _Level]
        if not self._candidates:
            self.parallel = False

    # -- execution ------------------------------------------------------------

    def run(self, feeds=()):
        """Execute the graph as one top-level run.

        ``feeds`` is a sequence of values bound positionally to the
        graph's placeholders.  Returns the list of output values
        (numpy arrays, or the wrapped object for PyRef outputs is kept as
        PyRef — callers externalize) and commits the deferred state
        updates on success.  Nested bodies go through
        :meth:`_run_nested`, which shares the caller's run state and
        never commits.
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
            for fn in self._program:
                fn(values, run_state)

        outputs = [values[s] for s in self._output_slots]
        run_state.commit(self._py_objects_transitive())
        if TRACER.level:
            TRACER.complete("op", "run:%s" % self.graph.name,
                            run_start,
                            time.perf_counter() - run_start,
                            instructions=len(self._program),
                            parallel=self.parallel)
        if METRICS.enabled and run_start:
            _GRAPH_RUN.observe(time.perf_counter() - run_start)
        return outputs

    def _run_nested(self, feeds, run_state):
        """What :meth:`run` does for a nested body, and nothing else.

        Same feed-count check, bind, run the program in order (nested
        bodies have no level schedule), return the outputs;
        state stays in the caller's ``run_state`` for its commit.
        """
        values = self._bind(feeds)
        if TRACER.level >= 2:
            self._run_traced(values, run_state)
        else:
            for fn in self._program:
                fn(values, run_state)
        return [values[s] for s in self._output_slots]

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
        """The in-order loop with one level-2 ``op`` event per closure."""
        perf = time.perf_counter
        for fn, (op_name, debug_name) in zip(self._program, self._labels):
            start = perf()
            fn(values, run_state)
            TRACER.complete("op", op_name, start, perf() - start,
                            level=2, node=debug_name,
                            graph=self.graph.name)

    def _run_levels(self, values, run_state):
        """Run level by level; level-2 tracing gets one ``level`` event
        per level (trials carry ``trial="seq"|"par"``)."""
        trace = TRACER.level >= 2
        for index, level in enumerate(self._levels):
            start = time.perf_counter() if trace else 0.0
            trial = {}
            if type(level) is list:
                fns, fan_out = level, False
            else:
                fns, fan_out = level.fns, level.verdict
            if fan_out is None:
                fan_out = self._trial(level, values, run_state)
                trial = {"trial": "par" if fan_out else "seq"}
            else:
                _run_level(fns, fan_out, values, run_state)
            if trace:
                TRACER.complete("level", "L%d" % index, start,
                                time.perf_counter() - start, level=2,
                                graph=self.graph.name,
                                instructions=len(fns), parallel=fan_out,
                                **trial)

    def _trial(self, level, values, run_state):
        """One timed run of an undecided level.

        Returns whether this one fanned out: trials alternate, in
        schedule order first, and each fanned-out one is compared with
        the in-order one before it.  The first pair the fan-out does not
        win by the margin settles the level in order; ``_TRIALS`` pairs
        won keep the fan-out.  The verdict state is plain attributes
        without a lock: concurrent runs may repeat or lose a trial (and,
        landing one verdict at once, count it twice), never get a wrong
        result — both schedules run the same closures on the same
        slots.  A trial in which a closure raised never reaches the
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

    def _py_objects_transitive(self):
        """Python objects referenced here and in nested subgraphs."""
        cached = getattr(self, "_py_objects_cache", None)
        if cached is not None:
            # py_set on dynamic objects adds entries at run time; merge.
            cached.update(self._py_objects)
            return cached
        objs = self._collect_py_objects()
        self._py_objects_cache = objs
        return objs

    def _collect_py_objects(self):
        objs = dict(self._py_objects)
        seen = set()
        stack = [self.graph]
        while stack:
            graph = stack.pop()
            if id(graph) in seen:
                continue
            seen.add(id(graph))
            for node in graph.nodes:
                if node.py_object is not None:
                    objs[id(node.py_object.obj)] = node.py_object.obj
                for func in node._nested_functions():
                    if func is not None and func.graph is not None:
                        stack.append(func.graph)
        return objs


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


def _dynamic_py_get(kind, dyn_slot, key, check, out_slot):
    """Heap read whose receiver arrives on an input edge.

    Only the guard check can be precompiled; there is no per-node memo
    because the object may differ run to run.
    """
    is_attr = kind == "attr"

    def run_get_dynamic(values, run_state):
        ref = values[dyn_slot]
        if not isinstance(ref, PyRef):
            raise ExecutionError("py_get on non-PyRef input")
        obj = ref.obj
        local_key = (id(obj), kind, key)
        raw = run_state.py_local.get(local_key)
        if raw is None:
            raw = run_state.py_read_cache.get(local_key)
            if raw is None:
                raw = _internalize(getattr(obj, key) if is_attr
                                   else obj[key])
                if check is not None:
                    _run_check(check, raw)
                run_state.py_read_cache[local_key] = raw
        values[out_slot] = raw
    return run_get_dynamic


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
        if shape is not None:
            from ..tensor.shape import Shape
            shape_obj = Shape.of(shape)
        else:
            shape_obj = None
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
    for func in (*node._nested_functions(),
                 node.attrs.get("body_grad_func")):
        if func is None or func.graph is None \
                or id(func.graph) in seen_graphs:
            continue
        seen_graphs.add(id(func.graph))
        for inner in func.graph.nodes:
            inner_reads, inner_writes = _state_accesses(inner, seen_graphs)
            reads |= inner_reads
            writes |= inner_writes
    return reads, writes


def _invoke_memo_key(func, args):
    """Memo key for a pure invoke, or None when not memoizable.

    Safe only for callees without effects (a guard is not one: see
    ``RunState.invoke_memo``) and identity-keyable arguments: PyRefs key
    by object identity, tiny arrays by content.
    """
    if getattr(func, "_memo_effects", None) is None:
        func._memo_effects = func.has_effects
    if func._memo_effects:
        return None
    parts = [id(func)]
    for a in args:
        if isinstance(a, PyRef):
            parts.append(("r", id(a.obj)))
        elif isinstance(a, np.ndarray) and a.nbytes <= 64:
            parts.append(("v", a.dtype.str, a.shape, a.tobytes()))
        else:
            return None
    return tuple(parts)


def _function_executor(func):
    """Compiled (sequential) executor for a GraphFunction, cached.

    Cached in ``func.graph._executor_cache`` (graph mutation clears
    it).  Nested bodies are never fused (fused OpDefs carry no
    ``grad_fn`` and bodies may be re-differentiated).
    """
    if func.graph is None:
        raise GraphError("function %s invoked before finalization"
                         % func.name)
    cache = func.graph._executor_cache
    executor = cache.get("nested")
    if executor is None:
        executor = GraphExecutor(func.graph, parallel=False)
        cache["nested"] = executor
    return executor
