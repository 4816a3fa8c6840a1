"""Trace-based graph conversion — the ``defun`` baseline (Table 1, row 3).

``trace_function`` executes the Python program *once* with concrete
inputs while shadow-recording every dispatched op into a symbolic graph.
This is how ``tf.contrib.eager.defun``, ``torch.jit.trace``, and MXNet
Gluon convert programs, and it inherits their characteristic unsafety,
which the paper's evaluation (section 6.2) demonstrates:

* Python control flow is *burned in*: the traced branch direction and
  loop trip count are frozen, silently — a later call that would take the
  other branch still runs the traced one (the ResNet50 batch-norm bug).
* Global/heap state reads are captured as constants: state passed across
  calls through object attributes is frozen at its traced value (the LM
  state-passing bug), and heap writes are simply dropped.
* Recursion cannot be traced into a finite graph (the TreeLSTM failure).

Variables *are* parameterized (reads become var_read nodes, optimizer
updates become deferred assigns), matching defun's handling of model
parameters.
"""

import numpy as np

from ..errors import ReproError
from ..observability import COUNTERS, TRACER
from ..graph.builder import GraphBuilder
from ..graph.executor import GraphExecutor
from ..graph.core import NodeOutput
from ..graph.passes import PassManager
from ..imperative.eager import Tensor, EagerContext
from ..imperative.variable import Variable
from ..imperative import tape as tape_module
from ..tensor import TensorValue


class TracingLimitation(ReproError):
    """The trace hit something a trace-based converter cannot express.

    ``kind`` names the limitation class (``"op_budget"`` or
    ``"recursion"``) and doubles as the counter suffix:
    ``baseline.tracing_limitation.<kind>``.
    """

    def __init__(self, message, kind="other"):
        super().__init__(message)
        self.kind = kind
        COUNTERS.labels("baseline.tracing_limitation.%s" % kind).inc()


class _ShadowContext(EagerContext):
    """Eager execution that also records a shadow symbolic graph."""

    def __init__(self, builder, max_trace_ops=100000):
        super().__init__()
        self.builder = builder
        self._shadow = {}        # id(eager Tensor) -> NodeOutput
        self._keepalive = []
        self.ops_traced = 0
        self.max_trace_ops = max_trace_ops

    def shadow_of(self, tensor):
        node = self._shadow.get(id(tensor))
        if node is None:
            # A value the graph has not seen: capture as constant.  This
            # is exactly the defun behaviour that freezes heap state.
            node = self.builder.constant(tensor.value)
            self._remember(tensor, node)
        return node

    def _remember(self, tensor, node):
        self._shadow[id(tensor)] = node
        self._keepalive.append(tensor)

    def convert(self, value, dtype=None):
        if isinstance(value, Variable):
            tensor = Tensor(value.storage)
            tape_module.record_variable_read(value, tensor)
            self._remember(tensor, self.builder.read_variable(value))
            return tensor
        return super().convert(value, dtype=dtype)

    def assign_variable(self, variable, value):
        tensor = super().convert(value)
        self.builder.assign_variable(variable, self.shadow_of(tensor))
        variable._assign_raw(tensor)
        return tensor

    def execute(self, op_def, inputs, attrs):
        self.ops_traced += 1
        if self.ops_traced > self.max_trace_ops:
            raise TracingLimitation(
                "trace exceeded %d operations — unbounded (e.g. "
                "recursive) programs cannot be traced into a finite "
                "graph (paper section 6.2, TreeLSTM case)"
                % self.max_trace_ops, kind="op_budget")
        outputs = super().execute(op_def, inputs, attrs)
        shadow_inputs = [self.shadow_of(t) for t in inputs]
        shadow_out = self.builder.execute(op_def, shadow_inputs, attrs)
        if isinstance(outputs, tuple):
            for t, s in zip(outputs, shadow_out):
                self._remember(t, s)
        else:
            self._remember(outputs, shadow_out)
        return outputs


class TracedFunction:
    """A function frozen into a graph from one concrete execution."""

    def __init__(self, func, optimizer=None, optimize_graph=True,
                 max_trace_ops=100000):
        self.func = func
        self.optimizer = optimizer
        self.optimize_graph = optimize_graph
        self.max_trace_ops = max_trace_ops
        self._generated = None
        self._executor = None

    def __call__(self, *args):
        if self._generated is None:
            # The tracing run *is* the first execution (defun semantics):
            # its eager side effects already happened.
            result = self._trace(args)
            if isinstance(result, (tuple, list)):
                return tuple(result)
            return result
        flat = self._executor.run(list(args))
        from ..graph.executor import _externalize
        outs = [_externalize(v) for v in flat]
        return outs[0] if len(outs) == 1 else tuple(outs)

    def _trace(self, args):
        name = getattr(self.func, "__name__", "fn")
        with TRACER.span("baseline", "trace:%s" % name):
            return self._trace_inner(args, name)

    def _trace_inner(self, args, name):
        builder = GraphBuilder(name="trace_%s" % name)
        ctx = _ShadowContext(builder, max_trace_ops=self.max_trace_ops)
        arg_tensors = []
        with builder:
            # Build placeholders, then run the program eagerly with the
            # shadow recorder installed.
            pass
        eager_args = []
        for i, arg in enumerate(args):
            tensor = Tensor(TensorValue.of(_raw(arg)))
            with builder:
                ph = builder.placeholder("arg_%d" % i,
                                         shape=tensor.value.shape,
                                         dtype=tensor.value.dtype)
            ctx._remember(tensor, ph)
            eager_args.append(tensor)
        import sys
        old_limit = sys.getrecursionlimit()
        with ctx:
            if self.optimizer is not None:
                with tape_module.GradientTape() as tape:
                    result = self._call_traced(eager_args)
                target = result[0] if isinstance(result, (tuple, list)) \
                    else result
                variables = list({id(v): v
                                  for v, _ in tape._var_reads}.values())
                grads = tape.gradient(target, variables)
                self.optimizer.apply_gradients(
                    [(g, v) for g, v in zip(grads, variables)
                     if g is not None])
            else:
                result = self._call_traced(eager_args)
        with builder:
            outputs = result if isinstance(result, (tuple, list)) \
                else [result]
            builder.mark_outputs([ctx.shadow_of(t) for t in outputs])
        if self.optimize_graph:
            PassManager().run(builder.graph)
        COUNTERS.labels("baseline.ops_traced").inc(ctx.ops_traced)
        if TRACER.level:
            TRACER.instant("baseline", "traced:%s" % name,
                           ops_traced=ctx.ops_traced,
                           nodes=len(builder.graph.nodes))
        self._generated = builder.graph
        self._executor = GraphExecutor(builder.graph)
        return result

    def _call_traced(self, eager_args):
        try:
            return self.func(*eager_args)
        except RecursionError as exc:
            raise TracingLimitation(
                "recursion cannot be traced into a finite graph "
                "(paper section 6.2, TreeLSTM case)",
                kind="recursion") from exc


def _raw(value):
    if isinstance(value, Tensor):
        return value.value
    return value


def trace_function(func, optimizer=None, **kwargs):
    """defun-like decorator: trace once, replay the frozen graph."""
    return TracedFunction(func, optimizer=optimizer, **kwargs)
