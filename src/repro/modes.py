"""Execution-mode factories shared by benchmarks, examples, and tests.

One imperative loss function drives four frameworks (the columns of the
paper's evaluation):

* ``imperative`` — TF-Eager analogue: eager ops + gradient tape.
* ``janus``      — speculative graph conversion (this paper).
* ``symbolic``   — TF-1 analogue: the same (mode-polymorphic) code is run
  once under a :class:`GraphBuilder` with placeholder inputs, producing a
  static graph with autodiff and optimizer update ops; Python loops
  unroll at build time, exactly like hand-written TF-1 code.  Graphs are
  cached per input-shape signature, so shape-varying workloads (TreeNNs)
  pay a rebuild per new signature — the pre-processing cost the paper
  mentions for graph-based TreeNN implementations.
* ``tracing``    — the defun-like trace-based converter (unsafe).
"""

import numpy as np

from . import janus as janus_module
from .baselines.tracing import trace_function
from .graph.builder import GraphBuilder
from .graph.executor import GraphExecutor, _externalize
from .graph import autodiff
from .graph.passes import PassManager
from .imperative.eager import Tensor
from .imperative.tape import training_step
from .janus.api import _ensure_tensor
from .tensor import TensorValue

MODES = ("imperative", "janus", "symbolic", "tracing")


class ImperativeStep:
    """Eager training step: tape, gradients, optimizer."""

    def __init__(self, loss_fn, optimizer=None):
        self.loss_fn = loss_fn
        self.optimizer = optimizer

    def __call__(self, *args):
        args = tuple(_ensure_tensor(a) for a in args)
        if self.optimizer is None:
            return self.loss_fn(*args)
        return training_step(self.loss_fn, args, self.optimizer)


class SymbolicStep:
    """TF-1-style step: build the graph once per input-shape signature."""

    def __init__(self, loss_fn, optimizer=None, parallel=True):
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.parallel = parallel
        self._cache = {}
        self.builds = 0

    @staticmethod
    def _signature(args):
        sig = []
        for a in args:
            arr = _to_array(a)
            if arr is None:
                # Non-tensor input (e.g. a parse tree): the TF-1 user
                # builds a graph per structure — key by identity.
                sig.append(("pyobj", id(a)))
            else:
                sig.append((str(arr.dtype), arr.shape))
        return tuple(sig)

    def _build(self, args):
        self.builds += 1
        builder = GraphBuilder(name="symbolic_step")
        with builder:
            placeholders = []
            self._feed_mask = []
            for i, a in enumerate(args):
                arr = _to_array(a)
                if arr is None:
                    placeholders.append(a)   # burned into the graph
                    self._feed_mask.append(False)
                    continue
                placeholders.append(builder.placeholder(
                    "arg_%d" % i, shape=arr.shape,
                    dtype=TensorValue.of(arr).dtype))
                self._feed_mask.append(True)
            result = self.loss_fn(*placeholders)
            flat = list(result) if isinstance(result, (tuple, list)) \
                else [result]
            if self.optimizer is not None:
                var_grads = autodiff.add_training_gradients(builder,
                                                            flat[0])
                pairs = [(g, v) for v, g in var_grads.items()]
                self.optimizer.apply_gradients(pairs)
            builder.mark_outputs(flat)
        PassManager().run(builder.graph)
        return GraphExecutor(builder.graph, parallel=self.parallel), \
            isinstance(result, (tuple, list))

    def __call__(self, *args):
        sig = self._signature(args)
        entry = self._cache.get(sig)
        if entry is None:
            entry = self._build(args)
            self._cache[sig] = entry
        executor, multi = entry
        flat = executor.run([_to_array(a) for a, keep in
                             zip(args, self._feed_mask) if keep])
        outs = [_externalize(v) for v in flat]
        return tuple(outs) if multi else outs[0]


def _to_array(value):
    if isinstance(value, Tensor):
        return value.value.array
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, (bool, int, float)):
        return TensorValue.of(value).array
    return None


def make_step(loss_fn, optimizer=None, mode="janus", config=None,
              parallel=True):
    """Build a training/eval step callable for one execution mode."""
    if mode == "imperative":
        return ImperativeStep(loss_fn, optimizer)
    if mode == "janus":
        return janus_module.function(loss_fn, optimizer=optimizer,
                                     config=config)
    if mode == "symbolic":
        return SymbolicStep(loss_fn, optimizer, parallel=parallel)
    if mode == "tracing":
        return trace_function(loss_fn, optimizer=optimizer)
    raise ValueError("unknown mode %r (choose from %s)" % (mode, MODES))
