"""Reverse-mode autodiff for the imperative executor.

``GradientTape`` records every differentiable op executed while it is
active and replays the stream in reverse to compute gradients, using the
mode-polymorphic gradient registry — the same definitions that build
symbolic gradient subgraphs in graph mode.
"""

import threading

from ..errors import ReproError
from ..ops import api
from ..ops.registry import GradContext
from .variable import Variable

_state = threading.local()


def _tapes():
    if not hasattr(_state, "stack"):
        _state.stack = []
    return _state.stack


def record_operation(op_def, attrs, inputs, outputs):
    for tape in _tapes():
        if tape._recording:
            tape._record(op_def, attrs, inputs, outputs)


def record_variable_read(variable, tensor):
    for tape in _tapes():
        if tape._recording:
            tape._record_read(variable, tensor)


class _TapeEntry:
    __slots__ = ("op_def", "attrs", "inputs", "outputs")

    def __init__(self, op_def, attrs, inputs, outputs):
        self.op_def = op_def
        self.attrs = attrs
        self.inputs = inputs
        self.outputs = outputs


class GradientTape:
    """Context manager recording ops for reverse-mode differentiation.

    Variables are watched automatically when ``watch_accessed_variables``
    is true (the default, matching TF Eager).
    """

    def __init__(self, watch_accessed_variables=True):
        self._entries = []
        self._var_reads = []     # (variable, tensor) pairs
        self._watched = set()    # ids of explicitly watched tensors
        self._watch_vars = watch_accessed_variables
        self._recording = False

    def __enter__(self):
        _tapes().append(self)
        self._recording = True
        return self

    def __exit__(self, exc_type, exc, tb):
        self._recording = False
        stack = _tapes()
        if self in stack:
            stack.remove(self)
        return False

    def watch(self, tensor):
        """Explicitly track a tensor as a differentiation source."""
        self._watched.add(id(tensor))

    def _record(self, op_def, attrs, inputs, outputs):
        self._entries.append(_TapeEntry(op_def, attrs, inputs, outputs))

    def _record_read(self, variable, tensor):
        if self._watch_vars and variable.trainable:
            self._var_reads.append((variable, tensor))
        elif id(variable) in self._watched:
            self._var_reads.append((variable, tensor))

    def gradient(self, target, sources):
        """Gradients of ``target`` w.r.t. each source (Variable or Tensor).

        Returns a list aligned with ``sources``; entries are None when the
        target does not depend on that source.
        """
        single = not isinstance(sources, (list, tuple))
        source_list = [sources] if single else list(sources)

        was_recording = self._recording
        self._recording = False
        try:
            grads = self._compute_gradients(target, source_list)
        finally:
            self._recording = was_recording
        return grads[0] if single else grads

    def _compute_gradients(self, target, sources):
        # Accumulated gradient per tensor id.
        grad_by_id = {id(target): api.ones_like(target)}
        # Keep produced tensors alive so ids stay unique.
        keepalive = [target]

        for entry in reversed(self._entries):
            out_grads = [grad_by_id.get(id(t)) for t in entry.outputs]
            if all(g is None for g in out_grads):
                continue
            filled = [g if g is not None else api.zeros_like(t)
                      for g, t in zip(out_grads, entry.outputs)]
            ctx = GradContext(entry.op_def.name, entry.attrs,
                              entry.inputs, entry.outputs)
            grad_fn = entry.op_def.grad_fn
            if grad_fn is None:
                continue
            in_grads = grad_fn(ctx, filled)
            if len(in_grads) != len(entry.inputs):
                raise ReproError("gradient of %s returned %d grads for %d "
                                 "inputs" % (entry.op_def.name,
                                             len(in_grads),
                                             len(entry.inputs)))
            for tensor, grad in zip(entry.inputs, in_grads):
                if grad is None:
                    continue
                existing = grad_by_id.get(id(tensor))
                total = grad if existing is None else api.add(existing, grad)
                grad_by_id[id(tensor)] = total
                keepalive.append(tensor)

        var_grads = {}
        for variable, tensor in self._var_reads:
            g = grad_by_id.get(id(tensor))
            if g is None:
                continue
            prior = var_grads.get(id(variable))
            var_grads[id(variable)] = g if prior is None else \
                api.add(prior, g)

        results = []
        for source in sources:
            if isinstance(source, Variable):
                results.append(var_grads.get(id(source)))
            else:
                results.append(grad_by_id.get(id(source)))
        return results


def training_step(loss_fn, args, optimizer):
    """One eager training step: run ``loss_fn(*args)`` under a tape,
    differentiate its (first) result with respect to the trainable
    variables it read, apply the gradients; returns what it returned."""
    with GradientTape() as tape:
        result = loss_fn(*args)
    target = result[0] if isinstance(result, (tuple, list)) else result
    variables = list({id(v): v for v, _ in tape._var_reads}.values())
    grads = tape.gradient(target, variables)
    optimizer.apply_gradients(
        [(g, v) for g, v in zip(grads, variables) if g is not None])
    return result
