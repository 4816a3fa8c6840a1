"""Simulated data-parallel cluster (substrate for paper figure 8).

The paper measures scalability on 6 machines x 6 GPUs.  Here a
:class:`DataParallelSimulator` measures one worker's *real* step time on
this machine, then applies the ring-allreduce cost model to predict the
multi-worker step time under two communication disciplines:

* graph execution (JANUS / symbolic): communication operations live in
  the dataflow graph, so gradient exchange overlaps the remaining
  backward computation — ``t = t_fwd + max(t_bwd, t_comm)``;
* imperative execution: gradients only exist after the tape finishes, so
  communication strictly follows computation — ``t = t_step + t_comm``.

This captures exactly the mechanism the paper credits for the gap in
figure 8 ("TensorFlow Eager does not scale well, due to its inability to
overlap computation and communication").
"""

import time

from ..observability import COUNTERS, TRACER
from .allreduce import AllReduceCostModel


class StepTiming:
    """Measured single-worker cost of one training step."""

    __slots__ = ("total_seconds", "backward_fraction", "grad_bytes",
                 "examples_per_step")

    def __init__(self, total_seconds, grad_bytes, examples_per_step,
                 backward_fraction=0.6):
        self.total_seconds = total_seconds
        self.grad_bytes = grad_bytes
        self.examples_per_step = examples_per_step
        #: Fraction of the step spent in backward ops whose gradient
        #: transfers can overlap (typical 2/3 split fwd:bwd).
        self.backward_fraction = backward_fraction


def measure_step(step_fn, args, warmup=2, iters=5, variables=None,
                 examples_per_step=1):
    """Time a step callable and size its gradient exchange."""
    for _ in range(warmup):
        step_fn(*args)
    start = time.perf_counter()
    for _ in range(iters):
        step_fn(*args)
    total = (time.perf_counter() - start) / iters
    grad_bytes = 0
    if variables:
        grad_bytes = sum(v.storage.array.nbytes for v in variables
                         if v.trainable)
    COUNTERS.labels("distributed.steps_measured").inc()
    if TRACER.level:
        TRACER.complete("distributed", "measure_step", start,
                        time.perf_counter() - start, warmup=warmup,
                        iters=iters, step_ms=round(total * 1e3, 3),
                        grad_bytes=grad_bytes)
    return StepTiming(total, grad_bytes, examples_per_step)


class DataParallelSimulator:
    """Predicts multi-worker throughput from a measured single step."""

    def __init__(self, cost_model=None):
        self.cost_model = cost_model or AllReduceCostModel()

    def step_seconds(self, timing, workers, overlap):
        comm = self.cost_model.allreduce_seconds(timing.grad_bytes,
                                                 workers)
        if workers == 1:
            result = timing.total_seconds
        elif overlap:
            fwd = timing.total_seconds * (1 - timing.backward_fraction)
            bwd = timing.total_seconds * timing.backward_fraction
            result = fwd + max(bwd, comm)
        else:
            result = timing.total_seconds + comm
        if TRACER.level:
            TRACER.instant("distributed", "simulated_step",
                           workers=workers, overlap=overlap,
                           comm_ms=round(comm * 1e3, 4),
                           step_ms=round(result * 1e3, 4))
        return result

    def throughput(self, timing, workers, overlap):
        """Examples/second across the whole simulated cluster."""
        per_step = self.step_seconds(timing, workers, overlap)
        return workers * timing.examples_per_step / per_step

    def scale_factor(self, timing, workers, overlap):
        """Multi-GPU throughput / (single-GPU throughput x workers)."""
        single = self.throughput(timing, 1, overlap)
        multi = self.throughput(timing, workers, overlap)
        return multi / (single * workers)
