"""Differential suite for loop gradients.

Each seed trains one :data:`progen.LOOP_GRAD_MIX` loss — a ``for t in
range(len(xs))`` loop whose body mixes a ``Dense`` on Variables, a
heap-counter write, a heap read, dropout, a ``Variable.assign_add`` and
a nested ``for k in range(2)`` loop — under SGD in two arms on
identically generated programs and models: ``janus`` and the imperative
``oracle`` (:class:`~repro.modes.ImperativeStep`).  Batch lengths vary
call to call and include 0, so the loop is a dynamic ``while`` and some
graph runs never enter it.  The random generator is reseeded before
every call of both arms.  After every call the loss, the parameters and
the heap the body writes must be ``allclose``: a loop gradient that
re-ran its forward body would write the counter and the Variable twice
and draw a second dropout mask.
"""

import linecache
import random
import threading

import numpy as np

import repro as R
from repro import janus, nn
from repro.modes import ImperativeStep
from repro.ops import random_ops

from progen import assert_quiescent, gen_loop_grad_program

#: Seeded programs; each runs both arms.
SEEDS = 100
CALLS = 8


def _lengths(seed):
    """Batch lengths: two distinct non-zero ones to profile on, then
    draws from 0..5 with at least one 0."""
    rng = random.Random(240_000 + seed)
    lengths = rng.sample([1, 2, 3, 4, 5], 2)
    rest = [rng.randint(0, 5) for _ in range(CALLS - 3)] + [0]
    rng.shuffle(rest)
    return lengths + rest


def _state(m):
    """Parameters and heap, copied."""
    return [m.dense.kernel.numpy().copy(), m.dense.bias.numpy().copy(),
            m.count.numpy().copy(), m.acc.numpy().copy()]


def _run_arm(seed, arm):
    threads_before = threading.active_count()
    loss, m, used, filename = gen_loop_grad_program(seed, arm)
    nprng = np.random.default_rng(250_000 + seed)
    batches = [nprng.normal(size=(n, 4)).astype(np.float32)
               for n in _lengths(seed)]
    opt = nn.SGD(0.05)
    if arm == "janus":
        step = janus.function(loss, optimizer=opt, config=janus.JanusConfig(
            parallel_execution=False, profile_runs=2))
    else:
        step = ImperativeStep(loss, opt)
    trace = []
    try:
        for k, xs in enumerate(batches):
            random_ops.seed(k)
            out = step(R.constant(xs))
            trace.append([out.numpy().copy()] + _state(m))
        if arm == "janus":
            assert_quiescent([step], threads_before)
    finally:
        linecache.cache.pop(filename, None)
    return trace, used, getattr(step, "stats", None)


def test_loop_gradients_match_imperative_on_loss_parameters_and_heap():
    failures = []
    graph_runs = 0
    for seed in range(SEEDS):
        got, used, stats = _run_arm(seed, "janus")
        want, _, _ = _run_arm(seed, "oracle")
        for k, (row, ref) in enumerate(zip(got, want)):
            if not all(np.allclose(a, b, rtol=1e-5, atol=1e-5)
                       for a, b in zip(row, ref)):
                failures.append((seed, k, used))
                break
        graph_runs += stats["graph_runs"]
    assert not failures, failures
    # Most calls after profiling ran as graphs: the gradients and heap
    # above came from graph runs, not from imperative fallbacks.
    assert graph_runs > SEEDS * 4, graph_runs
