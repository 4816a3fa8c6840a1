"""Differential suite for gradients through recursion.

Each seed trains one :data:`progen.RECURSE_GRAD_MIX` loss — a recursive
``visit`` over a tree, with an ``if`` on the heap flag ``node.is_leaf``,
whose leaf branch, internal branch or tail mixes a ``Dense`` on
Variables, a heap-counter write, a heap read, dropout and a
``Variable.assign_add`` — under SGD in two arms on identically generated
programs and models: ``janus`` and the imperative ``oracle``
(:class:`~repro.modes.ImperativeStep`).  Every call visits a fresh
random tree, and the random generator is reseeded before every call of
both arms.  After every call the loss, the parameters and the heap the
visit writes must be ``allclose``: a gradient that re-ran a call would
write the counter and the Variable twice and draw a second dropout mask.
"""

import linecache
import random
import threading

import numpy as np

import repro as R
from repro import janus, nn
from repro.modes import ImperativeStep
from repro.ops import random_ops

from progen import (assert_quiescent, gen_recurse_grad_program,
                    random_tree)

#: Seeded programs; each runs both arms.
SEEDS = 100
CALLS = 8


def _trees(seed):
    """Fresh trees, 1 to 5 leaves (two or more while profiling, so both
    arms of the ``if`` are seen before the graph is built)."""
    rng = random.Random(270_000 + seed)
    nprng = np.random.default_rng(270_000 + seed)
    leaves = [rng.randint(2, 5) for _ in range(2)] \
        + [rng.randint(1, 5) for _ in range(CALLS - 2)]
    return [random_tree(nprng, n) for n in leaves]


def _state(m):
    """Parameters and heap, copied."""
    return [m.dense.kernel.numpy().copy(), m.dense.bias.numpy().copy(),
            m.count.numpy().copy(), m.acc.numpy().copy()]


def _run_arm(seed, arm):
    threads_before = threading.active_count()
    loss, m, used, filename = gen_recurse_grad_program(seed, arm)
    opt = nn.SGD(0.01)
    if arm == "janus":
        step = janus.function(loss, optimizer=opt, config=janus.JanusConfig(
            parallel_execution=False, profile_runs=2))
    else:
        step = ImperativeStep(loss, opt)
    trace = []
    try:
        for k, root in enumerate(_trees(seed)):
            random_ops.seed(k)
            out = step(root)
            trace.append([out.numpy().copy()] + _state(m))
        if arm == "janus":
            assert_quiescent([step], threads_before)
    finally:
        linecache.cache.pop(filename, None)
    return trace, used, step


def test_recursion_gradients_match_imperative_on_loss_parameters_and_heap():
    failures, refused = [], []
    graph_runs = 0
    for seed in range(SEEDS):
        got, used, step = _run_arm(seed, "janus")
        want, _, _ = _run_arm(seed, "oracle")
        for k, (row, ref) in enumerate(zip(got, want)):
            if not all(np.allclose(a, b, rtol=1e-5, atol=1e-5)
                       for a, b in zip(row, ref)):
                failures.append((seed, k, used))
                break
        if step.not_convertible_reason is not None:
            refused.append((seed, step.not_convertible_reason))
        graph_runs += step.stats["graph_runs"]
    assert not failures, failures
    assert not refused, refused
    # Most calls after profiling ran as graphs: the gradients and heap
    # above came from graph runs, not from imperative fallbacks.
    assert graph_runs > SEEDS * 4, graph_runs
