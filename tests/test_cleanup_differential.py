"""Differential suite for clean-up code around non-local exits.

The write-barrier suite's oracle — the plain imperative function — on a
construct mix the other seeded suites never generate
(:data:`progen.CLEANUP_MIX`): ``try/finally`` with a heap or Variable
write around an early ``return``, a ``with`` over a model-owned context
manager (plain and around a ``return``), ``continue`` inside
``try/finally`` in a short loop, and ``sum(parts, start)``.  Clean-up
code is all side effect, so outputs alone prove little: each seed runs
two arms on identically generated programs and models — ``janus`` and
the imperative ``oracle`` — through warm-up and a storm of interleaved
heap mutations (early returns flip with ``gain_change``), and after
every call both the output and the model heap the programs write must
be ``np.array_equal``.
"""

import linecache
import random
import threading

import numpy as np

import repro as R
from repro import janus

from progen import (CLEANUP_MIX, apply_mutation, assert_quiescent,
                    gen_program, mutation_pool, vec)

#: Seeded programs; each runs both arms.
SEEDS = 100


def _heap(m):
    """Everything the clean-up constructs write."""
    return [m.ticks.numpy().copy(), m.seen.numpy().copy(),
            m.gate.entered.numpy().copy(), m.gate.exits.numpy().copy()]


def _run_arm(seed, arm):
    """One arm's (output, heap) per call, and its stats."""
    threads_before = threading.active_count()
    prog, m, used, has_branch, filename = gen_program(
        seed, "clean-%s" % arm, mix=CLEANUP_MIX)
    rng = random.Random(13_000 + seed)
    nprng = np.random.default_rng(190_000 + seed)
    x_pos = R.constant(np.abs(vec(nprng)) + 0.1)
    state = {"x": x_pos, "x_neg": R.constant(-(x_pos.numpy()))}
    pool = mutation_pool(used, has_branch)
    rng.shuffle(pool)
    stats = None
    if arm == "janus":
        # Not strict: once ``gain_change`` has made ``m.gain`` a dynamic
        # read, an early return under it no longer converts whole and
        # the function co-executes — which must match the oracle too.
        prog = janus.function(config=janus.JanusConfig(
            parallel_execution=False, profile_runs=2))(prog)
        stats = prog.stats
    trace = []

    def call():
        out = prog(state["x"])
        trace.append((out.numpy().copy(), _heap(m)))

    try:
        for _ in range(4):
            call()
        # Every program converts whole while its profile is stable.
        assert stats is None or stats["graph_runs"] == 2, (seed, stats)
        for kind in pool[:rng.randint(1, min(3, len(pool)))]:
            apply_mutation(kind, m, nprng, state)
            # The first call absorbs a guard trip + fallback, the
            # second and third run the regenerated graph.
            for _ in range(3):
                call()
        if arm == "janus":
            assert_quiescent([prog], threads_before)
    finally:
        linecache.cache.pop(filename, None)
    return trace, stats


def test_cleanup_programs_match_imperative_on_outputs_and_heap():
    graph_runs = 0
    for seed in range(SEEDS):
        got, stats = _run_arm(seed, "janus")
        want, _ = _run_arm(seed, "oracle")
        assert len(got) == len(want)
        for k, ((out, heap), (ref_out, ref_heap)) in enumerate(
                zip(got, want)):
            assert np.array_equal(out, ref_out), (seed, k, stats)
            for a, b in zip(heap, ref_heap):
                assert np.array_equal(a, b), (seed, k, heap, ref_heap)
        graph_runs += stats["graph_runs"]
    # Most calls of most programs ran as graphs: the heaps above were
    # written by graph runs, not by fallbacks.
    assert graph_runs > SEEDS * 4
