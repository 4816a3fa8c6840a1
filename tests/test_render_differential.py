"""Differential suite for the executed form: rendered vs one-node
regions vs oracle.

Each executor runs in order as one generated function
(docs/compilation.md, "Mechanism 4"), which keeps an op's result only
in a local when nothing but later lines of its region read it, and
splits a long program into regions.  That is an encoding change, not a
semantic one.  The strongest statement of that is differential: the
same randomized heap-mutating programs the write-barrier suite uses
(:mod:`test_write_barrier_differential`) must produce bit-for-bit
identical results whether a JANUS function runs the rendered programs
or loops over their nodes rendered one at a time with every result
stored — and both must match the pure imperative oracle, the suite's
reference, after every mutation.

There is no product switch for the one-node arm: the test builds it by
patching ``executor._render`` while that arm compiles
(:func:`progen.one_node_loops`).  The generator is imported from
:mod:`progen`, not copied: any program shape or mutation kind added
there automatically extends this suite.  Each seed runs both arms on
identical inputs through warmup, a mutation storm, and the
post-regeneration calls; besides equality, the rendered arm must prove
that it kept ops in locals and the one-node arm that its loops ran, so
a silently disabled elision cannot green the suite.
"""

import linecache
import random

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.observability import clear, set_trace_level, trace_level

from progen import (apply_mutation as _apply_mutation, one_node_loops,
                    gen_program as _gen_program,
                    mutation_pool as _mutation_pool, vec as _vec)

#: Seeded programs; each runs a rendered and a one-node arm.
SEEDS = 30


@pytest.fixture(autouse=True)
def _traced():
    prev = trace_level()
    set_trace_level(max(prev, 1))
    try:
        yield
    finally:
        set_trace_level(prev)
        clear()


def _run_arms(seed, monkeypatch):
    """One generated program, two arms on identical call sequences.

    Returns the per-call outputs of the rendered arm, the one-node arm,
    and the imperative oracle, aligned call for call, plus the ops the
    rendered arm's programs keep only in locals and the runs of the
    one-node arm's loops.  Heap mutations are applied to both arms'
    models from one mutation plan (each arm owns its model instance,
    regenerated from the same seed, so the arms cannot observe each
    other's guard fallout).
    """
    outs = {"rendered": [], "one_node": [], "oracle": []}
    proof = {}
    plans = None
    for arm in ("rendered", "one_node"):
        prog, m, used, has_branch, filename = _gen_program(
            seed, "renderdiff-%s" % arm)
        rng = random.Random(9_000 + seed)
        nprng = np.random.default_rng(30_000 + seed)
        cfg = janus.JanusConfig(fail_on_not_convertible=True,
                                parallel_execution=False,
                                profile_runs=2)
        f = janus.function(config=cfg)(prog)

        x_pos = R.constant(np.abs(_vec(nprng)) + 0.1)
        state = {"x": x_pos, "x_neg": R.constant(-(x_pos.numpy()))}

        pool = _mutation_pool(used, has_branch)
        rng.shuffle(pool)
        plan = pool[:rng.randint(1, min(3, len(pool)))]
        if plans is None:
            plans = plan
        else:
            assert plan == plans, (seed, "arms diverged on mutation plan")

        local_ops = 0
        with monkeypatch.context() as patch:
            loops = one_node_loops(patch) if arm == "one_node" else []
            try:
                for _ in range(4):
                    out = f(state["x"])
                    outs[arm].append(out.numpy())
                    if arm == "rendered":
                        outs["oracle"].append(f.func(state["x"]).numpy())
                assert f.stats["graph_runs"] > 0, (seed, arm, f.stats)
                local_ops += sum(entry.compiled.fused_ops
                                 for _, entry in f.cache.entries())
                for kind in plan:
                    _apply_mutation(kind, m, nprng, state)
                    for _ in range(2):
                        out = f(state["x"])
                        outs[arm].append(out.numpy())
                        if arm == "rendered":
                            outs["oracle"].append(
                                f.func(state["x"]).numpy())
            finally:
                linecache.cache.pop(filename, None)
        proof[arm] = local_ops if arm == "rendered" \
            else sum(loop.runs for loop in loops)
    return outs, proof


def test_rendered_vs_closures_vs_imperative(monkeypatch):
    totals = {"rendered": 0, "one_node": 0}
    for seed in range(SEEDS):
        outs, proof = _run_arms(seed, monkeypatch)
        assert len(outs["rendered"]) == len(outs["one_node"]) \
            == len(outs["oracle"])
        for k, (ren, one, imp) in enumerate(zip(outs["rendered"],
                                                outs["one_node"],
                                                outs["oracle"])):
            assert np.array_equal(ren, one), (seed, k, "rendered!=one_node")
            assert ren.dtype == one.dtype, (seed, k, ren.dtype, one.dtype)
            assert np.array_equal(ren, imp), (seed, k, "rendered!=oracle")
        for arm in totals:
            totals[arm] += proof[arm]
    # The rendered arms must actually have kept ops in locals, and the
    # one-node arms must actually have run their loops.
    assert totals["rendered"] > 0
    assert totals["one_node"] > 0
