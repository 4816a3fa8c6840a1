"""Differential suite for the executed form: fused vs unfused vs oracle.

Elementwise fusion (docs/compilation.md, "Mechanism 4") rewrites a
top-level graph — chains of elementwise ops become generated-source
kernels — without changing semantics.  The strongest statement of that
claim is differential: the same randomized heap-mutating programs the
write-barrier suite uses (:mod:`test_write_barrier_differential`) must
produce bit-for-bit identical results whether a JANUS function runs the
fused graph or the per-op graph — and both must match the pure
imperative oracle after every mutation.

There is no product switch for the unfused arm: the test builds it by
monkeypatching ``compile_generated``'s ``fuse_graph`` to a no-op while
that arm compiles.  The generator is imported from :mod:`progen`, not
copied: any program shape or mutation kind added there automatically
extends this suite.  Each seed runs both arms on identical inputs
through warmup, a mutation storm, and the post-regeneration calls;
besides equality, the fused arm must prove fusion actually engaged and
the unfused arm that it did not, so a silently disabled fusion cannot
green the suite.
"""

import linecache
import random

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.janus import compiled as compiled_mod
from repro.observability import (clear, counter_values, set_trace_level,
                                 trace_level)

from progen import (apply_mutation as _apply_mutation,
                    gen_program as _gen_program,
                    mutation_pool as _mutation_pool, vec as _vec)

#: Seeded programs; each runs a fused and an unfused arm.
SEEDS = 30


def counters():
    return counter_values()


@pytest.fixture(autouse=True)
def _traced():
    prev = trace_level()
    set_trace_level(max(prev, 1))
    try:
        yield
    finally:
        set_trace_level(prev)
        clear()


def _fused_ops():
    return counters().get("lowering.fused_ops", 0)


def _run_arms(seed, monkeypatch):
    """One generated program, two arms on identical call sequences.

    Returns the per-call outputs of the fused arm, the unfused arm, and
    the imperative oracle, aligned call for call, plus the ops each arm
    fused across all of its compiles.  Heap mutations are applied to both arms' models from one mutation plan
    (each arm owns its model instance, regenerated from the same seed,
    so the arms cannot observe each other's guard fallout).
    """
    outs = {"fused": [], "unfused": [], "oracle": []}
    fused_ops = {"fused": 0, "unfused": 0}
    plans = None
    for arm in ("fused", "unfused"):
        prog, m, used, has_branch, filename = _gen_program(
            seed, "fusediff-%s" % arm)
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

        fused_before = _fused_ops()
        with monkeypatch.context() as patch:
            if arm == "unfused":
                patch.setattr(compiled_mod, "fuse_graph", lambda graph: 0)
            try:
                for _ in range(4):
                    out = f(state["x"])
                    outs[arm].append(out.numpy())
                    if arm == "fused":
                        outs["oracle"].append(f.func(state["x"]).numpy())
                assert f.stats["graph_runs"] > 0, (seed, arm, f.stats)
                for kind in plan:
                    _apply_mutation(kind, m, nprng, state)
                    for _ in range(2):
                        out = f(state["x"])
                        outs[arm].append(out.numpy())
                        if arm == "fused":
                            outs["oracle"].append(
                                f.func(state["x"]).numpy())
                fused_ops[arm] = _fused_ops() - fused_before
            finally:
                linecache.cache.pop(filename, None)
    return outs, fused_ops


def test_fused_vs_unfused_vs_imperative(monkeypatch):
    totals = {"fused": 0, "unfused": 0}
    for seed in range(SEEDS):
        outs, fused_ops = _run_arms(seed, monkeypatch)
        assert len(outs["fused"]) == len(outs["unfused"]) \
            == len(outs["oracle"])
        for k, (fu, un, im) in enumerate(zip(outs["fused"],
                                             outs["unfused"],
                                             outs["oracle"])):
            assert np.array_equal(fu, un), (seed, k, "fused!=unfused")
            assert np.array_equal(fu, im), (seed, k, "fused!=oracle")
        for arm in totals:
            totals[arm] += fused_ops[arm]
    # The fused arms must actually have fused kernels, and the unfused
    # arms must actually have run per-op graphs.
    assert totals["fused"] > 0
    assert totals["unfused"] == 0


def test_fusion_engages_across_generated_programs():
    """At least some generated programs contain fusable chains."""
    before = counters()
    for seed in range(6):
        prog, m, used, has_branch, filename = _gen_program(seed, "fuse")
        nprng = np.random.default_rng(40_000 + seed)
        cfg = janus.JanusConfig(fail_on_not_convertible=True,
                                parallel_execution=False, profile_runs=2)
        f = janus.function(config=cfg)(prog)
        x = R.constant(np.abs(_vec(nprng)) + 0.1)
        try:
            for _ in range(4):
                out = f(x)
                assert np.array_equal(out.numpy(), f.func(x).numpy()), seed
        finally:
            linecache.cache.pop(filename, None)
    assert counters().get("lowering.fused_ops", 0) \
        > before.get("lowering.fused_ops", 0)
