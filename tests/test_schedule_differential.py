"""Differential suite for the level schedule: in order vs fanned out vs
measured vs the imperative oracle.

The other seeded suites set ``parallel_execution=False``; this one is
about the schedule default users run (docs/compilation.md, "The level
schedule (+PARL)").  A level with two heavy ops is measured both ways
over its first runs and keeps whichever schedule won — which is only
sound because both schedules run the same closures on the same slots.
The strongest statement of that is differential: seeded programs from
:mod:`progen` with two-matmul levels planted in them
(:data:`progen.SCHEDULE_MIX`; some commit a heavy result to the heap or
a Variable) run four ways on identical call sequences —

* ``seq``      — ``parallel_execution=False``, the in-order loop;
* ``pinned``   — every candidate level pinned to fan-out before its
  first run, so every graph run goes through the thread pool;
* ``measured`` — the default: trials, then whatever verdicts land;
* ``oracle``   — the plain imperative function

— through warm-up, a storm of injected heap mutations (guard failures,
fallbacks and regenerations included) and the calls after it.  Outputs
must be ``np.array_equal`` call for call, and so must the committed heap
and variable state after every call.  Each arm also has to prove it ran
the schedule it claims, so a silently sequential ``pinned`` arm cannot
green the suite.
"""

import linecache
import random

import numpy as np
import pytest

import repro as R
from repro import host, janus
from repro.graph import executor as executor_mod
from repro.janus import compiled as compiled_mod
from repro.observability import counter_values

from progen import (SCHEDULE_MIX, apply_mutation, gen_program,
                    mutation_pool, vec)

#: Seeded programs; each runs all four arms.
SEEDS = 60

ARMS = ("seq", "pinned", "measured", "oracle")


@pytest.fixture(autouse=True)
def two_cores(monkeypatch):
    """The schedule needs two usable CPUs; pretend, so one-CPU CI runs
    the fan-out arms too."""
    monkeypatch.setattr(host, "usable_cpus", lambda: 2)


def _pinned_executor(*args, **kwargs):
    executor = executor_mod.GraphExecutor(*args, **kwargs)
    for level in executor._candidates:
        level.verdict = True
    return executor


def _executors(f):
    return [entry.compiled.executor for _sig, entry in f.cache.entries()]


def _committed(m):
    """The heap and variable state the programs write."""
    return [m.acc.numpy().copy(), m.state.numpy().copy()]


def _run_arm(seed, arm, monkeypatch, fan_outs):
    """One arm's outputs and committed state, call for call."""
    prog, m, used, has_branch, filename = gen_program(
        seed, "sched-%s" % arm, mix=SCHEDULE_MIX)
    rng = random.Random(11_000 + seed)
    nprng = np.random.default_rng(130_000 + seed)
    x_pos = R.constant(np.abs(vec(nprng)) + 0.1)
    state = {"x": x_pos, "x_neg": R.constant(-(x_pos.numpy()))}
    pool = mutation_pool(used, has_branch)
    rng.shuffle(pool)
    plan = pool[:rng.randint(1, min(3, len(pool)))]

    if arm == "oracle":
        f = call = prog
    else:
        cfg = janus.JanusConfig(fail_on_not_convertible=True,
                                parallel_execution=arm != "seq",
                                profile_runs=2)
        f = call = janus.function(config=cfg)(prog)

    outs, heaps = [], []
    fan_outs_before = fan_outs[0]
    with monkeypatch.context() as patch:
        if arm == "pinned":
            patch.setattr(compiled_mod, "GraphExecutor", _pinned_executor)
        try:
            # Warm-up is long enough for the measured arm's first trials.
            for kind in [None] * 7 + plan:
                if kind is not None:
                    apply_mutation(kind, m, nprng, state)
                for _ in range(1 if kind is None else 2):
                    outs.append(call(state["x"]).numpy())
                    heaps.append(_committed(m))
        finally:
            linecache.cache.pop(filename, None)

    proof = {"fan_outs": fan_outs[0] - fan_outs_before}
    if arm != "oracle":
        assert f.stats["graph_runs"] > 0, (seed, arm, f.stats)
        executors = _executors(f)
        proof["candidates"] = sum(len(e._candidates) for e in executors)
        if arm == "seq":
            assert not proof["candidates"] and not proof["fan_outs"]
        if arm == "pinned":
            assert all(level.verdict is True for e in executors
                       for level in e._candidates), seed
            assert all(e.parallel for e in executors if e._candidates)
    return plan, outs, heaps, proof


def test_in_order_vs_fanned_out_vs_measured_vs_imperative(monkeypatch):
    fan_outs = [0]
    run_level = executor_mod._run_level

    def counting_run_level(fns, fan_out, values, run_state):
        fan_outs[0] += bool(fan_out)
        return run_level(fns, fan_out, values, run_state)
    monkeypatch.setattr(executor_mod, "_run_level", counting_run_level)

    before = counter_values()
    totals = {arm: {"fan_outs": 0, "candidates": 0} for arm in ARMS}
    for seed in range(SEEDS):
        runs = {arm: _run_arm(seed, arm, monkeypatch, fan_outs)
                for arm in ARMS}
        plan, want_outs, want_heaps, _ = runs["oracle"]
        for arm in ARMS:
            arm_plan, outs, heaps, proof = runs[arm]
            assert arm_plan == plan, (seed, arm, "mutation plans diverged")
            assert len(outs) == len(want_outs)
            for k, (got, want) in enumerate(zip(outs, want_outs)):
                assert np.array_equal(got, want), (seed, arm, k, "output")
            for k, (got, want) in enumerate(zip(heaps, want_heaps)):
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (seed, arm, k, "heap")
            for key, value in proof.items():
                totals[arm][key] += value

    # Every arm ran the schedule it stands for.
    assert totals["pinned"]["candidates"] >= SEEDS
    assert totals["pinned"]["fan_outs"] >= SEEDS
    assert totals["measured"]["candidates"] >= SEEDS
    assert totals["measured"]["fan_outs"] > 0        # its "par" trials
    assert totals["seq"]["fan_outs"] == totals["oracle"]["fan_outs"] == 0
    after = counter_values()
    landed = sum(after.get(name, 0) - before.get(name, 0)
                 for name in ("executor.levels_parallel",
                              "executor.levels_sequential"))
    assert landed > 0       # only the measured arm lands verdicts
