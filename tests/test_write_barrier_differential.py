"""Differential mutation-guard suite for the tensor write barrier.

The write barrier lets the executor's identity memo cover heap Tensor
reads: a sealed ``TensorValue`` cannot change content without bumping
its ``version``, so a guarded ``py_get_attr`` read that sees the same
``(identity, version)`` pair skips re-internalization entirely.  That
optimization is only sound if *every* way a program can change the
value a graph speculated on is either caught by a guard or flows
through legitimately (live-buffer aliasing for unsealed arrays,
``var_read`` for Variables).

This suite checks exactly that, differentially: a seeded generator
builds small programs over a heap model object — mixing Tensor
attributes, raw ndarray attributes, aliased attributes, burned scalar
attributes, Variables, and input-dependent branches — runs them under
``janus.function``, then interleaves randomized mutations (in-place
ndarray writes, sanctioned ``Tensor.add_``, same-shape and
shape-changing attribute rebinding, scalar rebinding, Variable
assignment, branch-direction flips) between calls.  After every call
the JANUS result must match the pure imperative oracle (``f.func``)
bit-for-bit, and every mutation of guarded state must trip a guard
(``fallbacks``) or stale the memo (``executor.memo_stale``).

There is one path (the barrier and incremental regeneration are not
options), so ``SEEDS`` distinct programs run on it: >= 200 programs.
"""

import linecache
import random

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.observability import (clear, counter_values, set_trace_level,
                                 trace_level)
from repro.tensor import TensorValue

#: Generated programs, each a distinct seed: >= 200.
SEEDS = 208


def counters():
    return counter_values()


def delta(before, key):
    return counters().get(key, 0) - before.get(key, 0)


@pytest.fixture(autouse=True)
def _traced():
    # Run traced at level 1, the cheap lifecycle tier.
    prev = trace_level()
    set_trace_level(max(prev, 1))
    try:
        yield
    finally:
        set_trace_level(prev)
        clear()


# -- program generator / mutations (shared; see tests/progen.py) ------------

from progen import (GUARDED as _GUARDED,                # noqa: E402
                    apply_mutation as _apply_mutation,
                    gen_program as _gen_program,
                    mutation_pool as _mutation_pool, vec as _vec)

# -- the differential run ----------------------------------------------------

def _assert_matches_oracle(f, out, x, ctx):
    expect = f.func(x)
    assert np.array_equal(out.numpy(), expect.numpy()), ctx


def _run_program(seed):
    prog, m, used, has_branch, filename = _gen_program(seed)
    rng = random.Random(7_000 + seed)
    nprng = np.random.default_rng(20_000 + seed)
    cfg = janus.JanusConfig(fail_on_not_convertible=True,
                            parallel_execution=False,
                            profile_runs=2)
    f = janus.function(config=cfg)(prog)

    x_pos = R.constant(np.abs(_vec(nprng)) + 0.1)
    state = {"x": x_pos, "x_neg": R.constant(-(x_pos.numpy()))}

    try:
        # Warm: profile, generate, and get at least one real graph run
        # with a stable branch direction.
        for k in range(4):
            out = f(state["x"])
            _assert_matches_oracle(f, out, state["x"], (seed, "warm", k))
        assert f.stats["graph_runs"] > 0, (seed, f.stats)

        tracked_after_warm = m.t.value.tracked if "t" in used else None

        pool = _mutation_pool(used, has_branch)
        rng.shuffle(pool)
        for kind in pool[:rng.randint(1, min(3, len(pool)))]:
            before_counters = counters()
            before_fallbacks = f.stats["fallbacks"]
            before_generated = f.stats["graphs_generated"]
            _apply_mutation(kind, m, nprng, state)
            # Two calls: the first absorbs any guard trip + fallback,
            # the second runs (and flushes) the regenerated graph.
            for k in range(2):
                out = f(state["x"])
                _assert_matches_oracle(f, out, state["x"], (seed, kind, k))
            # A caught mutation shows up as a runtime fallback, a stale
            # memo transition, or a re-specialization (bound-arg
            # prechecks reroute to a fresh graph before any assert op
            # can fire — still the guard machinery catching it).
            signal = (f.stats["fallbacks"] - before_fallbacks
                      + f.stats["graphs_generated"] - before_generated
                      + delta(before_counters, "executor.memo_stale"))
            if kind in _GUARDED:
                assert signal >= 1, (seed, kind, f.stats)
    finally:
        linecache.cache.pop(filename, None)
    return tracked_after_warm


def test_generated_programs_match_imperative():
    before = counters()
    tracked_any = False
    for seed in range(SEEDS):
        tracked_any = bool(_run_program(seed)) or tracked_any

    # The memo must actually engage across the run: hits on steady
    # state, stale transitions on mutations, and at least one program
    # whose Tensor attribute got sealed.
    assert delta(before, "executor.memo_hit") > 0
    assert delta(before, "executor.memo_stale") > 0
    assert tracked_any


# -- targeted mechanics ------------------------------------------------------

class TestWriteBarrierMechanics:
    def test_track_seals_and_direct_write_raises(self):
        tv = TensorValue.of(np.arange(4, dtype=np.float32))
        assert tv.track()
        assert tv.tracked
        assert not tv.array.flags.writeable
        with pytest.raises(ValueError):
            tv.array[0] = 9.0

    def test_track_refuses_views(self):
        base = np.arange(8, dtype=np.float32)
        tv = TensorValue(base[2:6])
        assert not tv.track()
        assert tv.array.flags.writeable

    def test_inplace_write_on_sealed_copies_and_bumps_version(self):
        tv = TensorValue.of(np.arange(4, dtype=np.float32))
        tv.track()
        sealed = tv.array
        tv.inplace_write(lambda dst: np.add(dst, 1.0, out=dst))
        assert tv.version == 1
        assert tv.array is not sealed                  # copy-on-write
        assert tv.array.flags.writeable
        assert np.array_equal(sealed, np.arange(4, dtype=np.float32))
        assert np.array_equal(tv.array, np.arange(4, dtype=np.float32) + 1)

    def test_inplace_write_unsealed_mutates_in_place(self):
        tv = TensorValue.of(np.arange(4, dtype=np.float32))
        buf = tv.array
        tv.inplace_write(lambda dst: np.add(dst, 1.0, out=dst))
        assert tv.array is buf
        assert tv.version == 1

    def test_copy_is_private_and_writable(self):
        tv = TensorValue.of(np.arange(4, dtype=np.float32))
        tv.track()
        dup = tv.copy()
        assert not dup.tracked
        assert dup.array.flags.writeable
        dup.array[0] = 5.0                             # no ValueError

    def test_eager_inplace_ops_bump_version_and_match_numpy(self):
        t = R.constant(np.arange(4, dtype=np.float32))
        t.add_(1.0).mul_(2.0).sub_(0.5)
        assert t.value.version == 3
        expect = (np.arange(4, dtype=np.float32) + 1.0) * 2.0 - 0.5
        assert np.array_equal(t.numpy(), expect)
        t.assign_(np.zeros(4, np.float32))
        assert t.value.version == 4
        assert np.array_equal(t.numpy(), np.zeros(4, np.float32))

    def test_variable_assign_bumps_variable_version(self):
        v = R.Variable(np.arange(4, dtype=np.float32))
        assert v.version == 0
        v.assign(R.constant(np.ones(4, np.float32)))
        assert v.version == 1
        v.assign_add(R.constant(np.ones(4, np.float32)))
        assert v.version == 2
