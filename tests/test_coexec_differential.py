"""Randomized three-way differential for imperative–symbolic co-execution.

The co-execution planner (docs/coexecution.md) splits a function that
cannot convert whole into symbolic fragments and imperative gaps.  The
claim that must hold bit-for-bit is: the alternating schedule computes
exactly what the un-split function computes — through warmup, dynamic
plan refinement, heap-mutation storms, and gradient tapes recording
across handoff boundaries.

Every seed generates one program from :data:`progen.COEXEC_MIX` — the
full construct pool with unsupported constructs (``.numpy()``
materialization into opaque list mutation, dict mutation through a
sourceless helper, third-party-style sourceless calls, generator
expressions) injected at random positions — and runs three arms:

* **co-executed** — ``coexecution=True``: the plan must engage
  (``coexec_runs`` > 0) with at least one symbolic fragment,
* **whole-function imperative** — ``coexecution=False``: the classic
  all-or-nothing verdict,
* **full-graph** — the same seed's program *without* injection, which
  converts whole: it must run real graphs with the planner never
  engaging (co-execution is a no-op for convertible functions).

After every call, every arm must match the pure imperative oracle
bit-for-bit; when the injected constructs are pure observers (no
``thirdparty`` feedback into the tensor flow), the full-graph arm must
also agree with the injected arms.  Each arm's counters must conserve
exactly: ``calls == graph_runs + imperative_runs + coexec_runs``, and
the parent's ``coexec_fragment_runs`` must equal the sum of its
fragments' ``graph_runs``.  Programs reading a Variable additionally
check gradient parity: a GradientTape recording through the co-executed
schedule must produce the same gradients as one recording the plain
function.
"""

import linecache
import random

import numpy as np
import pytest

import repro as R
from repro import janus
from repro import observability as obs
from repro.observability.health import HEALTH

from progen import (COEXEC_MIX, Mix, apply_mutation, gen_program,
                    mutation_pool, vec)

#: Seeded programs; the issue floor is 40.
SEEDS = 44

#: Same streams as COEXEC_MIX (offset + separate injection rng) minus
#: the injection itself: the convertible "full-graph" sibling.
BASE_MIX = Mix(nprng_offset=COEXEC_MIX.nprng_offset,
               filename_prefix="coexbase")


def _make(seed, tag, mix, coexecution):
    prog, m, used, has_branch, filename = gen_program(seed, tag=tag,
                                                      mix=mix)
    cfg = janus.JanusConfig(profile_runs=2, parallel_execution=False,
                            coexecution=coexecution)
    return janus.function(config=cfg)(prog), m, used, has_branch, filename


def _injected_names(seed, mix):
    """Which INJECTIONS this seed planted (mirrors gen_program's rng)."""
    from progen import INJECTIONS
    irng = random.Random(90_000 + seed)
    picks = sorted(mix.inject)
    irng.shuffle(picks)
    return set(picks[:irng.randint(1, min(2, len(picks)))])


def _run_seed(seed):
    co, m_co, used, has_branch, f_co = _make(seed, "co", COEXEC_MIX, True)
    imp, m_imp, _, _, f_imp = _make(seed, "imp", COEXEC_MIX, False)
    oracle, m_or, _, _, f_or = _make(seed, "or", COEXEC_MIX, True)
    full, m_full, _, _, f_full = _make(seed, "full", BASE_MIX, True)
    files = [f_co, f_imp, f_or, f_full]
    injected = _injected_names(seed, COEXEC_MIX)
    observers_only = "thirdparty" not in injected

    in_rng = np.random.default_rng(95_000 + seed)
    x_pos = R.constant(np.abs(vec(in_rng)) + 0.1)
    x_neg = R.constant(-(x_pos.numpy()))
    # Per-arm mutation state (x-flip is a state mutation); the tensors
    # themselves are shared read-only.
    states = [{"x": x_pos, "x_neg": x_neg} for _ in range(4)]
    st_co, st_imp, st_or, st_full = states
    # Identically-seeded value streams so each arm's model mutates to
    # the same content.
    nprngs = [np.random.default_rng(96_000 + seed) for _ in range(4)]

    def check(ctx):
        expect = oracle.func(st_or["x"])
        out_co = co(st_co["x"])
        out_imp = imp(st_imp["x"])
        out_full = full(st_full["x"])
        assert np.array_equal(out_co.numpy(), expect.numpy()), (seed, ctx)
        assert np.array_equal(out_imp.numpy(), expect.numpy()), (seed, ctx)
        if observers_only:
            assert np.array_equal(out_full.numpy(), expect.numpy()), \
                (seed, ctx)
        else:
            base_expect = full.func(st_full["x"])
            assert np.array_equal(out_full.numpy(), base_expect.numpy()), \
                (seed, ctx)

    try:
        for k in range(5):
            check(("warm", k))

        rng = random.Random(7_500 + seed)
        pool = mutation_pool(used, has_branch)
        rng.shuffle(pool)
        for kind in pool[:rng.randint(1, min(3, len(pool)))]:
            for m, nprng, state in zip((m_co, m_imp, m_or, m_full),
                                       nprngs, states):
                apply_mutation(kind, m, nprng, state)
            for k in range(2):
                check((kind, k))

        # Gradient parity through handoff boundaries: a recording tape
        # must see every op of the co-executed schedule.
        if "var" in used:
            with R.GradientTape() as tape:
                loss = co(st_co["x"])
            g_co = tape.gradient(loss, [m_co.var])[0]
            with R.GradientTape() as tape:
                loss = oracle.func(st_or["x"])
            g_or = tape.gradient(loss, [m_or.var])[0]
            assert g_co is not None and g_or is not None, (seed,)
            assert np.array_equal(g_co.numpy(), g_or.numpy()), (seed,)

        # -- per-arm accounting ------------------------------------------
        for f in (co, imp, full):
            s = f.stats
            assert s["calls"] == s["graph_runs"] + s["imperative_runs"] \
                + s["coexec_runs"], (seed, f.__name__, s)

        # Co-executed arm: the plan engaged with >= 1 symbolic fragment,
        # and fragment accounting is exact.
        assert co.stats["coexec_runs"] >= 1, (seed, co.stats)
        plan = co.coexec_plan
        assert plan is not None, (seed, co.stats)
        frags = plan.fragment_functions()
        assert len(frags) >= 1, (seed,)
        assert co.stats["coexec_fragment_runs"] == \
            sum(fr.stats["graph_runs"] for fr in frags), \
            (seed, co.stats, [fr.stats for fr in frags])
        assert 0.0 < plan.converted_ratio < 1.0, (seed,
                                                  plan.converted_ratio)

        # Whole-imperative arm: the classic verdict, no co-execution.
        assert imp.imperative_only, (seed,)
        assert imp.stats["coexec_runs"] == 0, (seed, imp.stats)

        # Full-graph arm: converts whole; the planner never engages.
        assert full.coexec_plan is None, (seed,)
        assert not full.imperative_only, (seed, full.not_convertible_reason)
        assert full.stats["graph_runs"] > 0, (seed, full.stats)
        assert full.stats["coexec_runs"] == 0, (seed, full.stats)
    finally:
        for filename in files:
            linecache.cache.pop(filename, None)


class TestThreeWayDifferential:
    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_coexec_vs_imperative_vs_full_graph(self, seed):
        _run_seed(seed)


# -- acceptance: partial health state ----------------------------------------

@pytest.fixture
def _metrics_on():
    previous = obs.set_metrics_enabled(True)
    obs.clear()
    yield
    obs.set_metrics_enabled(previous)
    obs.clear()


class TestPartialHealth:
    def test_sandwich_function_reaches_partial(self, _metrics_on):
        """A function with one unconvertible construct between two
        tensor-dense regions reaches health state ``partial`` with at
        least one symbolic fragment executed."""
        log = []
        w = np.array([1.0, 2.0, 3.0, 4.0], np.float32)

        def sandwich(x):
            y = x * 2.0
            y = y + w
            log.append(float(R.reduce_sum(y).numpy()))
            z = y * y
            z = z + y
            return R.reduce_sum(z)

        f = janus.function(
            config=janus.JanusConfig(profile_runs=2,
                                     parallel_execution=False,
                                     coexecution=True))(sandwich)
        x = R.constant(np.array([0.5, 1.5, 2.5, 3.5], np.float32))
        outs = [float(f(x).numpy()) for _ in range(8)]
        expect = float(sandwich(x).numpy())
        assert all(o == expect for o in outs), (outs, expect)

        assert f.coexec_plan is not None
        kinds = [seg.kind for seg in f.coexec_plan.segments]
        assert kinds.count("sym") >= 2 and "gap" in kinds, kinds
        assert f.stats["coexec_fragment_runs"] >= 1, f.stats
        health = HEALTH.get("sandwich")
        assert health is not None
        assert health.state == "partial"
        assert health.coexec_runs >= 1
        assert health.coexec_fragment_runs >= 1
        assert 0.0 < health.converted_ratio < 1.0
        assert "partially converted" in health.diagnosis()

    def test_coexec_off_reaches_imperative_only(self, _metrics_on):
        """Same shape of function with ``coexecution=False``: the
        classic whole-function verdict and health state."""
        log = []

        def sandwich_off(x):
            y = x * 2.0
            log.append(float(R.reduce_sum(y).numpy()))
            z = y * y
            return R.reduce_sum(z)

        f = janus.function(
            config=janus.JanusConfig(profile_runs=2,
                                     coexecution=False))(sandwich_off)
        x = R.constant(np.ones(4, np.float32))
        for _ in range(6):
            f(x)
        assert f.imperative_only
        assert f.coexec_plan is None
        assert f.stats["coexec_runs"] == 0
        health = HEALTH.get("sandwich_off")
        assert health.state == "imperative-only"


class TestPlanMechanics:
    def test_boundary_mismatch_falls_back_whole_function(self):
        """A segment violating the (done, payload) protocol abandons
        the plan: the call re-runs whole-function imperative and the
        function lands on the classic verdict."""
        log = []

        def prog(x):
            y = x * 2.0
            log.append(float(R.reduce_sum(y).numpy()))
            z = y * y
            return R.reduce_sum(z)

        f = janus.function(
            config=janus.JanusConfig(profile_runs=2,
                                     parallel_execution=False,
                                     coexecution=True))(prog)
        x = R.constant(np.ones(4, np.float32))
        for _ in range(5):
            f(x)
        plan = f.coexec_plan
        assert plan is not None
        # Sabotage the gap segment so it returns a malformed pair.
        gap = next(s for s in plan.segments if s.kind == "gap")
        gap.fn = lambda *a: "not-a-pair"
        out = f(x)
        expect = prog(x)
        assert np.array_equal(out.numpy(), expect.numpy())
        assert f.coexec_plan is None
        assert f.imperative_only
        assert "boundary mismatch" in f.not_convertible_reason
        s = f.stats
        assert s["calls"] == s["graph_runs"] + s["imperative_runs"] \
            + s["coexec_runs"], s

    def test_all_gap_refinement_goes_imperative_only(self):
        """When dynamic refinement discovers every statement is
        unconvertible, the degenerated (all-gap) plan is abandoned and
        the function lands on the classic imperative-only verdict."""
        ns = {}
        exec("def h1(v):\n    return v + 1.0\n", ns)
        exec("def h2(v):\n    return v * 2.0\n", ns)
        h1, h2 = ns["h1"], ns["h2"]

        def prog2(x):
            y = h1(x)          # initial failure -> gap
            return h2(y)       # discovered unconvertible -> refined away

        f = janus.function(
            config=janus.JanusConfig(profile_runs=2,
                                     coexecution=True))(prog2)
        x = R.constant(np.ones(4, np.float32))
        outs = [f(x) for _ in range(6)]
        expect = prog2(x)
        assert all(np.array_equal(o.numpy(), expect.numpy())
                   for o in outs)
        assert f.imperative_only
        assert f.coexec_plan is None
        s = f.stats
        assert s["calls"] == s["graph_runs"] + s["imperative_runs"] \
            + s["coexec_runs"], s
