"""Incremental regeneration after assumption failures.

When an assumption breaks, the runtime relaxes it and regenerates the
graph: unchanged cond/loop regions splice from the fragment cache and
argument specs seed from the retired artifact; whatever the cache does
not hold (everything, when it is empty) reconverts from the AST.  The
regenerated graph must match pure imperative execution bit-for-bit —
these tests force branch, loop, and attribute failures and check
exactly that, plus that splicing engages when there is something to
splice and changes no result.
"""

import numpy as np

import repro as R
from repro import janus
from repro.janus.fragments import Fragment, FragmentCache, FragmentRecorder
from repro.observability import counter_values


def strict(**kw):
    return janus.JanusConfig(fail_on_not_convertible=True,
                             parallel_execution=False, **kw)


def counters():
    return counter_values()


def delta(before, key):
    return counters().get(key, 0) - before.get(key, 0)


class TestForcedFailuresMatchImperative:
    def test_branch_failure(self):
        @janus.function(config=strict())
        def f(x, gate):
            if R.reduce_sum(gate) > 0.0:
                y = x * 2.0 + 1.0
            else:
                y = x - 100.0
            return y

        x = R.constant(np.linspace(-1, 1, 8).astype(np.float32))
        # Varying positive gates: the direction is stable, so the branch
        # unrolls behind an AssertOp.
        for k in range(5):
            f(x, R.constant(np.full(1, 1.0 + k, np.float32)))
        assert f.stats["graph_runs"] > 0

        neg = R.constant(-np.ones(1, np.float32))
        out = f(x, neg)                       # assert fires -> fallback
        assert f.stats["fallbacks"] == 1
        assert np.array_equal(out.numpy(), f.func(x, neg).numpy())

        graph_runs = f.stats["graph_runs"]
        out_neg = f(x, neg)                   # regenerated, dynamic cond
        out_pos = f(x, R.constant(np.full(1, 9.0, np.float32)))
        assert f.stats["graph_runs"] >= graph_runs + 2
        assert np.array_equal(out_neg.numpy(), f.func(x, neg).numpy())
        assert np.array_equal(
            out_pos.numpy(),
            f.func(x, R.constant(np.full(1, 9.0, np.float32))).numpy())
        entry = next(iter(f.cache._entries.values()))
        ops = {n.op_name for n in entry.generated.graph.nodes}
        assert "cond" in ops                  # the dirty region went dynamic

    def test_loop_failure(self):
        @janus.function(config=strict())
        def f(x, n):
            i = R.constant(0.0)
            total = x * 0.0
            while R.reduce_sum(i) < R.reduce_sum(n):
                total = total + x * 2.0
                i = i + 1.0
            return total

        x = R.constant(np.linspace(0, 1, 6).astype(np.float32))
        # Varying bounds with a stable trip count of 3: the loop unrolls
        # behind a trip-count assertion.
        for k in range(5):
            f(x, R.constant(np.full(1, 2.5 + 0.1 * k, np.float32)))
        assert f.stats["graph_runs"] > 0

        five = R.constant(np.full(1, 5.0, np.float32))
        out = f(x, five)                      # trip count changes
        assert f.stats["fallbacks"] == 1
        assert np.array_equal(out.numpy(), f.func(x, five).numpy())

        graph_runs = f.stats["graph_runs"]
        out5 = f(x, five)                     # regenerated, dynamic loop
        three = R.constant(np.full(1, 3.0, np.float32))
        out3 = f(x, three)
        assert f.stats["graph_runs"] >= graph_runs + 2
        assert np.array_equal(out5.numpy(), f.func(x, five).numpy())
        assert np.array_equal(out3.numpy(), f.func(x, three).numpy())

    def test_attr_failure(self):
        knob = type("K", (), {})()
        knob.gain = 1.5

        @janus.function(config=strict())
        def f(x):
            return R.tanh(x * knob.gain) + x

        x = R.constant(np.linspace(-2, 2, 10).astype(np.float32))
        for _ in range(5):
            f(x)
        assert f.stats["graph_runs"] > 0

        knob.gain = 0.25                      # break the speculated const
        out = f(x)
        assert f.stats["fallbacks"] == 1
        assert np.array_equal(out.numpy(), f.func(x).numpy())
        out = f(x)                            # regenerated, gain dynamic
        assert np.array_equal(out.numpy(), f.func(x).numpy())
        knob.gain = -3.0                      # relaxed: no further fallback
        out = f(x)
        assert f.stats["fallbacks"] == 1
        assert np.array_equal(out.numpy(), f.func(x).numpy())


class TestFragmentReuse:
    def _build(self):
        knob = type("K", (), {})()
        knob.gain = 1.0

        @janus.function(config=strict())
        def f(x, gate):
            h = R.tanh(x * knob.gain)
            if R.reduce_sum(gate) > 0.0:
                y = h * 2.0
            else:
                y = h * 0.5
            return y

        return f, knob

    def _warm_dynamic_branch(self, f, x):
        # Alternating gate signs: the branch converts as a dynamic cond
        # on the first generation, recording a reusable fragment.
        for k in range(5):
            sign = 1.0 if k % 2 == 0 else -1.0
            f(x, R.constant(np.full(1, sign * (1.0 + k), np.float32)))

    def test_unrelated_relaxation_reuses_branch_fragment(self):
        f, knob = self._build()
        x = R.constant(np.linspace(-1, 1, 8).astype(np.float32))
        self._warm_dynamic_branch(f, x)
        assert f.stats["graphs_generated"] == 1
        assert len(f._fragment_cache) >= 1

        knob.gain = 2.0                       # dirty only the prologue
        gate = R.constant(np.ones(1, np.float32))
        f(x, gate)                            # fallback + relax
        assert f.stats["fallbacks"] == 1

        before = counters()
        out = f(x, gate)                      # incremental regeneration
        assert f.stats["graphs_generated"] == 2
        assert delta(before, "graphgen.fragments_reused") >= 1
        assert np.array_equal(out.numpy(), f.func(x, gate).numpy())
        neg = R.constant(-np.ones(1, np.float32))
        assert np.array_equal(f(x, neg).numpy(), f.func(x, neg).numpy())

    def test_dirty_branch_is_reconverted_not_spliced(self):
        """A fragment whose own site failed must not be reused."""
        f, _knob = self._build()
        x = R.constant(np.linspace(-1, 1, 8).astype(np.float32))
        # Stable positive gates: the branch speculates (no fragment).
        for k in range(5):
            f(x, R.constant(np.full(1, 1.0 + k, np.float32)))
        neg = R.constant(-np.ones(1, np.float32))
        f(x, neg)                             # branch assert fails
        assert f.stats["fallbacks"] == 1

        before = counters()
        out = f(x, neg)                       # regeneration: branch dirty
        assert delta(before, "graphgen.fragments_reused") == 0
        assert delta(before, "graphgen.fragments_reconverted") >= 1
        assert np.array_equal(out.numpy(), f.func(x, neg).numpy())

    def test_spliced_and_rebuilt_agree_bit_for_bit(self):
        """Splicing changes latency, never results: a regeneration that
        finds its fragment cache empty rebuilds every region from the
        AST and produces what the spliced one does."""
        outs = {}
        for arm in ("spliced", "rebuilt"):
            f, knob = self._build()
            x = R.constant(np.linspace(-1, 1, 8).astype(np.float32))
            self._warm_dynamic_branch(f, x)
            knob.gain = 2.0
            gate = R.constant(np.ones(1, np.float32))
            f(x, gate)                        # fallback + relax
            if arm == "rebuilt":
                f._fragment_cache.clear()     # nothing left to splice
            before = counters()
            outs[arm] = f(x, gate).numpy()    # regeneration
            assert f.stats["graphs_generated"] == 2
            reused = delta(before, "graphgen.fragments_reused")
            if arm == "spliced":
                assert reused >= 1
            else:
                assert reused == 0
                assert delta(before, "graphgen.fragments_reconverted") >= 1
            assert np.array_equal(outs[arm], f.func(x, gate).numpy())
        assert np.array_equal(outs["spliced"], outs["rebuilt"])


class TestFragmentCacheMechanics:
    def _frag(self, key="site"):
        return Fragment("cond", key, FragmentRecorder(), {}, [])

    def test_variant_list_is_mru_bounded(self):
        cache = FragmentCache()
        frags = [self._frag() for _ in range(FragmentCache.MAX_VARIANTS + 3)]
        for frag in frags:
            cache.store("site", frag)
        # Newest first, oldest evicted, bound respected.
        assert len(cache) == FragmentCache.MAX_VARIANTS
        expect = list(reversed(frags))[:FragmentCache.MAX_VARIANTS]
        assert list(cache.lookup("site")) == expect
        assert cache.stats["stores"] == len(frags)

    def test_touch_moves_variant_to_front(self):
        cache = FragmentCache()
        a, b, c = self._frag(), self._frag(), self._frag()
        for frag in (a, b, c):
            cache.store("site", frag)
        assert list(cache.lookup("site")) == [c, b, a]
        cache.touch("site", a)                 # hit on the oldest variant
        assert list(cache.lookup("site")) == [a, c, b]
        assert cache.stats["hits"] == 1
        # A touch for a fragment that was already evicted is a no-op.
        ghost = self._frag()
        cache.touch("site", ghost)
        assert list(cache.lookup("site")) == [a, c, b]

    def test_keys_are_independent(self):
        cache = FragmentCache()
        one, two = self._frag("one"), self._frag("two")
        cache.store("one", one)
        cache.store("two", two)
        assert list(cache.lookup("one")) == [one]
        assert list(cache.lookup("two")) == [two]
        assert cache.lookup("absent") == ()
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_build_time_container_mutation_poisons_fragment(self):
        """A region whose conversion mutated a symbolic container must
        never be cached: splicing it back would skip the mutation replay.

        The appends here are arm-local (the list is created inside the
        dynamic branch arm and consumed there, via an unrolled loop), so
        the program is convertible and bit-exact — but the build-time
        ``SymSeq.append`` still poisons the active cond recorder.
        """
        knob = type("K", (), {})()
        knob.gain = 1.0

        @janus.function(config=strict())
        def f(x, gate):
            h = R.tanh(x * knob.gain)
            if R.reduce_sum(gate) > 0.0:
                acc = [h * 2.0]
                for _k in range(2):
                    acc.append(acc[-1] * 2.0)
                y = acc[0] + acc[-1]
            else:
                y = h * 0.5
            return y

        x = R.constant(np.linspace(-1, 1, 8).astype(np.float32))
        # Alternating gate signs: the branch converts as a dynamic cond,
        # which would normally record a reusable fragment — but the true
        # arm's appends poison the recorder.
        for k in range(5):
            sign = 1.0 if k % 2 == 0 else -1.0
            gate_k = R.constant(np.full(1, sign * (1.0 + k), np.float32))
            out = f(x, gate_k)
            assert np.array_equal(out.numpy(), f.func(x, gate_k).numpy())
        assert f.stats["graphs_generated"] == 1
        assert len(f._fragment_cache) == 0     # poisoned, not stored

        knob.gain = 2.0                        # dirty only the prologue
        gate = R.constant(np.ones(1, np.float32))
        f(x, gate)                             # fallback + relax
        assert f.stats["fallbacks"] == 1

        before = counters()
        out = f(x, gate)                       # regeneration: no splice
        assert delta(before, "graphgen.fragments_reused") == 0
        assert delta(before, "graphgen.fragments_reconverted") >= 1
        assert np.array_equal(out.numpy(), f.func(x, gate).numpy())
        neg = R.constant(-np.ones(1, np.float32))
        assert np.array_equal(f(x, neg).numpy(), f.func(x, neg).numpy())
