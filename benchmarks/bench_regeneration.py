"""Incremental regeneration latency after an assumption failure.

When a runtime assumption breaks (figure 2 E), JANUS falls back, relaxes
the assumption, and regenerates the graph.  This bench measures that
regeneration from an empty fragment cache (every region reconverted
from the AST) and from the function's own (unchanged cond/loop regions
spliced from the previous conversion, argument specs seeded from the
retired artifact).

The workload is shaped like the recovery case the optimisation targets:
one speculated heap attribute feeding a chain of six dynamic branches
whose arms call a two-matmul helper.  Relaxing the attribute dirties
only the straight-line prologue, so an incremental rebuild reuses all
six branch fragments; the full rebuild reconverts twelve helper bodies.

Run via ``pytest benchmarks/bench_regeneration.py --benchmark-only``;
``BENCH_LABEL=foo`` writes ``results/regeneration-foo.json``.
"""

import os
import statistics
import time

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.janus.compiled import compile_generated
from repro.janus.graphgen import GraphGenerator

from harness import format_table, save_results

_rng = np.random.default_rng(7)
W1 = R.constant(_rng.normal(size=(64, 64)).astype(np.float32) * 0.1)
W2 = R.constant(_rng.normal(size=(64, 64)).astype(np.float32) * 0.1)

_RESULTS = {}


def _mix(h, wa, wb):
    h = R.tanh(R.matmul(h, wa))
    return R.tanh(R.matmul(h, wb))


class _Knob:
    def __init__(self):
        self.gain = 1.0


def _build():
    knob = _Knob()
    cfg = janus.JanusConfig(fail_on_not_convertible=True,
                            parallel_execution=False)

    @janus.function(config=cfg)
    def f(x, g0, g1, g2, g3, g4, g5):
        h = R.tanh(x * knob.gain)
        if R.reduce_sum(g0) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g1) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g2) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g3) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g4) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g5) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        return R.reduce_sum(h)

    return f, knob


def _gates(sign):
    return [R.constant(np.full((1,), sign, np.float32)) for _ in range(6)]


def _timed(thunk, reps=15):
    """Per-rep wall times (GC paused), after one untimed warm rep."""
    import gc
    thunk()
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def test_incremental_regeneration_speedup(benchmark):
    f, knob = _build()
    x = R.constant(_rng.normal(size=(8, 64)).astype(np.float32))

    # Profile with alternating gate signs so every branch converts as a
    # dynamic cond (and therefore records a reusable fragment), then let
    # the first graph generate and run.
    for k in range(5):
        f(x, *_gates(1.0 if k % 2 == 0 else -1.0))
    assert f.stats["graphs_generated"] == 1

    # Single-assumption relaxation: the speculated knob.gain constant
    # breaks, the runtime falls back and leaves behind a dirty site plus
    # a regeneration seed for the signature.
    knob.gain = 2.0
    args = (x, *_gates(1.0))
    f(*args)
    assert f.stats["fallbacks"] == 1
    signature = f.cache.signature_of(args)
    seed = f.cache._seeds.get(signature)
    assert seed is not None
    dirty = frozenset(f._dirty_sites) | seed.dirty_sites
    assert dirty

    def regenerate_full():
        return GraphGenerator(f.func, f.profiler, f.config,
                              signature=signature).generate()

    def regenerate_incremental():
        gen = GraphGenerator(f.func, f.profiler, f.config,
                             signature=signature,
                             fragments=f._fragment_cache,
                             dirty_sites=dirty, seed=seed)
        generated = gen.generate()
        assert gen.fragments_reused == 6, gen.fragments_reused
        return generated

    # Both rebuilds must agree with the imperative program bit-for-bit.
    feeds_args = list(args)
    expected = f.func(*feeds_args).numpy()
    for regen in (regenerate_full, regenerate_incremental):
        compiled = compile_generated(regen(), f.config,
                                     signature=signature)
        flat = compiled.run_flat(compiled.bind_feeds(feeds_args))
        out = compiled.repack_outputs(flat)
        np.testing.assert_array_equal(out.numpy(), expected)

    t_full = _timed(regenerate_full)
    t_incr = _timed(regenerate_incremental)
    full_ms = statistics.median(t_full) * 1e3
    incr_ms = statistics.median(t_incr) * 1e3
    ratio = full_ms / incr_ms
    benchmark.pedantic(regenerate_incremental, rounds=3, iterations=1)

    _RESULTS["regeneration"] = {
        "full_ms": full_ms,
        "incremental_ms": incr_ms,
        "speedup": ratio,
        "fragments_reused": 6,
        "reps": len(t_full),
    }
    assert ratio >= 2.0, _RESULTS["regeneration"]


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    if not _RESULTS:
        pytest.skip("no measurements")
    r = _RESULTS["regeneration"]
    print()
    print(format_table(
        ["full (ms)", "incremental (ms)", "speedup", "fragments reused"],
        [["%.2f" % r["full_ms"], "%.2f" % r["incremental_ms"],
          "%.2fx" % r["speedup"], r["fragments_reused"]]],
        title="Graph regeneration after one relaxed assumption"))
    label = os.environ.get("BENCH_LABEL")
    payload = dict(_RESULTS)
    payload["meta"] = {"label": label or "dev"}
    save_results("regeneration" + ("-" + label if label else ""), payload)
