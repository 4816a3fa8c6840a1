"""Dispatch accounting: one outcome per call, one count per event.

``JanusFunction._call`` reports into three scopes — the function's
``stats`` (``cache_stats()`` derives its outcome counts from them), the
flat process-wide counters and (with ``METRICS`` on) the ``HEALTH``
model of the function's name.  :func:`test_stores_agree`
drives a function down every exit of the dispatch path, including the
ones where the user's program raises, and holds the stores to each
other at quiescence; the tests after it pin the individual corrections.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

import repro as R
from repro import janus
from repro import observability as obs
from repro.observability import HEALTH, counter_values

_LEDGER = os.path.join(os.path.dirname(__file__), os.pardir,
                       "benchmarks", "ledger")

#: stats keys with a process-wide flat twin, ``dispatch.<key>``.
TWINS = ("stampede_fallbacks", "recompile_tickets", "warm_starts",
         "coexec_runs")
#: stats keys the HEALTH model mirrors.
MIRRORED = ("calls", "graph_runs", "imperative_runs", "fallbacks",
            "graphs_generated", "coexec_runs")


@pytest.fixture(scope="module")
def check_conservation():
    """The ledger's invariant (calls == graph + imperative + co-executed
    runs, no ticket owned), not a restatement of it."""
    sys.path.insert(0, _LEDGER)
    try:
        import workloads
    finally:
        sys.path.remove(_LEDGER)
    return workloads.check_conservation


@pytest.fixture
def metrics_on():
    previous = obs.set_metrics_enabled(True)
    obs.clear()
    yield
    obs.set_metrics_enabled(previous)
    obs.clear()


def _config(**kw):
    kw.setdefault("profile_runs", 2)
    return janus.JanusConfig(parallel_execution=False, **kw)


def _x(n=4, fill=1.0):
    return R.constant(np.full((n,), fill, np.float32))


def _settle(f):
    deadline = time.time() + 10.0
    while f.recompiles_in_flight and time.time() < deadline:
        time.sleep(0.01)


def _scaled(**kw):
    """A function burning ``knob.scale`` in as a constant."""
    knob = type("Knob", (), {"scale": 3.0})()

    @janus.function(config=_config(**kw))
    def scaled(x):
        return x * knob.scale

    return scaled, knob


def _sandwich(trip):
    """Co-executed: an unconvertible statement (which raises once
    ``trip`` is non-empty) between two symbolic regions."""
    log = []

    @janus.function(config=_config())
    def sandwich(x):
        y = x * 2.0
        log.append(1 // (1 - len(trip)))
        z = y * y
        return R.reduce_sum(z)

    for _ in range(5):
        sandwich(_x())
    assert sandwich.coexec_plan is not None
    return sandwich


def portable(x, w):
    """Pure tensor math: the only kind of artifact the disk tier holds."""
    y = x @ w
    y = y * 1.5 - x
    return y + x * 0.25


# -- one driver per exit of the dispatch path ---------------------------------

def profiling_run(tmp_path):
    f, _ = _scaled()
    f(_x())
    return [f]


def warm_hit(tmp_path):
    f, _ = _scaled()
    for _ in range(6):
        f(_x())
    assert f.stats["graph_runs"] == 4
    return [f]


def precheck_miss(tmp_path):
    f, _ = _scaled()
    for _ in range(4):
        f(_x(4))
    f(_x(6))                     # same signature, other shape
    assert f.cache_stats()["misses"] == 1
    for _ in range(3):
        f(_x(6))
    return [f]


def assumption_failure_inline(tmp_path):
    f, knob = _scaled()
    for _ in range(4):
        f(_x())
    knob.scale = 5.0
    for _ in range(3):           # fallback, regeneration, hit
        assert f(_x()).numpy()[0] == 5.0
    assert f.stats["fallbacks"] == 1 and f.stats["graphs_generated"] == 2
    return [f]


def assumption_failure_background(tmp_path):
    f, knob = _scaled(recompile_workers=1)
    for _ in range(4):
        f(_x())
    knob.scale = 5.0
    f(_x())
    _settle(f)
    assert f(_x()).numpy()[0] == 5.0
    assert f.stats["recompile_tickets"] == 1
    return [f]


def cold_stampede(tmp_path):
    f, _ = _scaled()
    f(_x())
    f(_x())
    barrier = threading.Barrier(8)

    def client():
        barrier.wait(10.0)
        f(_x())

    threads = [threading.Thread(target=client) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
        assert not t.is_alive()
    assert f.stats["graphs_generated"] == 1
    return [f]


def imperative_only(tmp_path):
    log = []

    @janus.function(config=_config(coexecution=False))
    def unconvertible(x):
        log.append(1)
        return x * 2.0

    for _ in range(5):
        unconvertible(_x())
    assert unconvertible.imperative_only
    return [unconvertible]


def co_executed(tmp_path):
    f = _sandwich(trip=[])
    assert f.stats["coexec_runs"] >= 2
    return [f]


def boundary_mismatch(tmp_path):
    f = _sandwich(trip=[])
    gap = next(s for s in f.coexec_plan.segments if s.kind == "gap")
    gap.fn = lambda *a: "not-a-pair"
    f(_x())
    assert f.imperative_only
    return [f]


def disk_warm_start(tmp_path):
    cfg = _config(cache_dir=str(tmp_path))
    x = np.ones((4, 4), np.float32)
    cold = janus.function(portable, config=cfg)
    for _ in range(4):
        cold(x, x)
    warm = janus.function(portable, config=cfg)
    for _ in range(2):
        warm(x, x)
    assert warm.stats["warm_starts"] == 1
    assert warm.stats["imperative_runs"] == 0
    return [cold, warm]


def raising_graph_run(tmp_path):
    f, _ = _scaled()
    for _ in range(6):
        f(_x())
    (_, entry), = f.cache.entries()

    def boom(feeds):
        raise RuntimeError("kernel failed")

    entry.compiled.executor.run = boom
    with pytest.raises(RuntimeError):
        f(_x())
    return [f]


def raising_imperative_run(tmp_path):
    trip = []

    @janus.function(config=_config())
    def fragile(x):
        return x * (1 // (1 - len(trip)))

    fragile(_x())
    trip.append(1)
    with pytest.raises(ZeroDivisionError):
        fragile(_x())
    return [fragile]


def raising_coexec_call(tmp_path):
    trip = []
    f = _sandwich(trip)
    trip.append(1)
    with pytest.raises(ZeroDivisionError):
        f(_x())
    assert f.coexec_plan is not None
    return [f]


EXITS = [profiling_run, warm_hit, precheck_miss, assumption_failure_inline,
         assumption_failure_background, cold_stampede, imperative_only,
         co_executed, boundary_mismatch, disk_warm_start,
         raising_graph_run, raising_imperative_run, raising_coexec_call]


@pytest.mark.parametrize("drive", EXITS, ids=lambda d: d.__name__)
def test_stores_agree(drive, tmp_path, metrics_on, check_conservation):
    functions = drive(tmp_path)
    flat = counter_values()
    for f in functions:
        check_conservation(f.__name__, f)
    for key in TWINS:
        assert flat.get("dispatch." + key, 0) == \
            sum(f.stats[key] for f in functions), key
    # Functions of one name share a health model.
    for name in {f.__name__ for f in functions}:
        health = HEALTH.function(name)
        for key in MIRRORED:
            assert getattr(health, key) == sum(
                f.stats[key] for f in functions
                if f.__name__ == name), (name, key)


def test_warm_hit_takes_no_accounting_lock():
    """With metrics off a warm hit's only locks are the read side of the
    artifact RWLock (a Condition) and the LRU lookup: every count lands
    in a per-thread cell.  A lock's release is a profiled C call."""
    previous = obs.set_metrics_enabled(False)
    f, _ = _scaled()
    x = _x()
    for _ in range(4):
        f(x)
    holders = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "__exit__" \
                and type(getattr(arg, "__self__", None)).__name__ in (
                    "lock", "RLock"):
            holders.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        f(x)
    finally:
        sys.setprofile(None)
        obs.set_metrics_enabled(previous)
    assert f.stats["graph_runs"] == 3
    assert set(holders) == {"Condition.__exit__", "GraphCache.lookup"}, \
        holders


# -- the corrections, one by one (each fails at the parent) -------------------

def test_boundary_mismatch_is_not_a_coexec_run_in_either_count(tmp_path):
    obs.clear()
    f, = boundary_mismatch(tmp_path)
    assert counter_values()["dispatch.coexec_runs"] == \
        f.stats["coexec_runs"]
    assert counter_values()["coexec.boundary_fallbacks"] == 1


def test_warm_start_precheck_failure_is_a_cache_miss(tmp_path):
    obs.clear()
    cfg = _config(cache_dir=str(tmp_path))
    cold = janus.function(portable, config=cfg)
    for _ in range(4):
        cold(np.ones((4, 4), np.float32), np.ones((4, 4), np.float32))
    warm = janus.function(portable, config=cfg)
    other = np.ones((6, 6), np.float32)   # loaded, but not for this shape
    out = warm(other, other)
    assert np.array_equal(out.numpy(),
                          portable(R.constant(other),
                                   R.constant(other)).numpy())
    assert warm.stats["warm_starts"] == 1
    assert warm.stats["imperative_runs"] == 1
    assert warm.cache_stats()["misses"] == 1
    assert counter_values()["cache.misses"] == 1


def test_background_not_convertible_reaches_health(metrics_on):
    f, knob = _scaled(recompile_workers=1)
    for _ in range(4):
        f(_x())

    def unconvertible(x):
        yield x

    # The regeneration the failure schedules finds a generator body.
    f.func = unconvertible
    f._fragment_cache.clear()
    knob.scale = 5.0
    f(_x())
    _settle(f)
    assert f.recompiles_in_flight == 0
    assert f.imperative_only
    assert HEALTH.function("scaled").imperative_only
    assert HEALTH.function("scaled").state == "imperative-only"
