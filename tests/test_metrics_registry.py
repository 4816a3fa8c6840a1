"""The metrics registry's contract (docs/observability.md, "Instruments").

* **One declaration is enough** — a family declared in a registry shows
  up in the bundle round trip, the report and ``/metrics`` with no
  other code touched.
* **Round trip** — ``snapshot → from_snapshot → snapshot`` is equal for
  a fully populated registry, and the views over the restored registry
  answer their derived questions identically.
* **Concurrency** — concurrent ``inc``/``observe`` on one child of each
  kind lose nothing while ``snapshot()`` races them; ``clear()`` may
  race them too; handles bound before a clear keep recording after it.
* **Bulk observe** — one ``_observe_all`` is exactly a loop of
  ``_observe``: buckets, count, sum, min, max and window slices.
* **The catalogue** — the instrument table in docs/observability.md
  lists exactly the families a process registers.
"""

import json
import os
import random
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro as R
from repro import janus  # declares the runtime's families
from repro import observability as obs
from repro.observability.cli import (load_stats, prometheus_text,
                                     render_report, write_stats_json)
from repro.observability.health import HealthRegistry
from repro.observability.metrics import (COUNTERS, METRICS, Counter,
                                         Histogram, Registry,
                                         WindowedHistogram)
from repro.observability.serving import ServingStats

from test_prometheus_lint import _families, _populated_state

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestOneDeclarationIsEnough:
    def test_new_families_reach_bundle_report_and_metrics(self, tmp_path):
        registry = Registry()
        shards = registry.counter(
            "janus_test_shard_loads_total", "Shards loaded.",
            unit="shards", labels=("shard",))
        settle = registry.windowed(
            "janus_test_settle_seconds", "Time to settle.",
            labels=("phase",), window_s=30.0, slices=3)
        shards.labels("a").inc(2)
        shards.labels("b").inc()
        settle.labels("warm").observe(0.004)

        path = write_stats_json(str(tmp_path / "stats.json"), registry)
        restored = load_stats(path).registry
        family = restored.get("janus_test_shard_loads_total")
        assert (family.kind, family.unit, family.labelnames) == \
            ("counter", "shards", ("shard",))
        assert family.labels("a").value == 2
        child = restored.get("janus_test_settle_seconds").labels("warm")
        assert isinstance(child, WindowedHistogram)
        assert (child.count, child.window_s, child.slices) == (1, 30.0, 3)

        for source in (registry, restored):
            report = render_report(source)
            assert "janus_test_shard_loads_total{a}" in report
            assert "janus_test_settle_seconds{warm}" in report
            text = prometheus_text(source)
            served = _families(text)
            assert served["janus_test_shard_loads_total"] == \
                ("counter", ["shard"])
            assert served["janus_test_settle_seconds"] == \
                ("histogram", ["phase"])
            assert served["janus_test_settle_window_seconds"] == \
                ("gauge", ["phase", "quantile"])
            for name in served:
                assert text.count("# TYPE %s " % name) == 1, name
                assert text.count("# HELP %s " % name) == 1, name
            assert 'janus_test_shard_loads_total{shard="a"} 2' in text

    def test_declaring_again_returns_the_family(self):
        registry = Registry()
        first = registry.counter("janus_test_total", "t", labels=("k",))
        assert registry.counter("janus_test_total", "t",
                                labels=("k",)) is first
        with pytest.raises(ValueError, match="already declared"):
            registry.counter("janus_test_total", "t")
        with pytest.raises(ValueError, match="takes labels"):
            first.labels("a", "b")

    def test_names_carry_their_kind(self):
        registry = Registry()
        with pytest.raises(ValueError, match="_total"):
            registry.counter("janus_test_loads", "no suffix")
        with pytest.raises(ValueError, match="_total"):
            registry.gauge("janus_test_depth_total", "gauge as counter")
        with pytest.raises(ValueError, match="_seconds"):
            registry.windowed("janus_test_depth", "unitless window")


def _comparable(snapshot):
    """Window sub-snapshots compare by count/sum: the restored window is
    parked in one slot, so its merged buckets are equal but min/max of
    an empty ring slot are not guaranteed to be."""
    snap = json.loads(json.dumps(snapshot))
    for meta in snap.values():
        for _, value in meta["samples"]:
            if isinstance(value, dict) and "window" in value:
                merged = value["window"]["merged"]
                value["window"]["merged"] = (merged["count"],
                                             merged["sum"])
    return snap


class TestRoundTrip:
    def test_snapshot_restore_snapshot_is_equal(self):
        registry, _ = _populated_state()
        snap = registry.snapshot()
        restored = Registry.from_snapshot(json.loads(json.dumps(snap)))
        assert _comparable(restored.snapshot()) == _comparable(snap)

    def test_restored_views_answer_identically(self, tmp_path):
        registry, recorder = _populated_state()
        path = write_stats_json(str(tmp_path / "stats.json"), registry,
                                recorder)
        bundle = load_stats(path)
        live_fn = registry.view(HealthRegistry).get("model.predict")
        fn = bundle.health.get("model.predict")
        assert fn.state == live_fn.state
        assert fn.diagnosis() == live_fn.diagnosis()
        assert fn.graph_hit_ratio == live_fn.graph_hit_ratio == 0.5
        assert fn.worst_site().failures == 1
        assert fn.failure_chain == live_fn.failure_chain
        live_serving = registry.view(ServingStats)
        assert bundle.serving.rejection_rate == \
            live_serving.rejection_rate == pytest.approx(0.2)
        assert bundle.serving.recompiles_in_flight == 0
        assert bundle.diskcache.miss_reasons == {"absent": 1, "corrupt": 1}
        assert prometheus_text(bundle.registry, bundle.requests) == \
            prometheus_text(registry, recorder)


class TestConcurrency:
    THREADS = 8
    PER_THREAD = 10_000

    def _hammer(self, children, racer):
        """THREADS x PER_THREAD records into every child while *racer*
        runs in a loop beside them; returns the racer's exceptions."""
        counter, gauge, hist, windowed = children
        stop = threading.Event()
        errors = []

        def record():
            for _ in range(self.PER_THREAD):
                counter.inc()
                gauge.inc(2)
                hist.observe(0.001)
                windowed.observe(0.002)

        def race():
            try:
                while not stop.is_set():
                    racer()
            except Exception as exc:           # reported to the test
                errors.append(exc)

        threads = [threading.Thread(target=record)
                   for _ in range(self.THREADS)]
        side = threading.Thread(target=race)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            side.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
                assert not thread.is_alive()
        finally:
            stop.set()
            side.join(30.0)
            sys.setswitchinterval(interval)
        assert not side.is_alive()
        return errors

    def _children(self, registry):
        return (
            registry.counter("janus_test_events_total", "c").labels(),
            registry.gauge("janus_test_level", "g").labels(),
            registry.histogram("janus_test_seconds", "h").labels(),
            registry.windowed("janus_test_recent_seconds", "w").labels())

    def test_nothing_lost_while_snapshot_races(self):
        registry = Registry()
        children = self._children(registry)
        assert not self._hammer(children, registry.snapshot)
        total = self.THREADS * self.PER_THREAD
        counter, gauge, hist, windowed = children
        assert counter.value == total
        assert gauge.value == 2 * total
        assert hist.count == total == sum(hist.counts)
        assert windowed.count == total
        assert windowed.window().count == total

    def test_clear_races_without_exception_and_handles_survive(self):
        registry = Registry()
        children = self._children(registry)
        assert not self._hammer(children, registry.clear)
        registry.clear()
        counter, gauge, hist, windowed = children
        assert (counter.value, gauge.value, hist.count,
                windowed.count) == (0, 0, 0, 0)
        counter.inc()
        windowed.observe(0.5)
        snap = registry.snapshot()
        assert snap["janus_test_events_total"]["samples"] == [[[], 1]]
        assert snap["janus_test_recent_seconds"]["samples"][0][1][
            "window"]["merged"]["count"] == 1

    def test_handles_bound_before_obs_clear_keep_recording(self):
        """Modules bind children at import and every observability test
        calls ``obs.clear()``: clearing zeroes in place, never replaces."""
        hits = COUNTERS.labels("test.bound_before_clear")
        family = METRICS.get("janus_graph_run_seconds")
        run = family.labels()
        hits.inc(3)
        run.observe(0.01)
        obs.clear()
        assert COUNTERS.labels("test.bound_before_clear") is hits
        assert family.labels() is run
        assert (hits.value, run.count) == (0, 0)
        hits.inc()
        run.observe(0.02)
        assert obs.counter_values()["test.bound_before_clear"] == 1
        assert 'janus_graph_run_seconds_count 1' in prometheus_text()
        obs.clear()

    def test_counter_lossless_while_clear_and_snapshot_race(self):
        """A counter counts into per-thread cells a clear never writes:
        with the recording threads still alive, their cells hold every
        increment, and the clear's baseline survives their folding.  The
        racer pauses between rounds so that the recorders also preempt
        each other, which a shared unlocked count would not survive."""
        registry = Registry()
        counter = registry.counter("janus_test_events_total", "c").labels()
        assert isinstance(counter, Counter)
        recorded, release = threading.Barrier(self.THREADS + 1), \
            threading.Event()
        stop = threading.Event()

        def record():
            for _ in range(self.PER_THREAD):
                counter.inc()
            recorded.wait(60.0)
            release.wait(60.0)

        def race():
            while not stop.wait(1e-4):
                registry.snapshot()
                registry.clear()

        threads = [threading.Thread(target=record)
                   for _ in range(self.THREADS)]
        side = threading.Thread(target=race)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            side.start()
            for thread in threads:
                thread.start()
            recorded.wait(120.0)
        finally:
            stop.set()
            side.join(30.0)
            sys.setswitchinterval(interval)
        assert not side.is_alive()
        total = self.THREADS * self.PER_THREAD
        assert sum(cell[0] for _, cell in counter._cells) == total
        registry.clear()
        release.set()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
        assert counter.value == 0 and not counter._cells  # folded, still 0
        counter.inc()
        assert counter.value == 1

    def test_short_lived_threads_fold_into_the_base(self):
        """One thread per increment: every one is read, and the counter
        keeps cells only for threads that are still alive — whether or
        not anything read it in between."""
        counter = Registry().counter("janus_test_events_total",
                                     "c").labels()
        for _ in range(20):
            threads = [threading.Thread(target=counter.inc)
                       for _ in range(50)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        assert len(counter._cells) <= 50    # enrolling folds, unread too
        assert counter.value == 1000
        assert counter._cells == []

    def test_obs_clear_leaves_function_stats(self):
        """The function's counts are the instance scope: ``obs.clear()``
        zeroes the process scope only."""
        @janus.function(config=janus.JanusConfig(
            profile_runs=1, parallel_execution=False))
        def f(x):
            return x * 2.0

        x = R.constant(np.ones(4, np.float32))
        for _ in range(4):
            f(x)
        before = dict(f.stats)
        assert before["graph_runs"] == 3
        obs.clear()
        assert dict(f.stats) == before
        assert obs.counter_values().get("cache.hits", 0) == 0


class TestBulkObserve:
    """``_observe_all`` leaves bit-for-bit the state a loop of
    ``_observe`` over the same values leaves — the float sum too, which
    depends on where the buffer is counted."""

    #: Observed in these sizes: the buffer is part-full when a list
    #: crosses FOLD_AT, and one list crosses it twice.
    SIZES = (5, 40, 30, 70, 1)

    def _values(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(-7.0, 2.0) for _ in range(sum(
            self.SIZES))]
        start = 0
        for size in self.SIZES:
            yield values[start:start + size]
            start += size

    @staticmethod
    def _state(hist):
        state = {"snapshot": hist.snapshot()}
        if isinstance(hist, WindowedHistogram):
            state["window"] = hist.window_percentiles()
            state["slices"] = (list(hist._seqs),
                               [ring.snapshot() for ring in hist._ring])
        return state

    def _compare(self, make, stamps):
        """Observe the same lists into two histograms, in bulk and in a
        loop; stamp ``i`` is the clock when list ``i`` is observed."""
        clock = [0.0]
        bulk, loop = make(lambda: clock[0]), make(lambda: clock[0])
        for values, stamp in zip(self._values(), stamps):
            clock[0] = stamp
            with bulk._lock:
                bulk._observe_all(values)
            with loop._lock:
                for value in values:
                    loop._observe(value)
        assert sum(self.SIZES) > 3 * Histogram.FOLD_AT
        assert bulk.count == loop.count == sum(self.SIZES)
        assert self._state(bulk) == self._state(loop)

    def test_histogram(self):
        self._compare(lambda clock: Histogram(), [0.0] * len(self.SIZES))

    def test_windowed_across_slices(self):
        # 1 s slices; the fourth list opens a new slice and the last one
        # comes back to a ring slot after it expired.
        self._compare(
            lambda clock: WindowedHistogram(window_s=3.0, slices=3,
                                            clock=clock),
            [0.2, 0.7, 0.9, 1.3, 4.5])

    def test_windowed_with_a_stamp_per_value(self):
        """A log observed after the fact: the stamps cross slice
        boundaries inside the list."""
        values = [value for chunk in self._values() for value in chunk]
        stamps = [0.5 + 0.015 * i for i in range(len(values))]
        bulk, loop = (WindowedHistogram(window_s=3.0, slices=3,
                                        clock=lambda: stamps[-1])
                      for _ in range(2))
        bulk._observe_all(values, stamps)
        for value, stamp in zip(values, stamps):
            loop._observe(value, stamp)
        assert len({int(stamp) for stamp in stamps}) == 3
        assert self._state(bulk) == self._state(loop)


class TestCatalogue:
    def test_docs_table_lists_exactly_the_registered_families(self):
        """A fresh process: tests and benchmarks declare families of
        their own in this one."""
        out = subprocess.run(
            [sys.executable, "-c",
             "import repro.janus, repro.serving\n"
             "from repro.observability import METRICS\n"
             "for f in METRICS.families():\n"
             "    print(f.name, f.kind, ','.join(f.labelnames) or '-')"],
            cwd=REPO, check=True, capture_output=True, text=True,
            env=dict(os.environ,
                     PYTHONPATH=os.path.join(REPO, "src"))).stdout
        registered = {name: (kind, labels) for name, kind, labels
                      in (line.split() for line in out.splitlines())}
        with open(os.path.join(REPO, "docs", "observability.md")) as fh:
            text = fh.read()
        section = text.split("### Catalogue", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for row in re.findall(r"^\| `(janus_\w+)` \| (\w+) \| ([^|]*) \|",
                              section, flags=re.M):
            name, kind, labels = row
            documented[name] = (kind, ",".join(
                re.findall(r"`(\w+)`", labels)) or "-")
        assert documented, "catalogue table not found"
        assert set(registered) - set(documented) == set(), \
            "registered but not in docs/observability.md"
        assert set(documented) - set(registered) == set(), \
            "documented but not registered"
        for name, row in registered.items():
            assert documented[name] == row, name
