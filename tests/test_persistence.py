"""Persistent compile-cache suite (docs/compilation.md, "Persistence").

Four concerns, each with its own class:

* **Bit-for-bit warm start** — a seeded generator builds pure-tensor
  programs; each is compiled cold (publishing to a shared cache dir),
  then a *fresh* ``janus.function`` instance over the same source is
  called once.  The fresh instance must reach the graph path with zero
  profiling runs, its artifact must be marked ``from_disk`` with the
  same node count and ops in locals, and its output must match the
  cold graph output bit-for-bit.
* **Tolerance** — truncated, corrupt, version-skewed, key-mismatched,
  and rebuild-failing entries are counted misses, never errors, and
  recognizably-bad files are dropped so the next publish heals the
  cache.
* **Portability boundary** — artifacts pinning process state
  (Variables, heap reads, identity prechecks, unportable signatures)
  are never published and never probed; the picklable Precheck family
  round-trips and keeps its semantics.
* **Multi-process sharing** — a cold-start stampede of workers on one
  cache dir all succeed with identical outputs (atomic publication; no
  torn reads), leaving exactly one entry, and a late worker warm-starts.

Plus the observability contract: DiskCacheStats bundle round-trip,
the janus-stats bundle carrying (and tolerating the absence of) the
``diskcache`` section.
"""

import json
import linecache
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.janus import diskcache as dc
from repro.janus import specialization as spec
from repro.janus.compiled import (ARTIFACT_FORMAT, UnportableArtifact,
                                  compile_generated, load_compiled,
                                  portability_blockers, serialize_generated)
from repro.janus.config import JanusConfig
from repro.observability import DISKCACHE, clear
from repro.observability.cli import (load_stats, render_report,
                                     write_stats_json)
from repro.observability.metrics import Registry
from repro.observability.diskcache import DiskCacheStats

from test_metrics_registry import report_rows


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    # Persistence must be opt-in per test: a JANUS_CACHE_DIR leaking in
    # from the environment would silently share state across tests.
    monkeypatch.delenv("JANUS_CACHE_DIR", raising=False)
    monkeypatch.delenv("JANUS_CACHE_MAX_BYTES", raising=False)
    yield
    clear()


def _entries(cache_dir):
    return sorted(name for name in os.listdir(str(cache_dir))
                  if name.endswith(dc.SUFFIX))


# -- seeded pure-tensor program generator ------------------------------------

_STMTS = [
    "    y = y + x * {c}",
    "    y = y * {c} - x",
    "    y = (y + x) * {c}",
    "    y = y @ w",
    "    y = y - x",
]


def _gen_program(seed, tag):
    """One random *portable* program (pure tensor math, no heap reads).

    The source is registered in ``linecache`` (the doctest trick) so
    both graph conversion and ``diskcache.source_hash`` can retrieve it.
    Returns ``(prog, filename)``.
    """
    rng = random.Random(seed)
    lines = ["def prog(x, w):", "    y = x @ w"]
    for _ in range(rng.randint(2, 5)):
        stmt = rng.choice(_STMTS)
        lines.append(stmt.format(c=round(rng.uniform(0.5, 1.5), 3)))
    lines.append("    return y + x * 0.25")
    src = "\n".join(lines) + "\n"
    filename = "<persist-%s-%d>" % (tag, seed)
    linecache.cache[filename] = (len(src), None, src.splitlines(True),
                                 filename)
    ns = {}
    exec(compile(src, filename, "exec"), ns)
    return ns["prog"], filename


def _inputs(seed, n=6):
    nprng = np.random.default_rng(40_000 + seed)
    return (nprng.normal(size=(n, n)).astype(np.float32),
            nprng.normal(size=(n, n)).astype(np.float32))


# -- bit-for-bit warm start --------------------------------------------------

class TestWarmStartDifferential:

    @pytest.mark.parametrize("seed", range(8))
    def test_fresh_instance_warm_starts_bit_for_bit(self, seed, tmp_path):
        prog, filename = _gen_program(seed, "diff")
        x, w = _inputs(seed)
        cfg = JanusConfig(cache_dir=str(tmp_path))
        try:
            cold = janus.function(prog, config=cfg)
            for _ in range(cfg.profile_runs + 1):
                cold(x, w)
            cold_out = cold(x, w)           # a settled graph run
            assert cold.stats["graphs_generated"] == 1
            assert cold.stats["warm_starts"] == 0
            assert _entries(tmp_path), "cold worker published nothing"

            warm = janus.function(prog, config=cfg)
            warm_out = warm(x, w)
            assert warm.stats["imperative_runs"] == 0, \
                "warm start must skip profiling entirely"
            assert warm.stats["graph_runs"] == 1
            assert warm.stats["graphs_generated"] == 0
            assert warm.stats["warm_starts"] == 1
            assert np.array_equal(cold_out.numpy(), warm_out.numpy())

            e_cold = cold.cache.entries()[0][1].compiled
            e_warm = warm.cache.entries()[0][1].compiled
            assert e_warm.from_disk and not e_cold.from_disk
            assert e_warm.node_count == e_cold.node_count
            assert e_warm.fused_ops == e_cold.fused_ops
            assert e_warm.executor.instruction_count \
                == e_cold.executor.instruction_count
        finally:
            linecache.cache.pop(filename, None)

    @pytest.mark.parametrize("seed", range(4))
    def test_load_compiled_matches_fresh_compile(self, seed, tmp_path):
        """The artifact rebuilt from the payload runs identically."""
        prog, filename = _gen_program(100 + seed, "load")
        x, w = _inputs(100 + seed)
        cfg = JanusConfig(cache_dir=str(tmp_path))
        try:
            f = janus.function(prog, config=cfg)
            for _ in range(cfg.profile_runs + 1):
                f(x, w)
            fresh_out = f(x, w)

            store = dc.store_for(cfg)
            (key,) = (name[:-len(dc.SUFFIX)]
                      for name in _entries(tmp_path))
            payload = store.load(key)
            assert isinstance(payload, bytes)
            signature = f.cache.entries()[0][0]
            loaded = load_compiled(payload, cfg, signature=signature)
            assert loaded.from_disk
            assert loaded.check_preconditions((x, w))
            feeds = loaded.bind_feeds(
                tuple(R.constant(a) for a in (x, w)))
            out = loaded.repack_outputs(loaded.run_flat(feeds))
            assert np.array_equal(out.numpy(), fresh_out.numpy())
        finally:
            linecache.cache.pop(filename, None)

    def test_second_process_equivalent_instance_reuses_entry(self, tmp_path):
        """Two instances -> one disk entry (same source/spec/config key)."""
        prog, filename = _gen_program(999, "dedup")
        x, w = _inputs(999)
        cfg = JanusConfig(cache_dir=str(tmp_path))
        try:
            for _ in range(3):
                f = janus.function(prog, config=cfg)
                for _ in range(cfg.profile_runs + 1):
                    f(x, w)
            assert len(_entries(tmp_path)) == 1
        finally:
            linecache.cache.pop(filename, None)

    def test_default_config_never_touches_disk(self, tmp_path, monkeypatch):
        """No cache_dir, no env var -> byte-identical legacy behavior."""
        monkeypatch.chdir(tmp_path)
        assert dc.store_for(JanusConfig()) is None
        prog, filename = _gen_program(7, "off")
        x, w = _inputs(7)
        try:
            f = janus.function(prog)
            for _ in range(f.config.profile_runs + 2):
                f(x, w)
            assert f.stats["graphs_generated"] == 1
            assert f.stats["warm_starts"] == 0
            assert DISKCACHE.loads == 0 and DISKCACHE.stores == 0
            assert not any(name.endswith(dc.SUFFIX)
                           for name in os.listdir(str(tmp_path)))
        finally:
            linecache.cache.pop(filename, None)


# -- key derivation ----------------------------------------------------------

class TestKeys:

    def test_key_varies_with_each_component(self):
        sig = (("T", "float32", 2),)
        base = dc.entry_key("src", sig, JanusConfig())
        assert base == dc.entry_key("src", sig, JanusConfig())
        assert dc.entry_key("other", sig, JanusConfig()) != base
        assert dc.entry_key("src", (("T", "float64", 2),),
                            JanusConfig()) != base
        assert dc.entry_key("src", sig,
                            JanusConfig(max_unroll=7)) != base

    def test_irrelevant_config_knobs_do_not_split_cache(self):
        sig = (("T", "float32", 2),)
        assert dc.entry_key("src", sig, JanusConfig()) == \
            dc.entry_key("src", sig, JanusConfig(cache_max_bytes=1))

    def test_signature_portability(self):
        assert dc.signature_portable((("T", "float32", 2), ("N",)))
        assert dc.signature_portable((("C", 3), ("C", "s"), ("C", None)))
        assert dc.signature_portable(
            (("L", 2, (("T", "float32", 1), ("C", 1.5))),))
        assert not dc.signature_portable((("C", np.float32(3)),))
        assert not dc.signature_portable((("F", "f"),))
        assert not dc.signature_portable((("V", 1),))
        assert not dc.signature_portable((("P", "obj"),))
        assert not dc.signature_portable(
            (("L", 1, (("P", "obj"),)),))

    def test_source_hash_none_for_unretrievable_source(self):
        exec_ns = {}
        exec("def ghost(x):\n    return x\n", exec_ns)
        assert dc.source_hash(exec_ns["ghost"]) is None
        assert dc.source_hash(_gen_program.__wrapped__
                              if hasattr(_gen_program, "__wrapped__")
                              else _gen_program) is not None


# -- tolerance: bad entries are misses, never errors -------------------------

class TestTolerance:

    KEY = "ab" * 32
    OTHER = "cd" * 32

    def _store(self, tmp_path, max_bytes=1 << 20):
        return dc.DiskGraphStore(str(tmp_path), max_bytes)

    def _miss_count(self, reason):
        return DISKCACHE.miss_reasons.get(reason, 0)

    def test_absent_entry_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        assert store.load(self.KEY) is None
        assert self._miss_count("absent") == 1

    def test_truncated_entry_is_a_miss_and_dropped(self, tmp_path):
        store = self._store(tmp_path)
        assert store.store(self.KEY, b"payload-bytes")
        path = store._entry_path(self.KEY)
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[:len(raw) // 2])
        assert store.load(self.KEY) is None
        assert self._miss_count("corrupt") == 1
        assert not os.path.exists(path), "bad entry must be dropped"
        # The cache heals: republish, then hit.
        assert store.store(self.KEY, b"payload-bytes")
        assert store.load(self.KEY) == b"payload-bytes"

    def test_garbage_entry_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        with open(store._entry_path(self.KEY), "wb") as fh:
            fh.write(b"\x00\x01not a pickle")
        assert store.load(self.KEY) is None
        assert self._miss_count("corrupt") == 1

    def test_non_dict_record_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        with open(store._entry_path(self.KEY), "wb") as fh:
            pickle.dump(["not", "a", "record"], fh)
        assert store.load(self.KEY) is None
        assert self._miss_count("corrupt") == 1

    def _record(self, payload=b"payload-bytes", **overrides):
        import hashlib
        record = {
            "format": ARTIFACT_FORMAT,
            "version": R.__version__,
            "key": self.KEY,
            "payload": payload,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        record.update(overrides)
        return record

    def _write_record(self, store, record, key=None):
        with open(store._entry_path(key or self.KEY), "wb") as fh:
            pickle.dump(record, fh)

    def test_format_skew_is_a_version_miss(self, tmp_path):
        store = self._store(tmp_path)
        self._write_record(store, self._record(format=ARTIFACT_FORMAT + 1))
        assert store.load(self.KEY) is None
        assert self._miss_count("version") == 1
        # Older records that ended up under a current key — format 1
        # (GeneratedGraph pickled from the one-module graphgen), format
        # 2 (loop gradients without the map to their forward, which
        # recompute it), format 3 (invoke and cond gradients that
        # recompute their callee), format 4 (the per-kind argument
        # prechecks, maybe generated from another signature's profile)
        # — are refused on their stamp, before anything tries to
        # unpickle their payload.
        assert ARTIFACT_FORMAT == 5

        def never(payload):
            raise AssertionError("an old-format payload was unpickled")

        for misses, old in enumerate((1, 2, 3, 4), start=2):
            self._write_record(store, self._record(format=old))
            assert store.load(self.KEY, rebuild=never) is None
            assert self._miss_count("version") == misses
        assert self._miss_count("rebuild") == 0

    def test_version_skew_is_a_version_miss(self, tmp_path):
        store = self._store(tmp_path)
        self._write_record(store, self._record(version="0.0.0-elsewhere"))
        assert store.load(self.KEY) is None
        assert self._miss_count("version") == 1

    def test_key_mismatch_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        # A record that claims KEY but sits under OTHER's path (e.g. a
        # hand-renamed file): provably not what the prober asked for.
        self._write_record(store, self._record(), key=self.OTHER)
        assert store.load(self.OTHER) is None
        assert self._miss_count("key_mismatch") == 1

    def test_payload_digest_mismatch_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        self._write_record(store, self._record(sha256="0" * 64))
        assert store.load(self.KEY) is None
        assert self._miss_count("corrupt") == 1

    def test_rebuild_failure_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        assert store.store(self.KEY, b"payload-bytes")

        def boom(payload):
            raise ValueError("not a GeneratedGraph")

        assert store.load(self.KEY, rebuild=boom) is None
        assert self._miss_count("rebuild") == 1
        # The poisoned entry was dropped, not retried forever.
        assert store.load(self.KEY) is None
        assert self._miss_count("absent") == 1

    def test_corrupted_entry_end_to_end_recompiles(self, tmp_path):
        """A worker facing a stale entry compiles and republishes."""
        prog, filename = _gen_program(55, "heal")
        x, w = _inputs(55)
        cfg = JanusConfig(cache_dir=str(tmp_path))
        try:
            cold = janus.function(prog, config=cfg)
            for _ in range(cfg.profile_runs + 1):
                cold(x, w)
            (name,) = _entries(tmp_path)
            with open(os.path.join(str(tmp_path), name), "wb") as fh:
                fh.write(b"garbage")

            healer = janus.function(prog, config=cfg)
            for _ in range(cfg.profile_runs + 1):
                healer(x, w)
            assert healer.stats["warm_starts"] == 0
            assert healer.stats["graphs_generated"] == 1
            assert self._miss_count("corrupt") == 1
            # ... and the entry is good again for the next worker.
            warm = janus.function(prog, config=cfg)
            warm(x, w)
            assert warm.stats["warm_starts"] == 1
        finally:
            linecache.cache.pop(filename, None)

    def test_lru_eviction_drops_oldest(self, tmp_path):
        # One record (payload + pickle/header overhead) fits the bound;
        # two do not — so the second publish must evict the first.
        store = self._store(tmp_path, max_bytes=2000)
        payload = b"x" * 1000
        assert store.store(self.KEY, payload)
        old = store._entry_path(self.KEY)
        os.utime(old, (1_000_000, 1_000_000))
        assert store.store(self.OTHER, payload)
        assert not os.path.exists(old), "oldest entry must be evicted"
        assert os.path.exists(store._entry_path(self.OTHER))
        assert DISKCACHE.evictions >= 1


# -- portability boundary ----------------------------------------------------

_PANEL_GAIN = 2.0


def _module_func():
    return _PANEL_GAIN


class TestPortability:

    def test_variable_artifact_never_published(self, tmp_path):
        var = R.Variable(np.ones((3,), dtype=np.float32))

        @janus.function(config=JanusConfig(cache_dir=str(tmp_path)))
        def with_state(x):
            return x + var.value()

        x = R.constant(np.ones((3,), dtype=np.float32))
        for _ in range(5):
            with_state(x)
        assert with_state.stats["graphs_generated"] == 1
        assert not _entries(tmp_path)
        compiled = with_state.cache.entries()[0][1].compiled
        assert compiled.portable_skip == "variable"
        assert DISKCACHE.store_skips == 1

    def test_heap_read_blocks_persistence(self, tmp_path):
        class Holder:
            pass

        m = Holder()
        m.t = R.constant(np.ones((3,), dtype=np.float32))

        @janus.function(config=JanusConfig(cache_dir=str(tmp_path)))
        def reads_heap(x):
            return x * m.t

        x = R.constant(np.ones((3,), dtype=np.float32))
        for _ in range(5):
            reads_heap(x)
        assert reads_heap.stats["graphs_generated"] == 1
        assert not _entries(tmp_path)
        assert with_stats_skip_reason(reads_heap) in (
            "identity_precheck", "heap_access")

    def test_unportable_signature_never_probes_disk(self, tmp_path):
        @janus.function(config=JanusConfig(cache_dir=str(tmp_path)))
        def apply(x, fn):
            return fn(x) + x

        x = R.constant(np.ones((3,), dtype=np.float32))
        for _ in range(5):
            apply(x, lambda t: t * 2.0)
        assert not _entries(tmp_path)
        assert DISKCACHE.hits == 0
        assert DISKCACHE.miss_reasons.get("unportable", 0) >= 1

    def test_serialize_raises_unportable_for_identity_prechecks(self):
        class Gen:
            prechecks = [("pins an object", spec.ArgIsObject(0, object()))]
            graph = None
        with pytest.raises(UnportableArtifact) as exc:
            serialize_generated(Gen())
        assert exc.value.reason == "identity_precheck"

    def test_precheck_family_pickles_with_semantics(self):
        arr = np.arange(4, dtype=np.float32)
        checks = [
            spec.ArgConstTensor(0, arr),
            spec.ArgShape(("arg", 0), (None, 4)),
            spec.ArgShape(("item", 0, 1), (2,)),
        ]
        for check in checks:
            clone = pickle.loads(pickle.dumps(check))
            assert type(clone) is type(check)
        clone = pickle.loads(pickle.dumps(spec.ArgConstTensor(0, arr)))
        assert clone((R.constant(arr.copy()),))
        assert not clone((R.constant(arr + 1),))
        rows = pickle.loads(pickle.dumps(checks[1]))
        assert rows((R.constant(np.zeros((3, 4), np.float32)),))
        assert not rows((R.constant(np.zeros((3, 5), np.float32)),))
        item = pickle.loads(pickle.dumps(checks[2]))
        assert item(([arr, np.zeros(2, np.float32)],))
        assert not item(([arr, np.zeros(3, np.float32)],))

    def test_identity_prechecks_flagged_unportable(self):
        assert spec.ArgIsObject(0, object()).portable is False
        assert spec.ArgTypeIs(0, int).portable is False
        assert spec.ArgConstTensor(0, np.ones(2)).portable is True
        assert spec.ArgShape(("arg", 0), (None, 2)).portable is True

    def test_global_equals_portable_round_trip(self, monkeypatch):
        check = spec.GlobalEquals(_module_func, "_PANEL_GAIN", _PANEL_GAIN)
        assert check.portable
        clone = pickle.loads(pickle.dumps(check))
        assert clone(())
        monkeypatch.setattr(
            sys.modules[__name__], "_PANEL_GAIN", 99.0)
        assert not clone(())

    def test_global_equals_pins_synthetic_globals(self):
        ns = {"G": 1}
        exec("def f():\n    return G\n", ns)
        check = spec.GlobalEquals(ns["f"], "G", 1)
        assert not check.portable
        assert check(())
        ns["G"] = 2
        assert not check(())

    def test_portable_artifact_has_no_blockers(self, tmp_path):
        prog, filename = _gen_program(11, "clean")
        x, w = _inputs(11)
        cfg = JanusConfig(cache_dir=str(tmp_path))
        try:
            f = janus.function(prog, config=cfg)
            for _ in range(cfg.profile_runs + 1):
                f(x, w)
            store = dc.store_for(cfg)
            (key,) = (n[:-len(dc.SUFFIX)] for n in _entries(tmp_path))
            payload = store.load(key)
            loaded = load_compiled(payload, JanusConfig())
            # A published payload carries zero blockers by construction.
            assert portability_blockers(loaded.generated) is None
        finally:
            linecache.cache.pop(filename, None)


def with_stats_skip_reason(f):
    return f.cache.entries()[0][1].compiled.portable_skip


# -- multi-process sharing ---------------------------------------------------

_WORKER_SRC = """\
import json
import sys

import numpy as np

import repro as R
from repro import janus
from repro.observability import DISKCACHE


@janus.function
def step(x, w):
    y = x @ w
    y = y * 1.5 + x
    y = y @ w
    return y + x * 0.25


def main():
    rng = np.random.RandomState(7)
    x = rng.rand(8, 8).astype(np.float32)
    w = rng.rand(8, 8).astype(np.float32)
    out = None
    for _ in range(6):
        out = step(x, w)
    print(json.dumps({
        "imperative_runs": step.stats["imperative_runs"],
        "graphs_generated": step.stats["graphs_generated"],
        "graph_runs": step.stats["graph_runs"],
        "warm_starts": step.stats["warm_starts"],
        "disk_hits": DISKCACHE.hits,
        "sum": float(out.numpy().sum()),
    }))


main()
"""


@pytest.mark.slow
class TestMultiProcess:

    def _spawn(self, script, cache_dir):
        src_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        env = os.environ.copy()
        env["JANUS_CACHE_DIR"] = str(cache_dir)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.Popen(
            [sys.executable, str(script)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_cold_stampede_then_warm_worker(self, tmp_path):
        script = tmp_path / "stampede_step.py"
        script.write_text(_WORKER_SRC)
        cache_dir = tmp_path / "cache"

        procs = [self._spawn(script, cache_dir) for _ in range(4)]
        results = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            results.append(json.loads(out.strip().splitlines()[-1]))

        # Atomic publication: racing publishers never tear the entry,
        # every worker finishes, and all outputs are identical.
        assert len({r["sum"] for r in results}) == 1
        assert len(_entries(cache_dir)) == 1
        assert all(r["graph_runs"] > 0 for r in results)

        proc = self._spawn(script, cache_dir)
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        late = json.loads(out.strip().splitlines()[-1])
        assert late["imperative_runs"] == 0
        assert late["graphs_generated"] == 0
        assert late["warm_starts"] == 1
        assert late["disk_hits"] == 1
        assert late["sum"] == results[0]["sum"]


# -- observability contract --------------------------------------------------

class TestDiskCacheStats:

    def _populated(self, registry=None):
        stats = DiskCacheStats(registry)
        stats.record_hit(0.002)
        stats.record_miss("absent")
        stats.record_miss("corrupt")
        stats.record_miss("corrupt")
        stats.record_store(2048)
        stats.record_store_skip()
        stats.record_evictions(3)
        stats.set_disk_usage(4096, 2)
        return stats

    def test_format_table_idle_and_populated(self):
        registry = Registry()
        DiskCacheStats(registry)
        rows = report_rows(render_report(registry))
        assert rows["janus_diskcache_loads_total"] == "0"
        assert rows["janus_diskcache_bytes_on_disk"] == "0"
        assert not [name for name in rows if name.startswith(
            ("janus_diskcache_misses_total", "janus_diskcache_load_"))]
        registry = Registry()
        self._populated(registry)
        rows = report_rows(render_report(registry))
        assert rows["janus_diskcache_loads_total"] == "4"
        assert rows["janus_diskcache_hits_total"] == "1"
        assert rows["janus_diskcache_misses_total{corrupt}"] == "2"
        assert rows["janus_diskcache_misses_total{absent}"] == "1"
        assert rows["janus_diskcache_entries_on_disk"] == "2"
        assert rows["janus_diskcache_bytes_on_disk"] == "4096"
        assert rows["janus_diskcache_load_seconds"] == "1"

    def test_stats_bundle_round_trip(self, tmp_path):
        path = str(tmp_path / "stats.json")
        registry = Registry()
        self._populated(registry)
        write_stats_json(path, registry=registry)
        diskcache = load_stats(path).diskcache
        assert diskcache.hits == 1
        assert diskcache.miss_reasons == {"absent": 1, "corrupt": 2}
        assert diskcache.store_bytes == 2048
        assert diskcache.entries_on_disk == 2
        assert diskcache.load_latency.count == 1
