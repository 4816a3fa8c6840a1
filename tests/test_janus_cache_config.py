"""GraphCache, JanusConfig, whitelist, and error-type behaviours."""

import inspect
import pathlib
import re

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.errors import (AssumptionFailed, NotConvertible, ReproError,
                          ShapeError, GraphError, ExecutionError)
from repro.janus.cache import CacheEntry, GraphCache
from repro.janus.config import ABLATION_STAGES, FIELDS, JanusConfig
from repro.janus.diskcache import _CONFIG_KEY_FIELDS
from repro.janus import whitelist
from repro.ops import api
from repro.serving import ServingConfig


class TestGraphCache:
    def test_signature_groups_by_type_level(self):
        cache = GraphCache()
        a = cache.signature_of([R.constant(np.zeros((4, 2), np.float32))])
        b = cache.signature_of([R.constant(np.zeros((9, 2), np.float32))])
        c = cache.signature_of([R.constant(np.zeros((4, 2), np.int64))])
        assert a == b       # same dtype + rank
        assert a != c       # dtype differs

    def test_store_lookup_invalidate(self):
        cache = GraphCache()
        entry = CacheEntry(None)
        cache.store(("sig",), entry)
        assert cache.lookup(("sig",)) is entry
        cache.invalidate(("sig",))
        assert cache.lookup(("sig",)) is None
        cache.invalidate(("sig",))  # idempotent

    def test_stats_aggregate(self):
        """The cache counts what it does itself; retrieval outcomes are
        the owning function's (``cache_stats()``)."""
        cache = GraphCache()
        cache.store(("a",), CacheEntry(None))
        cache.store(("b",), CacheEntry(None))
        cache.store(("a",), CacheEntry(None))       # replaces, still a store
        cache.invalidate(("b",))
        cache.invalidate(("b",))                    # nothing to drop
        assert cache.stats() == {"entries": 1, "stores": 3,
                                 "evictions": 0, "invalidations": 1}

    def test_lifetime_totals_survive_invalidate(self):
        # Regression: stats used to be summed over live entries, so an
        # invalidate erased the history of everything that had happened.
        cache = GraphCache(max_entries=1)
        cache.store(("sig",), CacheEntry(None))
        cache.store(("other",), CacheEntry(None))   # evicts ("sig",)
        cache.invalidate(("other",))
        assert cache.stats() == {"entries": 0, "stores": 2,
                                 "evictions": 1, "invalidations": 1}

    def test_lru_eviction_bound(self):
        cache = GraphCache(max_entries=2)
        a, b, c = CacheEntry(None), CacheEntry(None), CacheEntry(None)
        cache.store(("a",), a)
        cache.store(("b",), b)
        cache.lookup(("a",))        # refresh a: b is now LRU
        cache.store(("c",), c)
        assert len(cache) == 2
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) is a
        assert cache.lookup(("c",)) is c
        assert cache.stats()["evictions"] == 1


class TestJanusConfig:
    def test_copy_overrides(self):
        cfg = JanusConfig()
        new = cfg.copy(profile_runs=7)
        assert new.profile_runs == 7
        assert cfg.profile_runs == 3    # original untouched

    def test_copy_rejects_unknown_field(self):
        with pytest.raises(AttributeError):
            JanusConfig().copy(bogus=True)

    @pytest.mark.parametrize("method", ["ablation_stage", "copy",
                                        "resolved_cache_dir"])
    def test_copy_rejects_method_names(self, method):
        """A field is a constructor parameter, not any attribute: a
        method name must not be replaced on the copy."""
        cfg = JanusConfig()
        with pytest.raises(AttributeError):
            cfg.copy(**{method: None})
        assert callable(getattr(cfg.copy(), method))

    def test_retired_lowering_flag_is_an_ordinary_unknown_kwarg(self):
        """One execution tier: no switch selects another."""
        with pytest.raises(TypeError):
            JanusConfig(lowering=False)
        assert not hasattr(JanusConfig(), "lowering")

    def test_retired_heavy_ops_threshold_is_an_ordinary_unknown_kwarg(self):
        """+PARL measures each level; there is no number to tune, and
        the knob does not split the disk cache either."""
        with pytest.raises(TypeError):
            JanusConfig(parallel_heavy_ops_threshold=2)
        assert not hasattr(JanusConfig(), "parallel_heavy_ops_threshold")
        assert "parallel_heavy_ops_threshold" not in _CONFIG_KEY_FIELDS

    @pytest.mark.parametrize("kwarg", [
        "tensor_write_barrier", "incremental_regeneration",
        "optimize_graph", "max_recursion_inline", "trace_level", "serving",
        "recompile_workers"])
    def test_retired_path_switch(self, kwarg):
        """One path per mechanism: the write barrier, fragment splicing
        and the +SPCN passes are not options; nothing read the inline
        bound; a trace level is process-wide (JANUS_TRACE); a ``Server``
        takes its own ``ServingConfig``; a regeneration runs on the next
        caller, and no caller waits on it."""
        with pytest.raises(TypeError):
            JanusConfig(**{kwarg: True})
        assert not hasattr(JanusConfig(), kwarg)
        assert kwarg not in _CONFIG_KEY_FIELDS

    def test_surface_is_eleven_fields(self):
        """Six paper switches, three bounds, one deployment field, one
        test aid (README "Configuration")."""
        assert len(inspect.signature(JanusConfig).parameters) == 11
        cfg = JanusConfig()
        assert all(hasattr(cfg, name) for name in FIELDS)
        # The disk-cache key lists only fields that exist.
        assert len(_CONFIG_KEY_FIELDS) == 6
        assert set(_CONFIG_KEY_FIELDS) <= set(FIELDS)

    def test_coexecution_is_not_read_from_the_environment(
            self, monkeypatch):
        monkeypatch.setenv("JANUS_COEXEC", "0")
        assert JanusConfig().coexecution is True
        assert JanusConfig(coexecution=False).coexecution is False

    def test_default_profile_runs_matches_paper(self):
        # Paper section 3.1 footnote: 3 iterations suffice.
        assert JanusConfig().profile_runs == 3

    def test_ablation_stages_are_cumulative(self):
        flags = ("unroll_stable_control_flow", "specialize_types",
                 "parallel_execution")
        # Stage k switches on exactly the first k figure-7 flags.
        for k, name in enumerate(("BASE", "+UNRL", "+SPCN", "+PARL")):
            stage = ABLATION_STAGES[name]
            assert stage == {flag: i < k for i, flag in enumerate(flags)}
            assert JanusConfig(**stage).ablation_stage() == name

    def test_global_config_swap(self):
        original = janus.get_config()
        try:
            janus.set_config(JanusConfig(profile_runs=1))
            assert janus.get_config().profile_runs == 1
        finally:
            janus.set_config(original)


class TestConfigurationReference:
    """README "Configuration" is the one reference; it is pinned here."""

    KINDS = ("paper figure: ", "deployment", "resource bound", "test aid")

    def _rows(self):
        readme = (pathlib.Path(__file__).parent.parent / "README.md") \
            .read_text(encoding="utf-8")
        section = readme.split("## Configuration\n", 1)[1] \
            .split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            match = re.match(r"\| `(\w+)` \| `?(\w+)`? \| (.+?) \| (.+?) \|",
                             line)
            if match:
                name, where, default, kind = match.groups()
                assert kind.startswith(self.KINDS), line
                rows.setdefault(where, {})[name] = default.strip("`")
        return rows

    @pytest.mark.parametrize("cls", [JanusConfig, ServingConfig])
    def test_kwargs_match(self, cls):
        params = inspect.signature(cls).parameters
        assert self._rows()[cls.__name__] == {
            name: repr(param.default) for name, param in params.items()}

    def test_environment_variables_match(self):
        src = pathlib.Path(R.__file__).parent
        read = set()
        for path in src.rglob("*.py"):
            read.update(re.findall(r"JANUS_[A-Z_]+",
                                   path.read_text(encoding="utf-8")))
        assert set(self._rows()["environment"]) == read
        assert len(read) == 6


class TestWhitelist:
    def test_framework_functions_whitelisted(self):
        for fn in (api.matmul, api.conv2d, api.reduce_sum, api.softmax):
            assert whitelist.is_whitelisted(fn)

    def test_builtins_whitelisted(self):
        assert whitelist.is_whitelisted(print)
        assert whitelist.is_whitelisted(len)
        assert whitelist.is_whitelisted(range)

    def test_user_function_not_whitelisted(self):
        def mine():
            pass
        assert not whitelist.is_whitelisted(mine)

    def test_names_listing_is_sorted_and_nonempty(self):
        names = whitelist.whitelisted_names()
        assert len(names) > 50
        assert names == sorted(names)

    def test_handler_for_framework_fn_is_identity(self):
        assert whitelist.handler_for(api.matmul) is api.matmul


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for err in (ShapeError, GraphError, ExecutionError,
                    AssumptionFailed, NotConvertible):
            assert issubclass(err, ReproError)

    def test_assumption_failed_carries_site(self):
        exc = AssumptionFailed("boom", site=("branch", "s1"),
                              observed=42)
        assert exc.site == ("branch", "s1")
        assert exc.observed == 42

    def test_not_convertible_carries_feature(self):
        exc = NotConvertible("nope", feature="yield")
        assert exc.feature == "yield"


class TestJanusStatsAccounting:
    def test_fallback_increments_and_graph_regenerates(self):
        holder = type("H", (), {})()
        holder.state = R.constant(np.zeros((4, 2), np.float32))

        @janus.function(config=JanusConfig(
            fail_on_not_convertible=True))
        def f():
            return R.reduce_sum(holder.state)

        for _ in range(5):
            f()
        generated_before = f.stats["graphs_generated"]
        holder.state = R.constant(np.zeros((2, 2), np.float32))
        f()   # assert fails -> fallback
        assert f.stats["fallbacks"] == 1
        f()   # relaxed graph regenerated
        assert f.stats["graphs_generated"] == generated_before + 1
        # Relaxed shape covers both sizes without further regeneration.
        holder.state = R.constant(np.zeros((4, 2), np.float32))
        f()
        holder.state = R.constant(np.zeros((7, 2), np.float32))
        out = f()
        assert float(out.numpy()) == 0.0
        assert f.stats["graphs_generated"] == generated_before + 1
