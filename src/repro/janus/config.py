"""JANUS runtime configuration.

The flags map one-to-one onto the optimization stages of paper figure 7:

* (BASE)  plain graph conversion — all flags off,
* +UNRL   ``unroll_stable_control_flow``: unroll branches/loops whose
  profile shows a single stable direction / trip count,
* +SPCN   ``specialize_types``: burn profiled shapes and stable values
  into the graph and run the optimization passes,
* +PARL   ``parallel_execution``: level-parallel graph schedule.  A
  request, with nothing to tune: the executor times every level that
  holds two heavy ops both ways over its first runs and fans out only
  the levels where that was measurably faster; with one usable CPU, or
  where no level wins, it runs the +SPCN loop (docs/compilation.md,
  "The level schedule").

Everything else either reproduces another paper result
(``deferred_state_update``: the section 4.2.3 ablation; ``coexecution``:
off is Table 4's all-or-nothing coverage), bounds a resource, or
describes a deployment.  A switch that only selected an older code path
is not kept: a removed keyword is a ``TypeError``.  The README's
"Configuration" table lists every field and environment variable.
"""

import copy
import inspect
import os


class JanusConfig:
    """Tunable behaviour of the speculative graph generator/executor."""

    def __init__(self,
                 profile_runs=3,
                 unroll_stable_control_flow=True,
                 specialize_types=True,
                 parallel_execution=True,
                 deferred_state_update=True,
                 max_unroll=256,
                 fail_on_not_convertible=False,
                 graph_cache_entries=64,
                 coexecution=True,
                 recompile_workers=0,
                 serving=None,
                 cache_dir=None,
                 cache_max_bytes=None):
        #: Imperative profiling iterations before generating a graph
        #: (the paper found 3 sufficient — section 3.1 footnote).
        self.profile_runs = profile_runs
        self.unroll_stable_control_flow = unroll_stable_control_flow
        self.specialize_types = specialize_types
        self.parallel_execution = parallel_execution
        #: When False, heap writes go through immediate py_call mutation —
        #: the "naive PyFuncOp" strategy the paper rejects (section 4.2.3);
        #: kept for the ablation benchmark.
        self.deferred_state_update = deferred_state_update
        #: Loops with stable trip counts above this stay dynamic.
        self.max_unroll = max_unroll
        #: Raise instead of silently falling back when a program cannot be
        #: converted (useful in tests).
        self.fail_on_not_convertible = fail_on_not_convertible
        #: Bound on live per-function GraphCache entries (LRU eviction
        #: beyond it; None = unbounded).  Novel-structure workloads like
        #: TreeNN generate one graph per input topology (§6.3.2) and
        #: would otherwise grow the cache without limit.
        self.graph_cache_entries = graph_cache_entries
        #: Terra-style imperative–symbolic co-execution
        #: (docs/coexecution.md).  When whole-function conversion fails
        #: on an unsupported construct, split the function into guarded
        #: symbolic fragments and imperative gaps instead of permanently
        #: falling back.  False is the paper's all-or-nothing verdict
        #: (Table 4).  Has no effect on functions that convert whole,
        #: and never changes results: any boundary trouble falls back
        #: whole-function imperative.
        self.coexecution = bool(coexecution)
        #: Background regeneration workers (docs/serving.md).  0 (the
        #: default) keeps the historical inline behaviour: the caller
        #: that wins the recompile ticket pays for regeneration on its
        #: next call.  > 0 hands regenerations to a shared daemon pool
        #: so the request path never blocks on graph generation —
        #: callers are served by the imperative fallback until the new
        #: artifact is published.
        self.recompile_workers = int(recompile_workers)
        #: Serving-layer configuration: None, or a
        #: :class:`repro.serving.ServingConfig` consumed by
        #: ``repro.serving.Server`` (max batch size, linger window,
        #: queue bounds).  Held here so one JanusConfig fully describes
        #: a deployment; the core runtime ignores it.
        self.serving = serving
        #: Directory for the persistent cross-process compile cache
        #: (docs/compilation.md#persistence--warm-start).  None defers
        #: to the JANUS_CACHE_DIR env var at dispatch time; both unset
        #: disables persistence entirely (the default — no disk I/O).
        self.cache_dir = cache_dir
        #: Size bound in bytes for the cache directory (LRU eviction
        #: beyond it).  None defers to JANUS_CACHE_MAX_BYTES, default
        #: 256 MiB.
        self.cache_max_bytes = cache_max_bytes

    def resolved_cache_dir(self):
        """The effective cache directory, or None when persistence is off.

        Resolved dynamically (not at construction) so the env var works
        for configs created before it was set — e.g. the module-level
        default config in a worker that reads JANUS_CACHE_DIR from its
        launcher.
        """
        if self.cache_dir:
            return str(self.cache_dir)
        return os.environ.get("JANUS_CACHE_DIR") or None

    def resolved_cache_max_bytes(self):
        if self.cache_max_bytes is not None:
            return int(self.cache_max_bytes)
        env = os.environ.get("JANUS_CACHE_MAX_BYTES")
        if env:
            try:
                return int(env)
            except ValueError:
                pass
        return 256 * 1024 * 1024

    def copy(self, **overrides):
        new = copy.copy(self)
        for key, value in overrides.items():
            if key not in FIELDS:
                raise AttributeError("unknown JanusConfig field %r" % key)
            setattr(new, key, value)
        return new

    def ablation_stage(self):
        """Label matching figure 7 (BASE / +UNRL / +SPCN / +PARL)."""
        if self.parallel_execution:
            return "+PARL"
        if self.specialize_types:
            return "+SPCN"
        if self.unroll_stable_control_flow:
            return "+UNRL"
        return "BASE"


#: What a JanusConfig holds — its constructor's parameter names.  The
#: one list ``copy()`` validates against and the README table is pinned to.
FIELDS = tuple(inspect.signature(JanusConfig).parameters)

#: Ablation presets, cumulative as in figure 7.
ABLATION_STAGES = {
    "BASE": dict(unroll_stable_control_flow=False, specialize_types=False,
                 parallel_execution=False),
    "+UNRL": dict(unroll_stable_control_flow=True, specialize_types=False,
                  parallel_execution=False),
    "+SPCN": dict(unroll_stable_control_flow=True, specialize_types=True,
                  parallel_execution=False),
    "+PARL": dict(unroll_stable_control_flow=True, specialize_types=True,
                  parallel_execution=True),
}

_default_config = JanusConfig()


def get_config():
    return _default_config


def set_config(config):
    global _default_config
    _default_config = config
