"""Per-function speculation-health attribution for JANUS.

The paper's execution model (§4.2–4.4) is a loop: profile the
imperative function, speculatively specialize a graph, guard every
assumption at runtime, fall back to imperative execution when a guard
trips, relax the failed assumption, and regenerate.  Counters tell you
*that* this loop ran; this module tells you *where* and *whether it is
working*: which assumption at which site keeps failing, what each
fallback and recompile cost, and whether a function has converged to
stable graph execution or is thrashing between specializations.

Everything is keyed by ``(function, site, assumption kind)``.  A *site*
is the profiler's site key — a tuple rooted at the function key with
the AST path appended (e.g. ``(fkey, "attr", "h.scale")``) — or a guard
debug name when no profiler site is attached.  The registry is updated
by the runtime (``janus/api.py``, ``janus/profiler.py``,
``janus/cache.py``, ``janus/graphgen.py``) only when ``METRICS`` is
enabled, so its level-0 cost is the same one-attribute-load gate as the
histogram registry.

State model per function (reported by :attr:`SpeculationHealth.state`):

* ``imperative-only`` — conversion failed; JANUS gave up on this
  function permanently.
* ``partial`` — whole-function conversion failed but the function runs
  under a Terra-style co-execution plan (docs/coexecution.md): symbolic
  fragments interleaved with imperative gaps.  ``converted_ratio``
  reports the fraction of body operations running symbolically.
* ``profiling`` — still in the initial profiling runs; no graph yet.
* ``converged`` — the most recent :data:`CONVERGED_RUNS` calls all ran
  the compiled graph without a guard failure.
* ``thrashing`` — at least :data:`THRASH_DISRUPTIONS` of the last
  :data:`RECENT_WINDOW` calls were disrupted (guard failure + fallback,
  or a recompile): the function keeps paying specialization cost
  without settling.
* ``specialized`` — a graph exists and runs, but neither streak above
  applies yet (e.g. warming back up after a relaxation).
"""

import threading
from collections import deque

#: Consecutive undisrupted graph runs required to report "converged".
CONVERGED_RUNS = 5
#: Sliding window of recent calls inspected for thrashing.
RECENT_WINDOW = 32
#: Disrupted calls within the window that flip the state to "thrashing".
THRASH_DISRUPTIONS = 4
#: Max retained relax-chain entries / failure-chain entries per site.
MAX_CHAIN = 32


def site_key(site):
    """Canonical string for an assumption site (tuples stay readable)."""
    if isinstance(site, tuple):
        return "/".join(str(part) for part in site)
    return str(site)


class SiteHealth:
    """One assumption site of one function: failures, relaxations, costs."""

    __slots__ = ("site", "kind", "failures", "relaxations", "relax_chain",
                 "fallback_count", "fallback_total", "recompile_count",
                 "recompile_total", "fragments_reused",
                 "fragments_reconverted", "last_guard")

    def __init__(self, site, kind=None):
        self.site = site
        self.kind = kind                 # assumption kind: attr/branch/...
        self.failures = 0                # guard trips at this site
        self.relaxations = 0             # spec relaxations applied here
        self.relax_chain = []            # [{"action", "detail"}, ...]
        self.fallback_count = 0          # fallbacks attributed here
        self.fallback_total = 0.0        # measured imperative-rerun seconds
        self.recompile_count = 0         # regenerations attributed here
        self.recompile_total = 0.0       # measured graphgen seconds
        self.fragments_reused = 0        # splices accepted at this site
        self.fragments_reconverted = 0   # splices rejected → reconverted
        self.last_guard = None           # human guard description

    @property
    def fragment_reuse_ratio(self):
        """Accepted / attempted fragment splices at this site (None if
        regeneration never touched it)."""
        attempts = self.fragments_reused + self.fragments_reconverted
        if not attempts:
            return None
        return self.fragments_reused / attempts

    def snapshot(self):
        return {
            "site": site_key(self.site),
            "kind": self.kind,
            "failures": self.failures,
            "relaxations": self.relaxations,
            "relax_chain": list(self.relax_chain),
            "fallback_count": self.fallback_count,
            "fallback_total": self.fallback_total,
            "recompile_count": self.recompile_count,
            "recompile_total": self.recompile_total,
            "fragments_reused": self.fragments_reused,
            "fragments_reconverted": self.fragments_reconverted,
            "fragment_reuse_ratio": self.fragment_reuse_ratio,
            "last_guard": self.last_guard,
        }

    @classmethod
    def from_snapshot(cls, snap):
        sh = cls(snap.get("site", "?"), snap.get("kind"))
        sh.failures = int(snap.get("failures", 0))
        sh.relaxations = int(snap.get("relaxations", 0))
        sh.relax_chain = list(snap.get("relax_chain", ()))[:MAX_CHAIN]
        sh.fallback_count = int(snap.get("fallback_count", 0))
        sh.fallback_total = float(snap.get("fallback_total", 0.0))
        sh.recompile_count = int(snap.get("recompile_count", 0))
        sh.recompile_total = float(snap.get("recompile_total", 0.0))
        sh.fragments_reused = int(snap.get("fragments_reused", 0))
        sh.fragments_reconverted = int(snap.get("fragments_reconverted", 0))
        sh.last_guard = snap.get("last_guard")
        return sh


class SpeculationHealth:
    """Live health model for one ``janus.function``.

    Thread-safe: every ``record_*`` mutator and ``snapshot`` run under a
    per-function lock, so concurrent callers (N serving threads sharing
    one function) never lose an increment or serialize a half-updated
    failure chain.  RLock because the recording paths call :meth:`site`
    internally.
    """

    def __init__(self, name):
        self._lock = threading.RLock()
        self.name = name
        self.calls = 0
        self.graph_runs = 0
        self.imperative_runs = 0        # profiling + fallback + non-convert
        self.profile_runs = 0
        self.fallbacks = 0
        self.graphs_generated = 0
        self.recompiles = 0             # regenerations after the first build
        self.cache_evictions = 0
        self.cache_invalidations = 0
        self.fused_ops = 0              # elementwise ops collapsed, total
        self.imperative_only = False
        self.coexec_runs = 0            # calls served by a co-exec plan
        self.coexec_fragment_runs = 0   # symbolic fragment graph runs
        #: Weighted fraction of body ops inside symbolic fragments
        #: (None until the first co-executed call reports it).
        self.converted_ratio = None
        self.consecutive_graph_runs = 0
        #: Sliding window of recent call outcomes: "graph", "profile",
        #: "fallback", "recompile", "imperative".
        self.recent = deque(maxlen=RECENT_WINDOW)
        #: Ordered record of guard failures: [{"site", "kind", "guard",
        #: "fallback_s", "recompile_s"}, ...] capped at MAX_CHAIN.
        self.failure_chain = []
        self.sites = {}                 # site_key(site) -> SiteHealth
        #: Failure site whose relaxation the *next* regeneration pays
        #: for — lets us attribute recompile cost to the assumption
        #: that caused it.
        self._pending_recompile_site = None

    # -- site table ----------------------------------------------------------

    def site(self, site, kind=None):
        key = site_key(site)
        with self._lock:
            sh = self.sites.get(key)
            if sh is None:
                sh = self.sites[key] = SiteHealth(site, kind)
            if kind is not None and sh.kind is None:
                sh.kind = kind
            return sh

    # -- derived signals -----------------------------------------------------

    @property
    def graph_hit_ratio(self):
        """Graph runs / total calls — the paper's headline health signal."""
        return self.graph_runs / self.calls if self.calls else 0.0

    @property
    def fragment_reuse_ratio(self):
        """Accepted / attempted fragment splices across all sites."""
        reused = sum(s.fragments_reused for s in self.sites.values())
        total = reused + sum(s.fragments_reconverted
                             for s in self.sites.values())
        return reused / total if total else None

    @property
    def state(self):
        if self.imperative_only:
            return "imperative-only"
        if self.coexec_runs:
            return "partial"
        if not self.graphs_generated:
            return "profiling"
        if self.consecutive_graph_runs >= CONVERGED_RUNS:
            return "converged"
        disruptions = sum(1 for outcome in self.recent
                          if outcome in ("fallback", "recompile"))
        if disruptions >= THRASH_DISRUPTIONS:
            return "thrashing"
        return "specialized"

    def diagnosis(self):
        """One-line 'why is this function in this state' explanation."""
        state = self.state
        if state == "imperative-only":
            return ("conversion failed; permanently running the imperative "
                    "path")
        if state == "partial":
            ratio = self.converted_ratio
            pct = "?" if ratio is None else "%.0f%%" % (ratio * 100.0)
            return ("partially converted (%s of ops symbolic): %d "
                    "co-executed calls, %d fragment graph runs"
                    % (pct, self.coexec_runs, self.coexec_fragment_runs))
        if state == "profiling":
            return ("still profiling (%d imperative runs, no graph yet)"
                    % self.profile_runs)
        if state == "converged":
            return ("stable: last %d calls ran the compiled graph without "
                    "a guard failure" % self.consecutive_graph_runs)
        if state == "thrashing":
            worst = self.worst_site()
            where = (" — worst site %s (%s, %d failures)"
                     % (site_key(worst.site), worst.kind or "?",
                        worst.failures)) if worst else ""
            return ("%d of the last %d calls were disrupted by guard "
                    "failures or recompiles%s"
                    % (sum(1 for o in self.recent
                           if o in ("fallback", "recompile")),
                       len(self.recent), where))
        return ("graph exists but not yet converged (%d consecutive "
                "graph runs, need %d)"
                % (self.consecutive_graph_runs, CONVERGED_RUNS))

    def worst_site(self):
        """The site with the most failures (None when none failed)."""
        failing = [s for s in self.sites.values() if s.failures]
        if not failing:
            return None
        return max(failing, key=lambda s: s.failures)

    # -- event recording (driven by the runtime) -----------------------------

    def record_call(self):
        with self._lock:
            self.calls += 1

    def record_graph_run(self):
        with self._lock:
            self.graph_runs += 1
            self.consecutive_graph_runs += 1
            self.recent.append("graph")

    def record_profile_run(self):
        with self._lock:
            self.profile_runs += 1
            self.imperative_runs += 1
            self.consecutive_graph_runs = 0
            self.recent.append("profile")

    def record_imperative_run(self):
        with self._lock:
            self.imperative_runs += 1
            self.consecutive_graph_runs = 0
            self.recent.append("imperative")

    def record_failure(self, site, kind=None, guard=None):
        with self._lock:
            sh = self.site(site, kind)
            sh.failures += 1
            if guard is not None:
                sh.last_guard = guard
            self.consecutive_graph_runs = 0
            if len(self.failure_chain) < MAX_CHAIN:
                self.failure_chain.append({
                    "site": site_key(site), "kind": kind, "guard": guard,
                    "fallback_s": None, "recompile_s": None,
                })
            self._pending_recompile_site = site_key(site)

    def record_fallback(self, site, seconds, kind=None):
        with self._lock:
            sh = self.site(site, kind)
            sh.fallback_count += 1
            sh.fallback_total += seconds
            self.fallbacks += 1
            self.imperative_runs += 1
            self.consecutive_graph_runs = 0
            self.recent.append("fallback")
            for entry in reversed(self.failure_chain):
                if entry["site"] == site_key(site) \
                        and entry["fallback_s"] is None:
                    entry["fallback_s"] = seconds
                    break

    def record_relax(self, site, action, detail=None, kind=None):
        with self._lock:
            sh = self.site(site, kind)
            sh.relaxations += 1
            if len(sh.relax_chain) < MAX_CHAIN:
                sh.relax_chain.append({"action": action, "detail": detail})

    def record_generation(self, seconds, regeneration, fused_ops=0):
        with self._lock:
            self.graphs_generated += 1
            self.fused_ops += int(fused_ops)
            if regeneration:
                self.recompiles += 1
                self.recent.append("recompile")
                # A recompile disrupts the stable streak: a function that
                # regenerates on every call must never report "converged".
                self.consecutive_graph_runs = 0
                pending = self._pending_recompile_site
                self._pending_recompile_site = None
                if pending is not None and pending in self.sites:
                    sh = self.sites[pending]
                    sh.recompile_count += 1
                    sh.recompile_total += seconds
                    for entry in reversed(self.failure_chain):
                        if entry["site"] == pending \
                                and entry["recompile_s"] is None:
                            entry["recompile_s"] = seconds
                            break

    def record_fragment(self, site, reused):
        with self._lock:
            sh = self.site(site)
            if reused:
                sh.fragments_reused += 1
            else:
                sh.fragments_reconverted += 1

    def record_coexec_run(self, fragment_graph_runs, ratio=None):
        """One call served by the co-execution plan.

        ``fragment_graph_runs`` — compiled-graph executions across the
        plan's symbolic fragments during this call; ``ratio`` — the
        plan's current converted-op ratio (refinement shrinks it).
        """
        with self._lock:
            self.coexec_runs += 1
            self.coexec_fragment_runs += int(fragment_graph_runs)
            if ratio is not None:
                self.converted_ratio = float(ratio)
            self.consecutive_graph_runs = 0
            self.recent.append("coexec")

    def record_imperative_only(self):
        with self._lock:
            self.imperative_only = True

    def record_cache_eviction(self):
        with self._lock:
            self.cache_evictions += 1

    def record_cache_invalidation(self):
        with self._lock:
            self.cache_invalidations += 1

    # -- serialization -------------------------------------------------------

    def snapshot(self):
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self):
        return {
            "name": self.name,
            "state": self.state,
            "diagnosis": self.diagnosis(),
            "calls": self.calls,
            "graph_runs": self.graph_runs,
            "imperative_runs": self.imperative_runs,
            "profile_runs": self.profile_runs,
            "fallbacks": self.fallbacks,
            "graphs_generated": self.graphs_generated,
            "recompiles": self.recompiles,
            "cache_evictions": self.cache_evictions,
            "cache_invalidations": self.cache_invalidations,
            "fused_ops": self.fused_ops,
            "imperative_only": self.imperative_only,
            "coexec_runs": self.coexec_runs,
            "coexec_fragment_runs": self.coexec_fragment_runs,
            "converted_ratio": self.converted_ratio,
            "consecutive_graph_runs": self.consecutive_graph_runs,
            "graph_hit_ratio": self.graph_hit_ratio,
            "fragment_reuse_ratio": self.fragment_reuse_ratio,
            "recent": list(self.recent),
            "failure_chain": list(self.failure_chain),
            "sites": {key: sh.snapshot()
                      for key, sh in sorted(self.sites.items())},
        }

    @classmethod
    def from_snapshot(cls, snap):
        health = cls(snap.get("name", "?"))
        for field in ("calls", "graph_runs", "imperative_runs",
                      "profile_runs", "fallbacks", "graphs_generated",
                      "recompiles", "cache_evictions",
                      "cache_invalidations", "consecutive_graph_runs",
                      "fused_ops",
                      # Absent from pre-co-execution bundles: default 0.
                      "coexec_runs", "coexec_fragment_runs"):
            setattr(health, field, int(snap.get(field, 0)))
        ratio = snap.get("converted_ratio")
        health.converted_ratio = float(ratio) if ratio is not None else None
        health.imperative_only = bool(snap.get("imperative_only", False))
        health.recent.extend(snap.get("recent", ()))
        health.failure_chain = list(snap.get("failure_chain",
                                             ()))[:MAX_CHAIN]
        for key, site_snap in (snap.get("sites") or {}).items():
            health.sites[key] = SiteHealth.from_snapshot(site_snap)
        return health


class HealthRegistry:
    """All per-function health models in the process."""

    def __init__(self):
        self._functions = {}
        self._lock = threading.Lock()

    def function(self, name):
        """The (created-on-demand) health model for a function name."""
        health = self._functions.get(name)
        if health is None:
            with self._lock:
                health = self._functions.setdefault(
                    name, SpeculationHealth(name))
        return health

    def get(self, name):
        return self._functions.get(name)

    def functions(self):
        """Health models, sorted by function name."""
        return [self._functions[name] for name in sorted(self._functions)]

    def snapshot(self):
        return {name: health.snapshot()
                for name, health in sorted(self._functions.items())}

    @classmethod
    def from_snapshot(cls, snap):
        registry = cls()
        for name, health_snap in (snap or {}).items():
            registry._functions[name] = SpeculationHealth.from_snapshot(
                health_snap)
        return registry

    def clear(self):
        with self._lock:
            self._functions.clear()

    def __len__(self):
        return len(self._functions)


#: The process-wide health registry; populated only while METRICS is
#: enabled.
HEALTH = HealthRegistry()


def get_health():
    return HEALTH


def format_health_table(registry):
    """Text table: one row per function with its headline signals.

    Accepts a :class:`HealthRegistry` (live or restored from snapshot);
    returns [] when nothing was recorded.
    """
    functions = registry.functions()
    if not functions:
        return []
    lines = [
        "  %-24s %-13s %6s %8s %9s %6s %6s %8s %8s"
        % ("function", "state", "calls", "hit%", "fallback", "recomp",
           "fail", "frag-re%", "fused")]
    for health in functions:
        reuse = health.fragment_reuse_ratio
        failures = sum(s.failures for s in health.sites.values())
        lines.append(
            "  %-24s %-13s %6d %7.1f%% %9d %6d %6d %8s %8s"
            % (health.name[:24], health.state, health.calls,
               health.graph_hit_ratio * 100.0, health.fallbacks,
               health.recompiles, failures,
               "-" if reuse is None else "%.0f%%" % (reuse * 100.0),
               health.fused_ops if health.graphs_generated else "-"))
    return lines
