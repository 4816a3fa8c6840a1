"""Per-function speculation-health attribution for JANUS.

The paper's execution model (§4.2–4.4) is a loop: profile the
imperative function, speculatively specialize a graph, guard every
assumption at runtime, fall back to imperative execution when a guard
trips, relax the failed assumption, and regenerate.  Counters tell you
*that* this loop ran; this module tells you *where* and *whether it is
working*: which assumption at which site keeps failing, what each
fallback and recompile cost, and whether a function has converged to
stable graph execution or is thrashing between specializations.

:class:`HealthRegistry` is a *view* over the metrics registry
(:mod:`repro.observability.metrics`).  Counts and totals are
instruments labelled ``function`` (and ``site``, ``kind``); the view
reads them back as attributes (``health.calls``, ``site.failures``).
What is an event log rather than a metric — the recent-call window,
the failure chain, per-site relax chains and guard text, the pending
recompile attribution — is the only state kept here, serialised as the
``health_log`` section of a stats bundle.

A *site* is the profiler's site key — a tuple rooted at the function
key with the AST path appended (e.g. ``(fkey, "attr", "h.scale")``) — or
a guard debug name when no profiler site is attached.  The runtime
(``janus/api.py``, ``janus/profiler.py``, ``janus/cache.py``,
``janus/graphgen/``) records only when ``METRICS`` is enabled, so the
level-0 cost is one attribute load per site.

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

from .metrics import METRICS, Registry, View

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


class SiteHealth(View):
    """One assumption site of one function: failures, relaxations, costs."""

    PREFIX = "janus_site_"
    LABELS = ("function", "site")
    SCALARS = (
        ("janus_site_relaxations_total",
         "Spec relaxations applied at the site."),
        ("janus_site_fragments_reused_total",
         "Fragment splices accepted at the site."),
        ("janus_site_fragments_reconverted_total",
         "Fragment splices rejected and reconverted at the site."),
    )

    def __init__(self, owner, function, site, kind=None):
        self.site = site
        self._owner = owner
        self._labels = (function, site_key(site))
        self._bind(owner._site_families, *self._labels)
        #: Measured imperative re-runs / regenerations attributed here.
        self.fallback = owner._site_fallback.labels(*self._labels)
        self.recompile = owner._site_recompile.labels(*self._labels)
        self.relax_chain = []            # [{"action", "detail"}, ...]
        self.last_guard = None           # human guard description
        self.set_kind(kind)

    def set_kind(self, kind):
        """The assumption kind (attr/branch/...) labels the failures."""
        self.kind = kind
        self._failures = self._owner._site_failures.labels(
            *self._labels, kind or "unknown")

    @property
    def failures(self):
        return self._failures.value

    @property
    def fragment_reuse_ratio(self):
        """Accepted / attempted fragment splices at this site (None if
        regeneration never touched it)."""
        attempts = self.fragments_reused + self.fragments_reconverted
        if not attempts:
            return None
        return self.fragments_reused / attempts


class SpeculationHealth(View):
    """Live health model for one ``janus.function``.

    Thread-safe: every ``record_*`` mutator runs under the owning
    registry view's lock — the lock its instruments were declared with
    — so one acquisition covers the counters and the event log, and
    concurrent callers never lose an increment or serialize a
    half-updated failure chain.
    """

    PREFIX = "janus_function_"
    LABELS = ("function",)
    SCALARS = (
        ("janus_function_calls_total",
         "Calls dispatched through the janus function."),
        ("janus_function_graph_runs_total",
         "Calls served by a compiled graph."),
        ("janus_function_imperative_runs_total",
         "Calls run imperatively (profiling, fallback, unconvertible)."),
        ("janus_function_profile_runs_total",
         "Instrumented imperative profiling runs."),
        ("janus_function_fallbacks_total",
         "Calls that fell back imperatively on a failed guard."),
        ("janus_function_graphs_generated_total",
         "Graphs generated and compiled."),
        ("janus_function_recompiles_total",
         "Post-relaxation graph regenerations."),
        ("janus_function_cache_evictions_total",
         "Graph-cache entries evicted by the LRU bound."),
        ("janus_function_cache_invalidations_total",
         "Graph-cache entries retired after a failed assumption."),
        ("janus_function_fused_ops_total",
         "Elementwise ops collapsed into fused kernels."),
        ("janus_function_coexec_runs_total",
         "Calls served by a co-execution plan."),
        ("janus_function_coexec_fragment_runs_total",
         "Symbolic fragment graph runs inside co-executed calls."),
    )

    def __init__(self, owner, name):
        self.name = name
        self._owner = owner
        self._lock = owner._lock
        self._bind(owner._function_families, name)
        self.sites = {}                 # site_key(site) -> SiteHealth
        self.imperative_only = False
        #: Weighted fraction of body ops inside symbolic fragments
        #: (None until the first co-executed call reports it).
        self.converted_ratio = None
        self.consecutive_graph_runs = 0
        #: Sliding window of recent call outcomes: "graph", "profile",
        #: "fallback", "recompile", "imperative", "coexec".
        self.recent = deque(maxlen=RECENT_WINDOW)
        #: Ordered record of guard failures: [{"site", "kind", "guard",
        #: "fallback_s", "recompile_s"}, ...] capped at MAX_CHAIN.
        self.failure_chain = []
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
                sh = self.sites[key] = SiteHealth(self._owner, self.name,
                                                  site, kind)
            elif kind is not None and sh.kind is None:
                sh.set_kind(kind)
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
        if self._disruptions() >= THRASH_DISRUPTIONS:
            return "thrashing"
        return "specialized"

    def _disruptions(self):
        return sum(1 for outcome in self.recent
                   if outcome in ("fallback", "recompile"))

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
                    % (self._disruptions(), len(self.recent), where))
        return ("graph exists but not yet converged (%d consecutive "
                "graph runs, need %d)"
                % (self.consecutive_graph_runs, CONVERGED_RUNS))

    def worst_site(self):
        """The site with the most failures (None when none failed)."""
        failing = [s for s in self.sites.values() if s.failures]
        if not failing:
            return None
        return max(failing, key=lambda s: s.failures)

    def summary(self):
        """The headline signals ``/health`` carries per function."""
        return {"name": self.name, "state": self.state,
                "diagnosis": self.diagnosis(), "calls": self.calls,
                "graph_runs": self.graph_runs,
                "graph_hit_ratio": self.graph_hit_ratio,
                "fallbacks": self.fallbacks,
                "recompiles": self.recompiles}

    # -- event recording (driven by the runtime) -----------------------------

    def _outcome(self, outcome, *counts):
        """How one call ended.  The call is counted here, with its
        outcome, so a call takes the lock once; the caller holds it."""
        for attr in ("calls",) + counts:
            self._add(attr)
        self.consecutive_graph_runs = \
            self.consecutive_graph_runs + 1 if outcome == "graph" else 0
        self.recent.append(outcome)

    def record_graph_run(self):
        with self._lock:
            self._outcome("graph", "graph_runs")

    def record_profile_run(self):
        with self._lock:
            self._outcome("profile", "profile_runs", "imperative_runs")

    def record_imperative_run(self):
        with self._lock:
            self._outcome("imperative", "imperative_runs")

    def record_failure(self, site, kind=None, guard=None):
        with self._lock:
            sh = self.site(site, kind)
            sh._failures.value += 1
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
            self.site(site, kind).fallback._observe(seconds)
            self._outcome("fallback", "fallbacks", "imperative_runs")
            self._stamp_failure(site_key(site), "fallback_s", seconds)

    def _stamp_failure(self, key, field, seconds):
        """Fill the cost of the latest failure at *key* still missing
        *field*."""
        for entry in reversed(self.failure_chain):
            if entry["site"] == key and entry[field] is None:
                entry[field] = seconds
                break

    def record_relax(self, site, action, detail=None, kind=None):
        with self._lock:
            sh = self.site(site, kind)
            sh._add("relaxations")
            if len(sh.relax_chain) < MAX_CHAIN:
                sh.relax_chain.append({"action": action, "detail": detail})

    def record_generation(self, seconds, regeneration, fused_ops=0):
        with self._lock:
            self._add("graphs_generated")
            self._add("fused_ops", int(fused_ops))
            if regeneration:
                self._add("recompiles")
                self.recent.append("recompile")
                # A recompile disrupts the stable streak: a function that
                # regenerates on every call must never report "converged".
                self.consecutive_graph_runs = 0
                pending = self._pending_recompile_site
                self._pending_recompile_site = None
                if pending is not None and pending in self.sites:
                    self.sites[pending].recompile._observe(seconds)
                    self._stamp_failure(pending, "recompile_s", seconds)

    def record_fragment(self, site, reused):
        with self._lock:
            self.site(site)._add("fragments_reused" if reused
                                 else "fragments_reconverted")

    def record_coexec_run(self, fragment_graph_runs, ratio=None):
        """One call served by the co-execution plan.

        ``fragment_graph_runs`` — compiled-graph executions across the
        plan's symbolic fragments during this call; ``ratio`` — the
        plan's current converted-op ratio (refinement shrinks it).
        """
        with self._lock:
            self._outcome("coexec", "coexec_runs")
            self._add("coexec_fragment_runs", int(fragment_graph_runs))
            if ratio is not None:
                self.converted_ratio = float(ratio)

    def record_imperative_only(self):
        with self._lock:
            self.imperative_only = True

    def record_cache_eviction(self):
        with self._lock:
            self._add("cache_evictions")

    def record_cache_invalidation(self):
        with self._lock:
            self._add("cache_invalidations")

    # -- the event log -------------------------------------------------------

    def _log(self):
        return {
            "imperative_only": self.imperative_only,
            "converted_ratio": self.converted_ratio,
            "consecutive_graph_runs": self.consecutive_graph_runs,
            "recent": list(self.recent),
            "failure_chain": [dict(entry) for entry in self.failure_chain],
            "pending_recompile_site": self._pending_recompile_site,
            "sites": {key: {"kind": sh.kind,
                            "relax_chain": list(sh.relax_chain),
                            "last_guard": sh.last_guard}
                      for key, sh in sorted(self.sites.items())},
        }

    def _restore_log(self, log):
        self.imperative_only = bool(log["imperative_only"])
        self.converted_ratio = log["converted_ratio"]
        self.consecutive_graph_runs = int(log["consecutive_graph_runs"])
        self.recent.extend(log["recent"])
        self.failure_chain = list(log["failure_chain"])
        self._pending_recompile_site = log["pending_recompile_site"]
        for key, site_log in log["sites"].items():
            sh = self.site(key, site_log["kind"])
            sh.relax_chain = list(site_log["relax_chain"])
            sh.last_guard = site_log["last_guard"]


class HealthRegistry(View):
    """All per-function health models over one metrics registry."""

    def __init__(self, registry=None):
        self.registry = registry = \
            Registry() if registry is None else registry
        #: Guards every health instrument and the event logs.  RLock
        #: because the recording paths call ``site`` internally.
        self._lock = lock = threading.RLock()
        self._functions = {}
        self._function_families = SpeculationHealth.declare(registry, lock)
        self._site_families = SiteHealth.declare(registry, lock)
        site_labels = SiteHealth.LABELS
        self._site_failures = registry.counter(
            "janus_site_failures_total",
            "Assumption failures per profiled site.",
            labels=site_labels + ("kind",), lock=lock)
        self._site_fallback = registry.histogram(
            "janus_site_fallback_seconds",
            "Imperative re-runs forced by a guard failure at the site.",
            labels=site_labels, lock=lock)
        self._site_recompile = registry.histogram(
            "janus_site_recompile_seconds",
            "Regenerations attributed to a guard failure at the site.",
            labels=site_labels, lock=lock)
        registry.gauge(
            "janus_function_state",
            "One-hot speculation state per function.",
            labels=("function", "state"),
            sample=lambda: {(fn.name, fn.state): 1
                            for fn in self.functions()})
        registry.gauge(
            "janus_function_graph_hit_ratio",
            "Fraction of calls served by a compiled graph.",
            labels=("function",),
            sample=lambda: {(fn.name,): fn.graph_hit_ratio
                            for fn in self.functions()})

    def function(self, name):
        """The (created-on-demand) health model for a function name."""
        health = self._functions.get(name)
        if health is None:
            with self._lock:
                health = self._functions.get(name)
                if health is None:
                    health = self._functions[name] = \
                        SpeculationHealth(self, name)
        return health

    def get(self, name):
        return self._functions.get(name)

    def functions(self):
        """Health models, sorted by function name."""
        with self._lock:
            return [self._functions[name]
                    for name in sorted(self._functions)]

    def snapshot(self):
        """The ``health_log`` bundle section: per function, what the
        registry's instruments do not carry."""
        with self._lock:
            return {fn.name: fn._log() for fn in self.functions()}

    def restore_log(self, snap):
        """Adopt a saved ``health_log`` over this view's (restored)
        registry."""
        for name, log in (snap or {}).items():
            self.function(name)._restore_log(log)

    def reset_log(self):
        with self._lock:
            self._functions.clear()


#: The process-wide health view; populated only while METRICS is
#: enabled.
HEALTH = METRICS.view(HealthRegistry)


def format_health_table(health):
    """Text table: one row per function with its headline signals.

    Accepts a :class:`HealthRegistry` (live or over a restored
    registry); returns [] when nothing was recorded.
    """
    functions = health.functions()
    if not functions:
        return []
    lines = [
        "  %-24s %-13s %6s %8s %9s %6s %6s %8s %8s"
        % ("function", "state", "calls", "hit%", "fallback", "recomp",
           "fail", "frag-re%", "fused")]
    for fn in functions:
        reuse = fn.fragment_reuse_ratio
        failures = sum(s.failures for s in fn.sites.values())
        lines.append(
            "  %-24s %-13s %6d %7.1f%% %9d %6d %6d %8s %8s"
            % (fn.name[:24], fn.state, fn.calls,
               fn.graph_hit_ratio * 100.0, fn.fallbacks,
               fn.recompiles, failures,
               "-" if reuse is None else "%.0f%%" % (reuse * 100.0),
               fn.fused_ops if fn.graphs_generated else "-"))
    return lines
