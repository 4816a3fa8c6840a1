"""The JANUS public API: the :func:`function` decorator.

A decorated function follows the execution model of paper figure 2:

1. the first ``profile_runs`` calls execute imperatively under the
   Profiler (A);
2. the Speculative Graph Generator then converts the program, specialized
   to the profiled context assumptions (B), unless it uses imperative-only
   features (C);
3. subsequent calls with matching precheckable assumptions run the cached
   symbolic graph (D);
4. a failed runtime assertion aborts the graph *before any state update*
   (all-or-nothing), falls back to the imperative executor, relaxes the
   broken assumption, and regenerates (E).

**One path, one count.**  After the cheap exits (imperative-only,
co-execution plan, profiling with no disk store) ``_call`` looks the
signature up and prechecks under the read lock; with no entry it
*obtains* one from exactly one source — ``_load`` (disk tier, while
profiling) or ``_compile`` (generator), both publishing through
``_install`` — and one tail serves them all: hit → ``_run_graph``, miss
→ retire + profile.  A run is counted where it runs, whether it returns
or raises; every event has one emitting site and one count per scope,
into per-thread cells that take no lock (docs/architecture.md).

``@janus.function(optimizer=opt)`` marks a *training* function: the body
returns a loss, and JANUS automatically appends gradient computation and
parameter-update operations to the generated graph (and uses a gradient
tape on the imperative path) — the paper's transparent handling of
automatic differentiation (section 3).

**Concurrency.**  A :class:`JanusFunction` may be called from many
threads at once (the multi-tenant serving layer in
:mod:`repro.serving` does exactly that).  Dispatch is RCU-style:
callers take the *read* side of a per-function
:class:`~repro.janus.concurrency.RWLock` only for the cheap
lookup-and-precheck, pin the :class:`CompiledGraph` they retrieved, and
execute it outside the lock, so warm callers never serialize on each
other.  Artifact transitions (retiring a failed entry, publishing a
regenerated one) take the write side — a pointer swap, never a compile.
Compilation itself is single-flight: per-signature tickets
(:class:`~repro.janus.concurrency.TicketTable`) guarantee that a
cold-start stampede produces one compile and an assumption-failure
storm produces one regeneration; every other caller is served by the
imperative fallback (§4.3 recovery) in the meantime.  With
``JanusConfig.recompile_workers > 0`` the ticket winner hands the
regeneration to a shared background pool and *also* falls back
imperatively, so the request path never blocks on graph generation.
"""

import functools
import threading
import time

from ..errors import AssumptionFailed, NotConvertible
from ..imperative.tape import training_step
from ..observability import COUNTERS, DISKCACHE, HEALTH, METRICS, \
    TRACER, reqtrace
from ..observability.metrics import Counter, Tally
from . import coexec as coexec_mod
from . import diskcache as diskcache_mod
from .cache import CacheEntry, GraphCache
from .compiled import RegenerationSeed, compile_generated, load_compiled
from .concurrency import RWLock, TicketTable, recompile_pool
from .config import get_config
from .fragments import FragmentCache
from .graphgen import GraphGenerator
from .profiler import Profiler


_DISPATCH_LATENCY = METRICS.windowed(
    "janus_dispatch_latency_seconds",
    "One janus.function dispatch, every outcome (warm hit, fallback, "
    "recompile, ...).").labels()
_PRECHECK_SECONDS = METRICS.histogram(
    "janus_guard_precheck_seconds",
    "Per-call cache precheck validation.").labels()
_GRAPHGEN_INITIAL = METRICS.histogram(
    "janus_graphgen_initial_seconds",
    "First graph generation + compilation of a signature.").labels()
_GRAPHGEN_RECOMPILE = METRICS.histogram(
    "janus_graphgen_recompile_seconds",
    "Post-relaxation regeneration + compilation.").labels()
_FALLBACK_SECONDS = METRICS.histogram(
    "janus_fallback_imperative_seconds",
    "Imperative re-runs forced by a failed runtime assumption.").labels()
#: The process-wide count of warm hits, bound once.
_HITS = COUNTERS.labels("cache.hits")

#: The keys of ``f.stats``, one per-thread counter each.
STATS = ("calls", "imperative_runs", "graph_runs", "fallbacks",
         "graphs_generated", "recompile_tickets", "stampede_fallbacks",
         "warm_starts", "coexec_runs", "coexec_fragment_runs",
         "precheck_misses")

#: Sentinel: "not yet computed" for the source-hash memo.
_UNSET = object()


class JanusFunction:
    """A Python function accelerated by speculative graph execution."""

    def __init__(self, func, optimizer=None, config=None):
        self.func = func
        self.optimizer = optimizer
        self._config = config
        self.profiler = Profiler()
        self.cache = GraphCache(max_entries=self.config.graph_cache_entries)
        #: Reusable conversion fragments surviving across regenerations
        #: (incremental regeneration, §4.3 recovery).
        self._fragment_cache = FragmentCache()
        #: Profiler sites relaxed since the last successful generate —
        #: the dirty set handed to the incremental generator.
        self._dirty_sites = set()
        self.imperative_only = False
        self.not_convertible_reason = None
        #: Human-readable description of the most recent failed runtime
        #: assumption (None until a fallback happens).
        self.last_assumption_failure = None
        #: This function's dispatch counts — the instance scope, never
        #: cleared (docs/architecture.md) — and their read-only view.
        self._counts = {key: Counter() for key in STATS}
        self.stats = Tally(self._counts)
        #: Terra-style co-execution schedule (docs/coexecution.md),
        #: installed when whole-function conversion fails on an
        #: unsupported construct but the body can be partitioned into
        #: symbolic fragments and imperative gaps.  None otherwise.
        self._coexec_plan = None
        #: RCU-style artifact slot: readers (warm callers) share it for
        #: lookup + precheck and execute the pinned artifact outside it;
        #: writers hold it only for the retire/publish pointer swaps.
        self._artifact_lock = RWLock()
        #: Per-signature single-flight compile tickets.
        self._tickets = TicketTable()
        #: Serializes graph generation (the generator reads and splices
        #: shared profiler/fragment state); never held on the warm path.
        self._generate_lock = threading.RLock()
        #: Narrow lock for the relaxed-site set.
        self._dirty_lock = threading.Lock()
        #: Warm-start bookkeeping (docs/compilation.md#persistence--warm-start):
        #: signatures whose disk probe already happened (probe once, then
        #: the in-memory tiers own the signature) and the memoized source
        #: hash keying this function's disk entries.
        self._disk_probed = set()
        self._disk_lock = threading.Lock()
        self._src_hash = _UNSET
        functools.update_wrapper(self, func)
        # Speculation-health attribution (populated only while METRICS
        # is enabled): the profiler and cache report relaxations and
        # churn under this function's name.
        self.profiler.owner = self.__name__
        self.cache.owner = self.__name__

    # -- configuration -----------------------------------------------------

    @property
    def config(self):
        return self._config if self._config is not None else get_config()

    def with_config(self, **overrides):
        """A copy of this function under different JanusConfig flags."""
        new = JanusFunction(self.func, optimizer=self.optimizer,
                            config=self.config.copy(**overrides))
        return new

    # -- the execution model (figure 2) ---------------------------------------

    def __call__(self, *args):
        """One metrics wrapper around the whole dispatch decision.

        ``dispatch.latency`` is windowed: the trailing-minute p95 over
        every outcome (warm hit, fallback, recompile, ...) is the
        per-function signal the serving layer's SLO view reads.
        """
        if not METRICS.enabled:
            return self._call(args)
        start = time.perf_counter()
        try:
            return self._call(args)
        finally:
            _DISPATCH_LATENCY.observe(time.perf_counter() - start)

    def _count(self, key):
        """One dispatch event, one call for both of its counts: the
        function's ``stats[key]`` and the flat ``dispatch.<key>``."""
        self._counts[key].inc()
        COUNTERS.labels("dispatch." + key).inc()

    def _call(self, args):
        args = tuple(_ensure_tensor(a) for a in args)
        self._counts["calls"].inc()
        if self.imperative_only:
            return self._run_imperative(args, "imperative")
        plan = self._coexec_plan
        if plan is not None:
            return self._run_coexec(plan, args)
        # Warm start: with a disk cache configured the profiling phase
        # dispatches too — a warm worker's first call loads the artifact
        # (one probe per signature) and runs it, zero profiling runs.
        # With no cache dir this is one None check on the profiling path.
        profiling = self.profiler.runs < self.config.profile_runs
        if profiling and self._disk_store() is None:
            return self._run_imperative(args, "profile")

        signature = self.cache.signature_of(args)
        # Read-side critical section: lookup + precheck only.  The
        # retrieved entry is pinned and executed *after* the lock drops
        # (RCU), so a slow graph run never delays an artifact swap and a
        # swap never delays other warm callers.
        with self._artifact_lock.read():
            entry = self.cache.lookup(signature)
            valid = entry is not None and \
                self._checked_preconditions(entry.compiled, args)
        if entry is None:
            obtain = self._load if profiling else self._compile
            entry, outcome = obtain(signature)
            if entry is None:
                # Neither source has one for this call.
                return self._run_imperative(args, outcome)
            valid = self._checked_preconditions(entry.compiled, args)
        if valid:
            # A hit ends in a graph run or a fallback, which count it.
            _HITS.inc()
            if TRACER.level:
                TRACER.instant("cache_hit", self.__name__)
            return self._run_graph(entry, args, signature)
        # Cache miss on precheck (for a loaded artifact: its burned-in
        # assumptions don't hold here, e.g. a changed module global):
        # relax + regenerate on the next call.
        self._counts["precheck_misses"].inc()
        COUNTERS.labels("cache.misses").inc()
        if TRACER.level:
            TRACER.instant("cache_miss", self.__name__,
                           reason="precheck_failed")
        self._retire_entry(signature)
        self.profiler.record_args(list(args))
        return self._run_imperative(args, "profile")

    @staticmethod
    def _checked_preconditions(compiled, args):
        """Run the entry's precheck, timing it when metrics are on."""
        if not METRICS.enabled:
            return compiled.check_preconditions(args)
        start = time.perf_counter()
        try:
            return compiled.check_preconditions(args)
        finally:
            _PRECHECK_SECONDS.observe(time.perf_counter() - start)

    def _compile(self, signature):
        """Obtain an entry from the generator: ``(entry, None)``, or
        ``(None, "imperative")`` when this call gets no graph."""
        if TRACER.level:
            TRACER.instant("cache_miss", self.__name__,
                           reason="no_entry", signature=repr(signature))
        if not self._tickets.claim(signature):
            # Another caller already owns the compile for this signature
            # (cold-start stampede or a background regeneration still in
            # flight): serve imperatively, do not duplicate the work.
            self._count("stampede_fallbacks")
            reqtrace.note("fallback", "stampede_loss",
                          flag="stampede_loss", function=self.__name__)
            return None, "imperative"
        try:
            with self._generate_lock:
                compiled = self._generate(signature)
            if compiled is None:
                # Imperative-only, or a co-execution plan was installed
                # instead: this call still serves imperatively, the next
                # one dispatches the plan.
                return None, "imperative"
            return self._install(signature, compiled), None
        finally:
            self._tickets.release(signature)

    def _install(self, signature, compiled):
        """Publish an obtained artifact: one write-locked pointer swap
        into the in-memory cache; a generated one (not one loaded from
        the disk tier) is then published there too."""
        entry = CacheEntry(compiled)
        self.cache.max_entries = self.config.graph_cache_entries
        with self._artifact_lock.write():
            self.cache.store(signature, entry)
        if compiled.from_disk:
            self._count("warm_starts")
        else:
            self._counts["graphs_generated"].inc()
            self._publish_disk(signature, compiled)
        return entry

    def _retire_entry(self, signature):
        """Invalidate a cache entry, keeping its artifact as a seed.

        Called after an assumption failure or failed precheck: the old
        CompiledGraph still holds the bound arg specs the regeneration
        can reuse, and the dirty set accumulated by ``_relax`` tells the
        incremental generator which fragments must reconvert.  Runs
        under the artifact write lock so concurrent readers see either
        the old entry or none — never a half-retired state.
        """
        with self._dirty_lock:
            dirty = frozenset(self._dirty_sites)
        with self._artifact_lock.write():
            entry = self.cache.invalidate(signature)
            if entry is not None:
                self.cache.remember_seed(
                    signature, RegenerationSeed(entry.compiled, dirty))

    # -- persistent cross-process cache (warm start) -------------------------

    def _disk_store(self):
        """The configured DiskGraphStore, or None (the default)."""
        return diskcache_mod.store_for(self.config)

    def _source_hash(self):
        if self._src_hash is _UNSET:
            self._src_hash = diskcache_mod.source_hash(self.func)
        return self._src_hash

    def _should_persist(self, signature):
        """Snapshot a serializable payload during this compile?"""
        return (signature is not None
                and diskcache_mod.signature_portable(signature)
                and self._disk_store() is not None
                and self._source_hash() is not None)

    def _disk_key(self, signature):
        src = self._source_hash()
        if src is None or not diskcache_mod.signature_portable(signature):
            return None
        return diskcache_mod.entry_key(src, signature, self.config)

    def _publish_disk(self, signature, compiled):
        """Publish a freshly-compiled artifact to the disk tier."""
        store = self._disk_store()
        if store is None or signature is None:
            return
        payload = compiled.take_payload()
        if payload is None:
            if compiled.portable_skip is not None:
                DISKCACHE.record_store_skip()
            return
        key = self._disk_key(signature)
        if key is None:
            return
        store.store(key, payload, graph_name=compiled.graph.name)
        with self._disk_lock:
            # The producer never needs to probe its own publication.
            self._disk_probed.add(signature)

    def _load(self, signature):
        """Obtain an entry from the disk tier while still profiling:
        ``(entry, None)`` — zero profiling runs — or ``(None,
        "profile")``.  The store is probed at most once per signature;
        a hit is compiled back into a full artifact and installed."""
        with self._disk_lock:
            probed = signature in self._disk_probed
            self._disk_probed.add(signature)
        if probed:
            return None, "profile"
        key = self._disk_key(signature)
        if key is None:
            # Identity-bearing signature or unknowable source: this
            # function/specialization can never live on disk.
            DISKCACHE.record_miss("unportable")
            return None, "profile"
        compiled = self._disk_store().load(
            key, rebuild=lambda payload: load_compiled(
                payload, self.config, signature=signature))
        if compiled is None:
            return None, "profile"
        return self._install(signature, compiled), None

    def _generate(self, signature=None):
        """Generate and compile: returns a CompiledGraph artifact (or
        None when the function is imperative-only).  Conversion and
        executor compilation happen together, inside one ``graphgen``
        span — the compile-once point of the pipeline."""
        regeneration = self.stats["graphs_generated"] > 0
        gen_start = time.perf_counter() if METRICS.enabled else 0.0
        with TRACER.span("graphgen", self.__name__,
                         regeneration=regeneration):
            try:
                seed = self.cache.take_seed(signature)
                with self._dirty_lock:
                    dirty_snapshot = frozenset(self._dirty_sites)
                dirty = dirty_snapshot
                if seed is not None:
                    dirty |= seed.dirty_sites
                generator = GraphGenerator(
                    self.func, self.profiler, self.config,
                    optimizer=self.optimizer, signature=signature,
                    fragments=self._fragment_cache,
                    dirty_sites=dirty, seed=seed)
                generated = generator.generate()
                # The reconverted graph no longer embeds the relaxed
                # assumptions; retiring them from the dirty set lets
                # fragments recorded during THIS conversion (which
                # legitimately depend on the now-relaxed sites) be
                # reused next time.  Only the snapshot is removed:
                # sites relaxed by a *concurrent* failure while this
                # generation ran were not consumed and must stay dirty
                # (a plain clear() would lose them).
                with self._dirty_lock:
                    self._dirty_sites -= dirty_snapshot
                compiled = compile_generated(
                    generated, self.config, signature=signature,
                    persist=self._should_persist(signature))
                if gen_start:
                    elapsed = time.perf_counter() - gen_start
                    (_GRAPHGEN_RECOMPILE if regeneration
                     else _GRAPHGEN_INITIAL).observe(elapsed)
                    HEALTH.function(self.__name__).record_generation(
                        elapsed, regeneration, compiled.fused_ops)
                return compiled
            except NotConvertible as exc:
                if not self.config.fail_on_not_convertible \
                        and self.config.coexecution \
                        and self._coexec_plan is None:
                    plan = coexec_mod.build_plan(self, exc)
                    if plan is not None:
                        # Terra-style partial conversion: keep the
                        # convertible regions symbolic instead of going
                        # whole-function imperative (docs/coexecution.md).
                        self._coexec_plan = plan
                        self.not_convertible_reason = str(exc)
                        return None
                self._give_up(str(exc))
                if TRACER.level:
                    TRACER.instant("fallback", self.__name__,
                                   reason="not_convertible",
                                   feature=exc.feature, detail=str(exc))
                if self.config.fail_on_not_convertible:
                    raise
                return None

    def _give_up(self, reason):
        """Figure 2 (C): permanently imperative-only — conversion found
        no graph for the function, or its co-execution plan failed."""
        plan, self._coexec_plan = self._coexec_plan, None
        if plan is not None:
            plan.invalidate()
        self.imperative_only = True
        self.not_convertible_reason = reason
        if METRICS.enabled:
            HEALTH.function(self.__name__).record_imperative_only()

    def _run_graph(self, entry, args, signature):
        compiled = entry.compiled
        failure = None
        try:
            flat = compiled.run_flat(compiled.bind_feeds(args))
        except AssumptionFailed as exc:
            failure = exc
        finally:
            # A graph run whether it returned or the program raised; a
            # failed assumption is counted by the fallback it forces.
            if failure is None:
                self._counts["graph_runs"].inc()
                if METRICS.enabled:
                    HEALTH.function(self.__name__).record_graph_run()
        if failure is not None:
            return self._fall_back(args, signature, failure)
        return compiled.repack_outputs(flat)

    def _fall_back(self, args, signature, exc):
        """Figure 2 (E): no state was committed; fall back, relax,
        regenerate with the broken assumption removed.  Under
        concurrency every caller pinned to the failing artifact observes
        the failure, but exactly one wins the recompile ticket and owns
        relax + retire + regeneration; the rest go straight to the
        imperative fallback."""
        self._counts["fallbacks"].inc()
        COUNTERS.labels("cache.assumption_failures").inc()
        self.last_assumption_failure = str(exc)
        if TRACER.level:
            TRACER.instant("assumption_fail", self.__name__,
                           guard=str(exc), site=repr(exc.site))
        reqtrace.note("fallback", self.__name__, flag="fallback",
                      reason="assumption_failed", guard=str(exc))
        if METRICS.enabled:
            site, kind = _failure_site(exc)
            HEALTH.function(self.__name__).record_failure(
                site, kind=kind, guard=str(exc))
        if self._tickets.claim(signature):
            self._count("recompile_tickets")
            reqtrace.note("graphgen", "recompile_ticket",
                          flag="recompile", function=self.__name__)
            background = self.config.recompile_workers > 0
            try:
                self._relax(exc)
                self._retire_entry(signature)
            finally:
                if not background:
                    # Inline mode: the next call regenerates (under its
                    # own cold-path ticket) — the historical
                    # single-caller behaviour.
                    self._tickets.release(signature)
            if background:
                # The ticket travels with the background job; cold
                # callers for this signature keep falling back until
                # the regenerated artifact is published.
                COUNTERS.labels("dispatch.background_recompiles").inc()
                reqtrace.note("graphgen", "background_recompile",
                              function=self.__name__)
                recompile_pool(self.config.recompile_workers).submit(
                    self._background_regenerate, signature)
        return self._run_imperative(args, "fallback", exc)

    def _run_coexec(self, plan, args):
        """Dispatch one call through the co-execution plan.

        The plan runs symbolic fragments and imperative gaps in
        statement order, refining itself when a fragment turns out
        unconvertible.  Two exits abandon it: a boundary mismatch
        (re-run the whole function imperatively — correctness first)
        and refinement degenerating to an all-gap schedule (no partial
        win left; classic imperative-only).
        """
        mismatch, frag_runs = None, 0
        try:
            result, frag_runs, alive = plan.run(args)
        except coexec_mod.BoundaryMismatch as exc:
            mismatch = exc
        finally:
            # Co-executed whether it returned or the program raised; a
            # mismatched call is an imperative run instead, so that
            # calls == graph_runs + imperative_runs + coexec_runs.
            if mismatch is None:
                self._count("coexec_runs")
                self._counts["coexec_fragment_runs"].inc(frag_runs)
                if METRICS.enabled:
                    HEALTH.function(self.__name__).record_coexec_run(
                        frag_runs, plan.converted_ratio)
        if mismatch is not None:
            COUNTERS.labels("coexec.boundary_fallbacks").inc()
            self._give_up("co-execution boundary mismatch: %s" % mismatch)
            reqtrace.note("fallback", self.__name__, flag="fallback",
                          reason="coexec_boundary", detail=str(mismatch))
            return self._run_imperative(args, "imperative")
        if not alive:
            self._give_up(self.not_convertible_reason)
        return result

    def _background_regenerate(self, signature):
        """Regenerate off the request path (recompile_workers > 0).

        Runs on the shared daemon pool while callers are served by the
        imperative fallback; the regenerated artifact is published with
        one write-locked pointer swap.  The signature's single-flight
        ticket — claimed by the failure that scheduled this job — is
        released only here, so no caller duplicates the compile while
        it is in flight.
        """
        try:
            with self._generate_lock:
                compiled = self._generate(signature)
            if compiled is not None:
                self._install(signature, compiled)
        finally:
            self._tickets.release(signature)

    @property
    def recompiles_in_flight(self):
        """Signatures whose compile/regeneration is currently owned."""
        return len(self._tickets)

    def _relax(self, failure):
        site = failure.site
        if isinstance(site, tuple) and len(site) == 2:
            kind, prof_site = site
            with self._dirty_lock:
                self._dirty_sites.add(prof_site)
            if kind in ("branch", "loop"):
                self.profiler.force_dynamic(prof_site)
            elif kind in ("attr", "subscr"):
                self.profiler.relax_attr_spec(prof_site, failure.observed)

    def _run_imperative(self, args, outcome, failure=None):
        """The imperative executor, and the one place its runs are
        counted (before running: a raising program still ran).
        *outcome*: ``"profile"`` — under the Profiler; ``"imperative"``
        — the plain function; ``"fallback"`` — the profiled re-run the
        assumption *failure* forced, timed as that site's guard cost."""
        self._counts["imperative_runs"].inc()
        health = HEALTH.function(self.__name__) if METRICS.enabled \
            else None
        timed = health is not None and outcome == "fallback"
        if health is not None and not timed:
            (health.record_profile_run if outcome == "profile"
             else health.record_imperative_run)()
        start = time.perf_counter() if timed else 0.0
        try:
            run = self.func if outcome == "imperative" else self._profiled
            if self.optimizer is None:
                return run(*args)
            return training_step(run, args, self.optimizer)
        finally:
            if timed:
                elapsed = time.perf_counter() - start
                _FALLBACK_SECONDS.observe(elapsed)
                site, kind = _failure_site(failure)
                health.record_fallback(site, elapsed, kind=kind)

    def _profiled(self, *args):
        return self.profiler.profile_call(self.func, list(args))

    # -- introspection -------------------------------------------------------------

    def cache_stats(self):
        """``stats`` plus the cache's structural counts and the retrieval
        outcomes, derived: every hit ends in exactly one graph run or
        one fallback."""
        stats = dict(self.stats)
        stats.update(self.cache.stats(),
                     hits=stats["graph_runs"] + stats["fallbacks"],
                     misses=stats["precheck_misses"],
                     assumption_failures=stats["fallbacks"])
        plan = self._coexec_plan
        if plan is not None:
            stats["coexec"] = plan.artifact().stats()
        return stats

    @property
    def coexec_plan(self):
        """The active co-execution plan, or None (introspection)."""
        return self._coexec_plan

    def __repr__(self):
        if self.imperative_only:
            mode = "imperative-only"
        elif self._coexec_plan is not None:
            mode = "co-executed"
        else:
            mode = "speculative"
        return "JanusFunction(%s, %s)" % (self.__name__, mode)

    def __get__(self, instance, owner):
        if instance is None:
            return self
        return _BoundJanusFunction(self, instance)


class _BoundJanusFunction:
    """Descriptor support: ``@janus.function`` on methods."""

    def __init__(self, jf, instance):
        self._jf = jf
        self._instance = instance

    def __call__(self, *args):
        return self._jf(self._instance, *args)

    def __getattr__(self, name):
        return getattr(self._jf, name)


def _failure_site(failure):
    """``(site, assumption kind)`` behind an AssumptionFailed payload.

    Guard closures raise with ``site=(kind, profiler_site)`` when the
    node carries a profiler site, else with the debug-name string; the
    health model keys on the profiler site so failures, relaxations,
    and fragment reuse all land on the same row.
    """
    site = failure.site
    if isinstance(site, tuple) and len(site) == 2:
        kind, prof_site = site
        return prof_site, kind
    return site, None


def _ensure_tensor(value):
    """Numpy/scalar arguments become eager tensors (TF-Eager semantics)."""
    import numpy as np
    from ..imperative.eager import Tensor
    from ..tensor import TensorValue
    if isinstance(value, (np.ndarray, np.generic)):
        return Tensor(TensorValue.of(np.asarray(value)))
    return value


def function(func=None, *, optimizer=None, config=None):
    """Decorate an imperative DL program for speculative graph execution.

    Usage::

        @janus.function
        def predict(x): ...

        @janus.function(optimizer=sgd)
        def train_step(x, y):
            ...
            return loss
    """
    if func is None:
        return lambda f: JanusFunction(f, optimizer=optimizer,
                                       config=config)
    return JanusFunction(func, optimizer=optimizer, config=config)
