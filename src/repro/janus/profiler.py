"""Runtime profiler (paper figure 2 (A)).

A :class:`Profiler` is the recorder object the instrumented clone reports
to.  It accumulates, per syntactic site:

* branch directions (stable / unstable),
* loop trip counts and iterable kinds,
* callee identity per call site (and recursively instruments user-defined
  callees so profiling covers inlined code — the bytecode-level coverage
  of the paper's modified interpreter),
* attribute/subscript reads with value specs on the specialization
  lattice,
* per-function return-value specs (needed to type recursive calls).

Everything the graph generator later consumes is exposed through the
``branch_direction`` / ``trip_count`` / ``attr_spec`` / ... accessors,
each of which answers ``None`` for "no stable assumption available".
"""

import builtins
import threading
import types

import time

from ..errors import NotConvertible
from ..observability import HEALTH, METRICS, TRACER
from . import specialization as spec
from .instrument import instrument_function, function_key
from .whitelist import is_whitelisted

_PROFILE_SECONDS = METRICS.histogram(
    "janus_profile_run_seconds",
    "Instrumented imperative profiling runs.").labels()


class SiteProfile:
    """Aggregated observations at one syntactic site."""

    __slots__ = ("kind", "true_count", "false_count", "trip_counts",
                 "callees", "owner_spec", "value_spec", "iterable_spec",
                 "forced_dynamic", "per_owner")

    def __init__(self, kind):
        self.kind = kind
        self.true_count = 0
        self.false_count = 0
        self.trip_counts = set()
        self.callees = set()
        self.owner_spec = None
        self.value_spec = None
        self.iterable_spec = None
        # Layer code is shared by many instances, so one source site sees
        # attribute values from several owners (e.g. Conv2D.strides is 1
        # for some convs and 2 for others).  Per-owner specs keep each
        # object's assumption precise; the merged value_spec remains the
        # fallback for dynamic owners.
        self.per_owner = {}        # id(owner) -> (owner, ValueSpec)
        #: Set when a runtime assertion for this site failed: the site is
        #: no longer eligible for unrolling (assumption relaxation).
        self.forced_dynamic = False


class Profiler:
    """Recorder for one JanusFunction; also the instrumented-clone cache."""

    def __init__(self):
        self.sites = {}
        self.return_specs = {}      # function_key -> ValueSpec
        self._arg_specs = {}        # signature -> list[ValueSpec]
        self.runs = 0
        self._instrumented = {}     # underlying function -> clone
        self._while_counts = {}     # live trip counters for while sites
        self.enabled = False
        #: Owning janus.function name for health attribution (set by
        #: the JanusFunction constructor; None for standalone use).
        self.owner = None
        #: Guards every read-modify-write on the site table and the
        #: spec merges — concurrent profiled fallbacks (multi-tenant
        #: dispatch) must not lose a relaxation or duplicate a site.
        #: RLock: ``relax_attr_spec`` can recurse through ``merge``
        #: into recorder callbacks on exotic specs.
        self._lock = threading.RLock()

    # -- site bookkeeping ---------------------------------------------------

    def _get_site(self, site, kind):
        with self._lock:
            entry = self.sites.get(site)
            if entry is None:
                entry = SiteProfile(kind)
                self.sites[site] = entry
            return entry

    # -- recorder callbacks (called from instrumented code) -------------------

    def branch(self, site, test):
        value = bool(test)
        entry = self._get_site(site, "branch")
        with self._lock:
            if value:
                entry.true_count += 1
            else:
                entry.false_count += 1
        return value

    def while_test(self, site, test):
        value = bool(test)
        entry = self._get_site(site, "loop")
        with self._lock:
            counter = self._while_counts.get(site, 0)
            if value:
                self._while_counts[site] = counter + 1
            else:
                entry.trip_counts.add(counter)
                self._while_counts[site] = 0
        return value

    def loop(self, site, iterable):
        entry = self._get_site(site, "loop")
        with self._lock:
            entry.iterable_spec = spec.merge(entry.iterable_spec,
                                             spec.observe(iterable))
        count = 0
        for item in iterable:
            count += 1
            yield item
        # Lock only the bookkeeping — never across the yields above.
        with self._lock:
            entry.trip_counts.add(count)

    def call(self, site, callee):
        entry = self._get_site(site, "call")
        target = getattr(callee, "__func__", callee)
        with self._lock:
            entry.callees.add(target)
        resolved = self._resolve_callable(callee)
        if resolved is not None:
            func, self_obj = resolved
            if self._should_instrument(func):
                clone = self._instrument(func)
                if self_obj is not None:
                    return types.MethodType(clone, self_obj)
                return clone
        return callee

    @staticmethod
    def _resolve_callable(callee):
        """(function, bound self or None) behind any callable, or None.

        Callable objects (layers, models) resolve to their ``__call__`` —
        or directly to ``call`` when ``__call__`` is the generic
        Module forwarder — so profiling reaches the code JANUS inlines.
        """
        if isinstance(callee, types.FunctionType):
            return callee, None
        if isinstance(callee, types.MethodType):
            return callee.__func__, callee.__self__
        call_fn = getattr(type(callee), "__call__", None)
        if isinstance(call_fn, types.FunctionType):
            from ..nn.module import Module
            if isinstance(callee, Module) and call_fn is Module.__call__:
                call_fn = type(callee).call
            if isinstance(call_fn, types.FunctionType):
                return call_fn, callee
        return None

    def attr(self, site, owner, name):
        value = getattr(owner, name)
        entry = self._get_site(site, "attr")
        with self._lock:
            entry.owner_spec = spec.merge(entry.owner_spec,
                                          spec.observe(owner))
            observed = spec.observe(value)
            entry.value_spec = spec.merge(entry.value_spec, observed)
            prior = entry.per_owner.get(id(owner))
            entry.per_owner[id(owner)] = (
                owner, spec.merge(prior[1] if prior else None, observed))
        return value

    def subscr(self, site, owner, key):
        value = owner[key]
        entry = self._get_site(site, "subscr")
        with self._lock:
            entry.owner_spec = spec.merge(entry.owner_spec,
                                          spec.observe(owner))
            if not isinstance(key, slice):
                entry.value_spec = spec.merge(entry.value_spec,
                                              spec.observe(value))
        return value

    def ret(self, site, value):
        func_key = site[0]
        with self._lock:
            self.return_specs[func_key] = spec.merge(
                self.return_specs.get(func_key), spec.observe(value))
        return value

    def record_args(self, args, signature=None):
        observed = [spec.observe(a) for a in args]
        if signature is None:
            signature = tuple(o.signature() for o in observed)
        with self._lock:
            prior = self._arg_specs.get(signature)
            if prior is None:
                self._arg_specs[signature] = observed
            else:
                self._arg_specs[signature] = [
                    spec.merge(a, b) for a, b in zip(prior, observed)]
        return signature

    def arg_specs_for(self, signature):
        return self._arg_specs.get(signature)

    @property
    def arg_specs(self):
        """Specs of the most recently profiled signature (legacy)."""
        if not self._arg_specs:
            return None
        return next(reversed(self._arg_specs.values()))

    # -- instrumentation of callees ----------------------------------------------

    def _should_instrument(self, target):
        if not isinstance(target, types.FunctionType):
            return False
        if is_whitelisted(target):
            return False
        module = getattr(target, "__module__", "") or ""
        if module == "builtins" or module.startswith("numpy"):
            return False
        # Never re-instrument our own runtime; nn/models hold convertible
        # user-level code and profile like any other program.
        if module.startswith("repro.") and not module.startswith(
                "repro.nn") and not module.startswith("repro.models"):
            return False
        return True

    def _instrument(self, callee):
        target = getattr(callee, "__func__", callee)
        clone = self._instrumented.get(target)
        if clone is None:
            try:
                clone = instrument_function(target, self)
            except (NotConvertible, SyntaxError):
                clone = target
            self._instrumented[target] = clone
        if hasattr(callee, "__self__"):
            return types.MethodType(clone, callee.__self__)
        return clone

    # -- accessors for the graph generator ------------------------------------------

    def branch_direction(self, site):
        """True/False when the branch was always taken one way, else None."""
        entry = self.sites.get(site)
        if entry is None or entry.forced_dynamic:
            return None
        if entry.true_count and not entry.false_count:
            return True
        if entry.false_count and not entry.true_count:
            return False
        return None

    def trip_count(self, site):
        """The stable trip count of a loop site, or None."""
        entry = self.sites.get(site)
        if entry is None or entry.forced_dynamic:
            return None
        if len(entry.trip_counts) == 1:
            return next(iter(entry.trip_counts))
        return None

    def callee(self, site):
        """The single observed callee at a call site, or None."""
        entry = self.sites.get(site)
        if entry is None or len(entry.callees) != 1:
            return None
        return next(iter(entry.callees))

    def attr_spec(self, site, owner=None):
        entry = self.sites.get(site)
        if entry is None:
            return None
        if owner is not None:
            per_owner = entry.per_owner.get(id(owner))
            if per_owner is not None and per_owner[0] is owner:
                return per_owner[1]
        return entry.value_spec

    def subscr_spec(self, site):
        entry = self.sites.get(site)
        return entry.value_spec if entry else None

    def return_spec(self, func):
        return self.return_specs.get(function_key(func))

    def force_dynamic(self, site):
        """Relaxation hook: a runtime assert at this site failed."""
        entry = self.sites.get(site)
        if entry is not None:
            entry.forced_dynamic = True
            if TRACER.level:
                TRACER.instant("relax", "force_dynamic", site=repr(site),
                               kind=entry.kind)
            if METRICS.enabled and self.owner is not None:
                HEALTH.function(self.owner).record_relax(
                    site, "force_dynamic", kind=entry.kind)

    def relax_attr_spec(self, site, observed_value):
        entry = self.sites.get(site)
        if entry is not None:
            observed = spec.observe(observed_value)
            before = entry.value_spec
            entry.value_spec = spec.merge(entry.value_spec, observed)
            if TRACER.level:
                TRACER.instant("relax", "attr_spec", site=repr(site),
                               before=spec.describe(before),
                               after=spec.describe(entry.value_spec))
            if METRICS.enabled and self.owner is not None:
                HEALTH.function(self.owner).record_relax(
                    site, "attr_spec", kind=entry.kind,
                    detail="%s -> %s" % (spec.describe(before),
                                         spec.describe(entry.value_spec)))
            for owner_id, (owner, prior) in list(entry.per_owner.items()):
                entry.per_owner[owner_id] = (owner,
                                             spec.merge(prior, observed))
            if entry.value_spec.kind == spec.BOTTOM:
                entry.forced_dynamic = True

    def profile_call(self, func, args):
        """Run one profiled imperative execution of ``func``."""
        self._while_counts.clear()
        clone = self._instrument(func)
        self.record_args(args)
        self.runs += 1
        profile_start = time.perf_counter() if METRICS.enabled else 0.0
        result = clone(*args)
        if profile_start:
            _PROFILE_SECONDS.observe(time.perf_counter() - profile_start)
        self.return_specs[function_key(func)] = spec.merge(
            self.return_specs.get(function_key(func)), spec.observe(result))
        return result
