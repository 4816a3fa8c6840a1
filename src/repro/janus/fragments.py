"""Fragment cache for incremental graph regeneration.

When a speculative assumption fails at runtime, JANUS falls back to
imperative execution, relaxes the broken assumption, and regenerates the
specialized graph (paper section 4.3).  A full ``generate()`` reconverts
the entire function AST even though a single relaxed branch assumption
usually invalidates only one small region.  This module keeps the
conversion artifacts of *regions* — dynamic branch arms and dynamic loop
bodies, which ``GraphGenerator`` builds as nested ``GraphFunction``
sub-graphs — alive across regenerations so the next ``generate()`` can
splice them back in instead of reconverting them.

A fragment is valid for reuse only if everything that influenced its
original conversion is unchanged:

* the profiler state it consulted (branch directions, trip counts,
  callees, attribute/subscript specs) — recorded as *deps*, each a
  ``(label, fetch, digest)`` closure that re-queries the current
  profiler and compares digests at splice time;
* external Python values burned into the graph at build time (globals,
  closure cells, constant attributes) — recorded as value deps;
* the symbolic environment it read, summarized per name as external /
  graph-structure / burned-constant (``env_summary``), checked against
  the current environment before splicing;
* the names it binds and the exact shape/dtype of every loop-init
  (the fragment's ``interface``), and the capture plan of a branch
  (checked against the current edges by the caller).

The dirty set — profiler sites whose assumptions were just relaxed —
fast-rejects any fragment that recorded a dependency on a relaxed site,
which is what makes regeneration *incremental*: only dirty regions are
reconverted, everything else splices.

Fragments whose conversion mutated shared build-time state (symbolic
list append/pop, stacked-list growth) are *poisoned* and never cached:
splicing them would skip the mutation replay.
"""

import numpy as np

from ..imperative.eager import Tensor
from ..imperative.variable import Variable
from ..tensor import TensorValue

__all__ = [
    "Fragment",
    "FragmentCache",
    "FragmentRecorder",
    "attr_digest",
    "env_summary",
    "value_digest",
]

#: Bound on ndarray bytes digested by content; larger arrays digest by
#: identity (pinned in the keepalive list against id reuse).
_CONTENT_BYTES = 4096
#: Container recursion bounds for :func:`value_digest`.
_MAX_DEPTH = 3
_MAX_ITEMS = 32


def value_digest(value, keep=None, depth=0):
    """Summarize a Python value for change detection.

    Returns a hashable, ``==``-comparable token.  Small immutable values
    digest by content; identity-digested objects are appended to *keep*
    so the fragment pins them alive (a garbage-collected id could be
    reused by an unrelated object and alias the digest).
    """
    if value is None or isinstance(value, (bool, int, float, complex,
                                           str, bytes)):
        return ("val", type(value).__name__, value)
    if isinstance(value, Variable):
        return ("var", value.uid)
    if isinstance(value, (Tensor, TensorValue, np.ndarray)):
        tv = value.value if isinstance(value, Tensor) \
            else value if isinstance(value, TensorValue) else None
        if tv is not None and (tv.tracked or tv.track()):
            # Write-barrier fast path: a sealed TensorValue cannot
            # change content under an unchanged (identity, version)
            # pair, so the version stamp replaces content hashing.
            # Untracked but trackable values are sealed *here* so the
            # digest kind never flips untracked→tracked between
            # generations (a flip would reject every fragment depending
            # on the value once on the first regeneration after
            # sealing, despite identical content).  ``track()`` refuses
            # views/borrowed buffers/barrier-off, which keep content
            # digests consistently.  Pinned for the same id-reuse
            # reason as the slow path.
            if keep is not None:
                keep.append(tv)
            return ("tvv", id(tv), tv.version)
        arr = np.asarray(tv.array if tv is not None else value)
        if arr.nbytes <= _CONTENT_BYTES:
            return ("arr", str(arr.dtype), arr.shape, arr.tobytes())
        if keep is not None:
            keep.append(value)
        return ("arrid", id(value))
    if isinstance(value, range):
        return ("range", value.start, value.stop, value.step)
    if isinstance(value, (list, tuple)):
        if depth >= _MAX_DEPTH or len(value) > _MAX_ITEMS:
            if keep is not None:
                keep.append(value)
            return ("seqid", id(value), len(value))
        return (type(value).__name__,
                tuple(value_digest(v, keep, depth + 1) for v in value))
    if isinstance(value, dict):
        if depth >= _MAX_DEPTH or len(value) > _MAX_ITEMS:
            if keep is not None:
                keep.append(value)
            return ("mapid", id(value), len(value))
        try:
            items = sorted(value.items())
        except TypeError:
            items = list(value.items())
        return ("map", tuple((value_digest(k, keep, depth + 1),
                              value_digest(v, keep, depth + 1))
                             for k, v in items))
    # Functions, modules, classes, arbitrary objects: identity.  These
    # are burned in by reference, so identity is exactly the contract.
    if keep is not None:
        keep.append(value)
    return ("objid", id(value))


def attr_digest(obj, name, keep=None):
    """Digest ``obj.name`` for a heap-attribute dependency.

    Tensor-valued attributes are read through ``py_get_attr`` nodes at
    run time (guarded by the spec, not burned in), so their *value* is
    irrelevant to the fragment — only the spec matters, and that is
    recorded separately.
    """
    try:
        value = getattr(obj, name)
    except AttributeError:
        return ("miss",)
    if isinstance(value, (Tensor, TensorValue, np.ndarray)):
        return ("dyn",)
    return value_digest(value, keep)


class FragmentRecorder:
    """Accumulates the dependency record while a region converts."""

    __slots__ = ("deps", "dep_sites", "keepalive", "poisoned",
                 "precheck_start")

    def __init__(self, precheck_start=0):
        self.deps = []           # (label, fetch, digest)
        self.dep_sites = set()   # profiler sites consulted
        self.keepalive = []      # objects pinned for id-digest validity
        self.poisoned = False    # build-time side effects: do not cache
        self.precheck_start = precheck_start


#: How :func:`env_summary` records a name the environment does not bind
#: (a global, closure cell or builtin — covered by value deps instead).
EXTERNAL = ("ext",)


def env_summary(env, names, token_of, keep):
    """How each name a region's conversion read resolved:
    ``token_of(value, keep)`` for bound names, :data:`EXTERNAL`
    otherwise."""
    return {name: token_of(env[name], keep) if name in env else EXTERNAL
            for name in sorted(names)}


class Fragment:
    """One cached conversion artifact for an AST region.

    ``kind`` labels the region (``"cond_ret"``, ``"cond_set"``,
    ``"loop"``); ``payload`` is whatever the splice site needs to
    rebuild its builder call (branch/loop sub-``GraphFunction``s, output
    structure, capture plan) and is opaque here.  Validation data:
    ``interface`` (the names and exact edge specs the region was built
    against), ``deps``/``dep_sites`` from the recorder, ``env_summary``
    mapping read names to how they resolved, and the precheck entries
    minted during the original conversion.
    """

    def __init__(self, kind, key, recorder, env_summary, prechecks,
                 interface=None, payload=None):
        self.kind = kind
        self.key = key
        self.deps = recorder.deps
        self.dep_sites = frozenset(recorder.dep_sites)
        self.keepalive = recorder.keepalive
        self.env_summary = env_summary
        self.precheck_entries = prechecks
        self.interface = interface
        self.payload = payload

    def valid(self, interface, dirty_sites, env, token_of):
        """Whether everything that influenced the conversion still holds.

        Dirty sites (just-relaxed assumptions) reject without
        re-querying: the whole point of the dirty set is that those
        regions *must* reconvert.  Every other dependency re-fetches and
        compares digests, and every name the region read must resolve
        in *env* the way it did.
        """
        if self.interface != interface:
            return False
        if dirty_sites and not self.dep_sites.isdisjoint(dirty_sites):
            return False
        for _label, fetch, digest in self.deps:
            try:
                if fetch() != digest:
                    return False
            except Exception:
                return False
        for name, token in self.env_summary.items():
            now = token_of(env[name]) if name in env else EXTERNAL
            if now != token:
                return False
        return True

    def adopt(self, prechecks, recorders):
        """Re-enter this record into a new generation on a splice: its
        prechecks join the new graph's list, and its deps flow into the
        outer regions still being recorded."""
        prechecks.extend(self.precheck_entries)
        for rec in recorders:
            rec.deps.extend(self.deps)
            rec.dep_sites.update(self.dep_sites)
            rec.keepalive.extend(self.keepalive)


class FragmentCache:
    """Per-``JanusFunction`` store of reusable fragments.

    Keys identify the AST region (profiler site plus a salt for loops
    whose body burned in iteration parameters); each key holds a short
    MRU list of variants because the same site can convert differently
    under different environments (e.g. different capture shapes across
    call signatures).  Only a generation reads or writes it, and a
    function generates under its one compile lock, so it takes no lock
    of its own.
    """

    #: Variants kept per region key.
    MAX_VARIANTS = 4

    def __init__(self):
        self._by_key = {}

    def lookup(self, key):
        """All cached variants for *key* (MRU first, copied)."""
        return tuple(self._by_key.get(key, ()))

    def touch(self, key, frag):
        """Move *frag* to the front of its variant list after a hit."""
        variants = self._by_key.get(key)
        if variants and frag in variants:
            variants.remove(frag)
            variants.insert(0, frag)

    def store(self, key, frag):
        variants = self._by_key.setdefault(key, [])
        variants.insert(0, frag)
        del variants[self.MAX_VARIANTS:]

    def clear(self):
        self._by_key.clear()

    def __len__(self):
        return sum(len(v) for v in self._by_key.values())
