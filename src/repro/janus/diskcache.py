"""Persistent cross-process compile cache (warm-start backing store).

The in-memory :class:`~repro.janus.cache.GraphCache` dies with its
process, so every worker in a fleet — and every restart — pays the full
profile → convert → optimize → compile pipeline for functions an identical
neighbour already compiled.  This module is the disk tier underneath it:
serialized pre-fusion :class:`~repro.janus.graphgen.GeneratedGraph`
payloads (see :func:`repro.janus.compiled.serialize_generated`) keyed so
that a hit is *provably* the artifact this process would have compiled
itself:

* **function source hash** — the decorated function's ``getsource``
  text; an edited function can never alias its old graphs,
* **spec digest** — the call-signature tuple (dtype/rank of every
  argument); one entry per specialization, exactly like the memory tier,
* **config digest** — every JanusConfig field that alters generation,
* **repro version + artifact format** — cross-version entries miss.

Store discipline (the part that makes sharing a directory across N
concurrent workers safe):

* **atomic publication** — payloads are written to a same-directory
  temp file and ``os.replace``'d into place, so a reader sees either
  nothing or a complete record, never a torn write,
* **tolerance** — a corrupt, truncated, version-skewed, or
  key-mismatched entry is a *miss*, never an error; the worker falls
  back to compiling (and republishes a good entry),
* **LRU bound** — the directory is capped (default 256 MiB,
  ``JANUS_CACHE_MAX_BYTES``); eviction drops oldest-mtime entries and
  hits refresh mtime.

Nothing here is imported on the default path: the store is only
constructed when ``JanusConfig.cache_dir`` / ``JANUS_CACHE_DIR`` is
set.  Instrumentation lands in
:data:`repro.observability.diskcache.DISKCACHE` (the ``janus-stats``
"disk cache" section, ``janus_diskcache_*`` in ``/metrics``).
"""

import hashlib
import inspect
import os
import pickle
import tempfile
import time

from .. import __version__
from ..observability import COUNTERS, TRACER, reqtrace
from ..observability.diskcache import DISKCACHE
from .compiled import ARTIFACT_FORMAT

__all__ = ["DiskGraphStore", "store_for", "entry_key", "source_hash",
           "config_digest", "signature_portable"]

#: Cache-entry file suffix ("janus graph, compiled").
SUFFIX = ".jgc"

#: JanusConfig fields that alter what generate()/compile_generated()
#: produce; any drift forces a fresh key.  Deliberately explicit — new
#: fields must opt in, so an unrelated config knob never splits the
#: cache and a codegen-relevant one is a conscious decision.
_CONFIG_KEY_FIELDS = (
    "profile_runs", "unroll_stable_control_flow", "specialize_types",
    "parallel_execution", "deferred_state_update", "max_unroll",
)


def source_hash(func):
    """Hex digest of the function's source text, or None when unknown.

    None (dynamically exec'd code, interactive definitions) disables
    persistence for the function — a graph we cannot tie to source is a
    graph we cannot safely invalidate on edit.
    """
    target = getattr(func, "__func__", func)
    try:
        source = inspect.getsource(target)
    except (OSError, TypeError):
        return None
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def config_digest(config):
    parts = tuple((name, getattr(config, name, None))
                  for name in _CONFIG_KEY_FIELDS)
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def signature_portable(signature):
    """Whether a call signature means the same thing in another process.

    Tensor ("T"), plain-constant ("C"), None ("N"), and list ("L")
    tokens describe values; callable ("F"), variable ("V"), pyobj
    ("P"), and bottom ("_") tokens name *objects of this process* and
    can never key a shared entry.
    """
    for token in signature:
        tag = token[0]
        if tag in ("T", "N"):
            continue
        if tag == "C":
            if not (token[1] is None
                    or isinstance(token[1], (bool, int, float, str))):
                return False
            continue
        if tag == "L":
            if not signature_portable(token[2]):
                return False
            continue
        return False
    return True


def entry_key(src_hash, signature, config):
    """Stable hex key for one (function, specialization, config) entry."""
    material = repr((__version__, ARTIFACT_FORMAT, src_hash,
                     config_digest(config), signature))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class DiskGraphStore:
    """One process's handle on a (possibly shared) cache directory."""

    def __init__(self, path, max_bytes):
        self.path = str(path)
        self.max_bytes = int(max_bytes)

    def _entry_path(self, key):
        return os.path.join(self.path, key + SUFFIX)

    # -- load ----------------------------------------------------------------

    def load(self, key, rebuild=None):
        """Load the entry for *key*, or None (every failure is a miss).

        Without *rebuild*, returns the raw payload bytes.  With
        *rebuild* (a callable payload -> artifact), returns the rebuilt
        artifact, counts a ``rebuild`` miss when it raises, and times
        the *whole* warm-start price — read + validate + rebuild — into
        the load-latency histogram.  The probe is a ``diskcache_probe``
        span on the active request trace (plain tracer span otherwise),
        so a warm start is attributable to the request that paid it.
        """
        with reqtrace.span("diskcache_probe", key[:12]):
            return self._load(key, rebuild)

    def _load(self, key, rebuild):
        start = time.perf_counter()
        entry_path = self._entry_path(key)
        try:
            with open(entry_path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return self._miss(key, "absent")
        try:
            record = pickle.loads(raw)
        except Exception:
            return self._miss(key, "corrupt")
        if not isinstance(record, dict):
            return self._miss(key, "corrupt")
        if record.get("format") != ARTIFACT_FORMAT or \
                record.get("version") != __version__:
            return self._miss(key, "version")
        if record.get("key") != key:
            return self._miss(key, "key_mismatch")
        payload = record.get("payload")
        if not isinstance(payload, bytes) or \
                hashlib.sha256(payload).hexdigest() != record.get("sha256"):
            return self._miss(key, "corrupt")
        result = payload
        if rebuild is not None:
            try:
                result = rebuild(payload)
            except Exception:
                return self._miss(key, "rebuild")
        try:
            os.utime(entry_path, None)   # refresh LRU position
        except OSError:
            pass
        DISKCACHE.record_hit(time.perf_counter() - start)
        if TRACER.level:
            TRACER.instant("janus", "diskcache_hit", key=key[:12],
                           graph=record.get("graph"),
                           bytes=len(payload))
        return result

    def _miss(self, key, reason):
        DISKCACHE.record_miss(reason)
        if reason not in ("absent",):
            # A recognizably bad entry is dead weight: drop it so the
            # next publisher replaces it instead of re-missing forever.
            self._drop(key)
        return None

    def _drop(self, key):
        try:
            os.unlink(self._entry_path(key))
        except OSError:
            pass

    # -- store ---------------------------------------------------------------

    def store(self, key, payload, graph_name=None):
        """Atomically publish *payload* under *key*; returns success.

        Concurrent publishers of the same key race benignly: both
        records are identical by construction (same source, spec,
        config, version), so whichever ``os.replace`` lands last wins
        with identical content.
        """
        record = {
            "format": ARTIFACT_FORMAT,
            "version": __version__,
            "key": key,
            "payload": payload,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "graph": graph_name,
            "created": time.time(),
        }
        try:
            os.makedirs(self.path, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=key[:12] + ".", suffix=".tmp", dir=self.path)
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(record, fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_path, self._entry_path(key))
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            COUNTERS.labels("diskcache.store_errors").inc()
            return False
        DISKCACHE.record_store(len(payload))
        if TRACER.level:
            TRACER.instant("janus", "diskcache_store", key=key[:12],
                           graph=graph_name, bytes=len(payload))
        self._evict()
        return True

    # -- maintenance ---------------------------------------------------------

    def _scan(self):
        """(path, mtime, size) for every entry; tolerant of races."""
        entries = []
        try:
            names = os.listdir(self.path)
        except OSError:
            return entries
        for name in names:
            if not name.endswith(SUFFIX):
                continue
            full = os.path.join(self.path, name)
            try:
                stat = os.stat(full)
            except OSError:
                continue    # concurrently evicted by another worker
            entries.append((full, stat.st_mtime, stat.st_size))
        return entries

    def _evict(self):
        entries = self._scan()
        total = sum(size for _, _, size in entries)
        evicted = 0
        if total > self.max_bytes:
            for full, _, size in sorted(entries, key=lambda e: e[1]):
                if total <= self.max_bytes:
                    break
                try:
                    os.unlink(full)
                except OSError:
                    continue
                total -= size
                evicted += 1
        if evicted:
            DISKCACHE.record_evictions(evicted)
        DISKCACHE.set_disk_usage(
            total, len(entries) - evicted)

    def usage(self):
        """(bytes, entries) currently on disk (also refreshes gauges)."""
        entries = self._scan()
        total = sum(size for _, _, size in entries)
        DISKCACHE.set_disk_usage(total, len(entries))
        return total, len(entries)


def store_for(config):
    """The configured DiskGraphStore, or None when persistence is off."""
    path = config.resolved_cache_dir()
    if not path:
        return None
    return DiskGraphStore(path, config.resolved_cache_max_bytes())
