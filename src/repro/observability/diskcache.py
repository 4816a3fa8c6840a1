"""Disk-compile-cache metrics: loads, misses by kind, bytes on disk.

The persistent cross-process compile cache (:mod:`repro.janus.diskcache`)
turns cold-start compilation into a one-time fleet cost — provided warm
workers actually hit.  This view answers the operational questions
that design raises:

* **loads** — probe attempts, hits, and misses broken down by *why*
  (``absent``, ``corrupt``, ``version``, ``key_mismatch``, ``unpickle``,
  ``rebuild``): a fleet whose misses skew ``version`` is mid-rollout,
  one skewing ``corrupt`` has a storage problem,
* **stores** — artifacts published, bytes written, publishes skipped
  because the artifact pins process-local state (see
  ``diskcache.store_skipped.*`` counters for the reason taxonomy),
* **evictions** — LRU pressure against the size bound,
* **load latency** — the warm-start price actually paid (unpickle +
  re-fuse + re-lower), the number to compare against a cold compile.

A *view* over the metrics registry
(:mod:`repro.observability.metrics`): every number is a
``janus_diskcache_*`` instrument, so snapshot, bundle and exposition
come from the registry.  The process-wide view is :data:`DISKCACHE`;
populated by the store regardless of ``METRICS.enabled`` — a worker
with a cache dir configured wants its hit ratio even with latency
histograms off.
"""

import threading

from .metrics import METRICS, Registry, View

__all__ = ["DISKCACHE", "DiskCacheStats", "format_diskcache_table"]


class DiskCacheStats(View):
    """Disk-compile-cache signals: a view over one metrics registry."""

    PREFIX = "janus_diskcache_"
    SCALARS = (
        ("janus_diskcache_loads_total", "Disk-cache load attempts."),
        ("janus_diskcache_hits_total",
         "Disk-cache loads that produced an artifact."),
        ("janus_diskcache_stores_total",
         "Artifacts published to the disk tier."),
        ("janus_diskcache_store_bytes_total",
         "Bytes written to the disk tier.", "bytes"),
        ("janus_diskcache_store_skips_total",
         "Publishes skipped (unportable payloads)."),
        ("janus_diskcache_evictions_total",
         "Disk-tier entries evicted by the size bound."),
        ("janus_diskcache_bytes_on_disk",
         "Bytes on disk, sampled at probe/publish.", "bytes"),
        ("janus_diskcache_entries_on_disk",
         "Entries on disk, sampled at probe/publish.", "entries"),
    )

    def __init__(self, registry=None):
        registry = Registry() if registry is None else registry
        self._lock = lock = threading.Lock()
        self._bind(self.declare(registry, lock))
        self._misses = registry.counter(
            "janus_diskcache_misses_total", "Disk-cache misses by reason.",
            labels=("reason",), lock=lock)
        #: Seconds per successful load.
        self.load_latency = registry.histogram(
            "janus_diskcache_load_seconds", "Disk-cache load latency.",
            lock=lock).labels()

    @property
    def miss_reasons(self):
        """``{reason kind: count}``."""
        return {values[0]: count
                for values, count in self._misses.samples()}

    # -- recording (driven by repro.janus.diskcache) -------------------------

    def record_hit(self, seconds):
        with self._lock:
            self._add("loads")
            self._add("hits")
            self.load_latency._observe(seconds)

    def record_miss(self, reason):
        miss = self._misses.labels(reason)
        with self._lock:
            self._add("loads")
            miss.value += 1

    def record_store(self, nbytes):
        with self._lock:
            self._add("stores")
            self._add("store_bytes", int(nbytes))

    def record_store_skip(self):
        with self._lock:
            self._add("store_skips")

    def record_evictions(self, count):
        with self._lock:
            self._add("evictions", int(count))

    def set_disk_usage(self, nbytes, entries):
        with self._lock:
            self._scalars["bytes_on_disk"].value = int(nbytes)
            self._scalars["entries_on_disk"].value = int(entries)

    def __repr__(self):
        return ("DiskCacheStats(loads=%d, hits=%d, stores=%d)"
                % (self.loads, self.hits, self.stores))


def format_diskcache_table(stats):
    """Text lines for the ``janus-stats`` disk-cache section.

    Returns [] when the process never touched a disk cache (section
    omitted, keeping default-off runs identical to older reports).
    """
    if not (stats.loads or stats.stores or stats.store_skips):
        return []
    misses = sum(stats.miss_reasons.values())
    lines = [
        "  loads: %d (%d hits, %d misses) | stores: %d (%.1f KiB, "
        "%d skipped unportable) | evictions: %d"
        % (stats.loads, stats.hits, misses, stats.stores,
           stats.store_bytes / 1024.0, stats.store_skips,
           stats.evictions)]
    if stats.miss_reasons:
        reasons = ", ".join(
            "%s: %d" % (kind, count) for kind, count in
            sorted(stats.miss_reasons.items(),
                   key=lambda item: (-item[1], item[0])))
        lines.append("  miss reasons: %s" % reasons)
    if stats.bytes_on_disk or stats.entries_on_disk:
        lines.append("  on disk: %d entries, %.1f KiB"
                     % (stats.entries_on_disk,
                        stats.bytes_on_disk / 1024.0))
    latency = stats.load_latency
    if latency.count:
        pct = latency.percentiles()
        lines.append(
            "  load latency: p50 %.2f ms  p95 %.2f ms  max %.2f ms"
            % (pct["p50"] * 1e3, pct["p95"] * 1e3,
               (latency.max or 0.0) * 1e3))
    return lines


#: The process-wide disk-cache view; populated by
#: :mod:`repro.janus.diskcache`.
DISKCACHE = METRICS.view(DiskCacheStats)
