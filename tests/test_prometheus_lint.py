"""Lint the Prometheus text exposition against the format rules.

A scrape target that emits one malformed line poisons the whole scrape,
so rather than spot-checking a few substrings this suite *parses* the
full output of :func:`repro.observability.cli.prometheus_text` — over a
deliberately fully-populated state (windowed metrics, per-function
health with failure sites, serving traffic with rejects, disk-cache
activity, counters with dotted names) — and enforces:

* metric names match ``[a-zA-Z_:][a-zA-Z0-9_:]*``,
* label names match ``[a-zA-Z_][a-zA-Z0-9_]*`` and label values escape
  backslash, double-quote, and newline,
* every family emits ``# HELP`` and ``# TYPE`` exactly once, before any
  of its samples, and the TYPE is a known one,
* sample values parse as floats (``+Inf`` allowed),
* histogram families end each ``le`` series with ``+Inf`` and their
  cumulative bucket counts are monotonically non-decreasing per label
  set,
* a family named ``*_total`` has TYPE ``counter`` and no other kind uses
  that suffix; quantile gauges end in ``_window_seconds``.

It also pins, as literals captured before the one-registry change, the
families (with label names) an operator scrapes from this fixture and
the ``/health`` key set: nothing served may disappear.
"""

import math
import re

import pytest

from repro import observability as obs
from repro.observability.cli import prometheus_text
from repro.observability.diskcache import DiskCacheStats
from repro.observability.health import HealthRegistry
from repro.observability.httpstat import health_payload
from repro.observability.metrics import Registry
from repro.observability.reqtrace import (FlightRecorder,
                                          RequestContext)
from repro.observability.serving import ServingStats

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# One label: name="value" with \\, \", \n escapes inside the value.
_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\\\|\\"|\\n)*)"')
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")

_KNOWN_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def _parse_labels(label_blob):
    """{name: value} for a ``{a="b",c="d"}`` blob; asserts full coverage."""
    if not label_blob:
        return {}
    inner = label_blob[1:-1].rstrip(",")
    labels = {}
    consumed = 0
    for match in _LABEL_RE.finditer(inner):
        # Account for the separator comma between labels.
        assert match.start() in (consumed, consumed + 1), \
            "unparseable label segment in %r" % inner
        labels[match.group(1)] = match.group(2)
        consumed = match.end()
    assert consumed == len(inner), \
        "trailing junk in label blob %r" % inner
    return labels


def _family_of(name):
    """Family name a sample belongs to (strips histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[:-len(suffix)]
    return name


def _populated_state():
    """One registry with every section exercised, including awkward
    label values; returns ``(registry, recorder)``."""
    registry = Registry(enabled=True)
    graph_run = registry.histogram(
        "janus_graph_run_seconds", "Graph executions.").labels()
    dispatch = registry.windowed(
        "janus_dispatch_latency_seconds", "Dispatch latency.").labels()
    for value in (0.001, 0.002, 0.5):
        graph_run.observe(value)
        dispatch.observe(value)
    registry.histogram("janus_graph_generate_seconds",
                       "Graph generation.").labels().observe(0.12)

    fn = registry.view(HealthRegistry).function("model.predict")
    fn.record_graph_run()
    fn.record_failure('guard "shape" at line 3\nwith\\newline',
                      kind="assumption")
    fn.record_fallback('guard "shape" at line 3\nwith\\newline', 0.004,
                       kind="assumption")
    fn.record_generation(0.2, regeneration=True)

    counters = registry.counter("janus_counter_total",
                                "Flat runtime counters by name.",
                                labels=("name",))
    counters.labels("cache.hits").inc(3)
    counters.labels("diskcache.store_errors").inc(2)

    serving = registry.view(ServingStats)
    for _ in range(4):
        serving.record_enqueue(1)
    serving.record_batch(3, (0.002, 0.003, 0.001))
    serving.record_batch(2, (0.001, 0.001), fallback=True)
    serving.record_request(0.010, "ok")
    serving.record_request(0.050, "error")
    serving.record_reject(0.0002)

    diskcache = registry.view(DiskCacheStats)
    diskcache.record_hit(0.003)
    diskcache.record_miss("absent")
    diskcache.record_miss("corrupt")
    diskcache.record_store(4096)
    diskcache.record_store_skip()
    diskcache.record_evictions(2)

    recorder = FlightRecorder(keep_slowest=2)
    for outcome in ("ok", "error", "rejected"):
        ctx = RequestContext("serve.predict")
        ctx.outcome = outcome
        ctx.duration = 0.01
        recorder.record(ctx)

    return registry, recorder


@pytest.fixture()
def exposition():
    return prometheus_text(*_populated_state())


def _families(text):
    """``{family: (TYPE, sorted label names)}`` of an exposition."""
    types, labels = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, mtype = line.split()
            types[family] = mtype
            labels[family] = set()
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            continue
        name = match.group(1)
        family = name if name in types else _family_of(name)
        labels[family].update(_parse_labels(match.group(2)))
        labels[family].discard("le")
    return {family: (types[family], sorted(labels[family]))
            for family in types}


#: What ``prometheus_text`` emitted for this fixture before the
#: one-registry change: family -> label names.  One documented rename:
#: ``janus_dispatch_latency_seconds_window`` now follows the
#: ``*_window_seconds`` form of the serving families.
_SCRAPED_BEFORE = {
    "janus_counter_total": ["name"],
    "janus_diskcache_bytes_on_disk": [],
    "janus_diskcache_entries_on_disk": [],
    "janus_diskcache_evictions_total": [],
    "janus_diskcache_hits_total": [],
    "janus_diskcache_load_seconds": [],
    "janus_diskcache_loads_total": [],
    "janus_diskcache_misses_total": ["reason"],
    "janus_diskcache_store_bytes_total": [],
    "janus_diskcache_store_skips_total": [],
    "janus_diskcache_stores_total": [],
    "janus_dispatch_latency_seconds": [],
    "janus_dispatch_latency_window_seconds": ["quantile"],
    "janus_function_calls_total": ["function"],
    "janus_function_fallbacks_total": ["function"],
    "janus_function_graph_hit_ratio": ["function"],
    "janus_function_graph_runs_total": ["function"],
    "janus_function_recompiles_total": ["function"],
    "janus_function_state": ["function", "state"],
    "janus_graph_generate_seconds": [],
    "janus_graph_run_seconds": [],
    "janus_requests_failed_total": [],
    "janus_requests_recorded_total": [],
    "janus_serving_active_clients": [],
    "janus_serving_batch_size": [],
    "janus_serving_batched_requests_total": [],
    "janus_serving_batches_total": [],
    "janus_serving_peak_clients": [],
    "janus_serving_queue_depth": [],
    "janus_serving_queue_wait_seconds": [],
    "janus_serving_queue_wait_window_seconds": ["quantile"],
    "janus_serving_recompiles_in_flight": [],
    "janus_serving_rejected_total": [],
    "janus_serving_rejection_rate": [],
    "janus_serving_request_latency_seconds": ["outcome"],
    "janus_serving_request_latency_window_seconds":
        ["outcome", "quantile"],
    "janus_serving_requests_total": [],
    "janus_site_failures_total": ["function", "kind", "site"],
}

_HEALTH_KEYS_BEFORE = {
    "": {"status", "functions", "serving", "requests_recorded",
         "requests_failed"},
    "functions": {"name", "state", "diagnosis", "calls", "graph_runs",
                  "graph_hit_ratio", "fallbacks", "recompiles"},
    "serving": {"requests", "rejected", "rejection_rate", "batches",
                "active_clients", "recompiles_in_flight",
                "queue_wait_window", "request_latency_ok_window",
                "request_latency_rejected_window"},
}


class TestNothingScrapedDisappeared:
    def test_every_family_with_its_label_names(self, exposition):
        assert len(_SCRAPED_BEFORE) == 38
        served = _families(exposition)
        for family, label_names in _SCRAPED_BEFORE.items():
            assert family in served, family
            assert served[family][1] == label_names, family

    def test_families_added_since_are_scraped_too(self, exposition):
        served = _families(exposition)
        assert served["janus_serving_batch_fallbacks_total"] == \
            ("counter", [])
        assert "janus_serving_batch_fallbacks_total 1" in exposition
        # The fallback batch counts a dispatch, not shared-run requests.
        assert "janus_serving_batched_requests_total 3" in exposition
        assert "janus_serving_batches_total 2" in exposition

    def test_health_key_set(self):
        obs.clear()
        obs.HEALTH.function("f").record_graph_run()
        try:
            payload = health_payload()
        finally:
            obs.clear()
        assert set(payload) == _HEALTH_KEYS_BEFORE[""]
        assert set(payload["functions"][0]) == \
            _HEALTH_KEYS_BEFORE["functions"]
        assert set(payload["serving"]) == _HEALTH_KEYS_BEFORE["serving"]


class TestExpositionLint:
    def test_nonempty_and_every_line_parses(self, exposition):
        samples = 0
        for line in exposition.splitlines():
            if not line:
                continue
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert not line.startswith("#"), \
                "unknown comment form: %r" % line
            match = _SAMPLE_RE.match(line)
            assert match, "unparseable sample line: %r" % line
            samples += 1
        assert samples > 40, "fully populated state should be rich"

    def test_metric_and_label_names_are_legal(self, exposition):
        for line in exposition.splitlines():
            match = _SAMPLE_RE.match(line)
            if not match:
                continue
            name, label_blob, _ = match.groups()
            assert _NAME_RE.match(name), name
            for label_name, value in _parse_labels(label_blob).items():
                assert _LABEL_NAME_RE.match(label_name), label_name
                assert "\n" not in value and '"' not in value.replace(
                    '\\"', "")

    def test_sample_values_are_floats(self, exposition):
        for line in exposition.splitlines():
            match = _SAMPLE_RE.match(line)
            if not match:
                continue
            value = match.group(3)
            if value in ("+Inf", "-Inf", "NaN"):
                continue
            float(value)   # raises on malformed values

    def test_help_and_type_exactly_once_before_samples(self, exposition):
        seen_help, seen_type, seen_sample = set(), set(), set()
        for line in exposition.splitlines():
            if line.startswith("# HELP "):
                family = line.split()[2]
                assert family not in seen_help, \
                    "duplicate HELP for %s" % family
                assert family not in seen_sample, \
                    "HELP for %s after its samples" % family
                seen_help.add(family)
            elif line.startswith("# TYPE "):
                parts = line.split()
                family, mtype = parts[2], parts[3]
                assert family not in seen_type, \
                    "duplicate TYPE for %s" % family
                assert family not in seen_sample, \
                    "TYPE for %s after its samples" % family
                assert mtype in _KNOWN_TYPES, mtype
                seen_type.add(family)
            else:
                match = _SAMPLE_RE.match(line)
                if match:
                    seen_sample.add(_family_of(match.group(1)))
        for family in seen_sample:
            assert family in seen_help, "no HELP for %s" % family
            assert family in seen_type, "no TYPE for %s" % family

    def test_histogram_buckets_monotonic_and_end_in_inf(self, exposition):
        series = {}
        histogram_families = set()
        for line in exposition.splitlines():
            if line.startswith("# TYPE "):
                parts = line.split()
                if parts[3] == "histogram":
                    histogram_families.add(parts[2])
                continue
            match = _SAMPLE_RE.match(line)
            if not match:
                continue
            name, label_blob, value = match.groups()
            if not name.endswith("_bucket"):
                continue
            family = _family_of(name)
            assert family in histogram_families, \
                "_bucket sample outside a histogram family: %s" % name
            labels = _parse_labels(label_blob)
            assert "le" in labels, line
            le = labels.pop("le")
            bound = math.inf if le == "+Inf" else float(le)
            key = (family, tuple(sorted(labels.items())))
            series.setdefault(key, []).append((bound, float(value)))
        assert series, "populated state must emit histogram buckets"
        for key, buckets in series.items():
            # Buckets must already be emitted in ascending-bound order.
            bounds = [b for b, _ in buckets]
            assert bounds == sorted(bounds), key
            assert bounds[-1] == math.inf, \
                "%r does not end in +Inf" % (key,)
            counts = [c for _, c in buckets]
            assert all(b >= a for a, b in zip(counts, counts[1:])), \
                "non-monotonic cumulative buckets for %r" % (key,)

    def test_histogram_count_matches_inf_bucket(self, exposition):
        inf_buckets, counts = {}, {}
        for line in exposition.splitlines():
            match = _SAMPLE_RE.match(line)
            if not match:
                continue
            name, label_blob, value = match.groups()
            labels = _parse_labels(label_blob)
            if name.endswith("_bucket") and labels.get("le") == "+Inf":
                labels.pop("le")
                key = (_family_of(name), tuple(sorted(labels.items())))
                inf_buckets[key] = float(value)
            elif name.endswith("_count"):
                key = (_family_of(name), tuple(sorted(labels.items())))
                counts[key] = float(value)
        for key, total in inf_buckets.items():
            assert key in counts, "no _count for %r" % (key,)
            assert counts[key] == total, key

    def test_total_suffix_means_counter(self, exposition):
        for family, (mtype, _) in _families(exposition).items():
            assert (mtype == "counter") == family.endswith("_total"), \
                "%s is a %s" % (family, mtype)

    def test_quantile_gauges_are_window_seconds(self, exposition):
        quantile = {family for family, (_, labels)
                    in _families(exposition).items()
                    if "quantile" in labels}
        assert quantile, "windowed families must expose quantile gauges"
        for family in quantile:
            assert family.endswith("_window_seconds"), family

    def test_awkward_label_values_are_escaped(self, exposition):
        # The failure site contains a backslash, quotes, and a newline;
        # the raw forms must never appear unescaped in the exposition.
        assert "\nwith" not in exposition.replace("\\n", "")
        site_lines = [l for l in exposition.splitlines()
                      if "janus_site_failures_total" in l
                      and not l.startswith("#")]
        assert site_lines, "failure sites must be exported"
        for line in site_lines:
            match = _SAMPLE_RE.match(line)
            assert match, line
            _parse_labels(match.group(2))   # asserts full label coverage

    def test_live_registries_also_lint(self):
        # The default (live-registry) exposition obeys the same rules,
        # even when mostly empty.
        text = prometheus_text()
        for line in text.splitlines():
            if not line or line.startswith("# HELP ") or \
                    line.startswith("# TYPE "):
                continue
            assert _SAMPLE_RE.match(line), line

    def teardown_method(self, method):
        obs.clear()
