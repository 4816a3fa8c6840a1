"""Level-0 observability overhead gate.

The metrics/health subsystem promises that *disabled* instrumentation
costs one attribute load + one truth test per site.  This gate proves it
stays that way on the Table-3 quickstart model (the `examples/quickstart.py`
MLP training step):

1. measure the steady-state JANUS step time with metrics disabled;
2. measure the actual per-site cost of a disabled gate
   (:func:`repro.observability.metrics.disabled_site_cost` — the exact
   ``if METRICS.enabled:`` operation every site performs);
3. bound the per-step gate cost as ``site_cost × sites_per_step``, where
   ``sites_per_step`` deliberately over-counts (every compiled
   instruction plus a fixed allowance for the api/cache/profiler gates,
   though only py_get nodes actually carry a guard gate);
4. FAIL if that bound exceeds ``--threshold`` (default 2%) of the
   measured step time.

The request-tracing layer (PR 10) adds its own inactive gates — one
contextvar read returning None per request-scoped site
(:func:`repro.observability.reqtrace.disabled_request_cost`).  Those
are folded into the same bound with their own conservative per-step
site count, so a regression on *either* disabled path trips the gate.

This is deterministic where an A/B wall-clock comparison against a
stored pre-instrumentation baseline is not: host noise swings short
runs by ±15-20%, but the site cost is measured in-process against the
same interpreter the step runs on.  If a future change makes the
disabled path allocate, lock, or take a timestamp, the site cost jumps
an order of magnitude and the bound blows through the threshold.

An informational A/B (metrics on vs off, interleaved medians) is also
printed — useful locally, not gated.

Run standalone or via ``make bench-check``::

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py --check
"""

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

#: Fixed allowance for gates outside the executor loop: the api-level
#: call/health/precheck/graphgen gates, cache accounting, profiler and
#: eager-path gates.  Generous — the real count is under a dozen.
NON_EXECUTOR_SITES = 64

#: Allowance for request-scoped tracing gates per step: serving
#: queue/dispatch spans, coexec fragment/gap spans, dispatch notes,
#: disk-cache probes.  Generous — a non-serving training step hits
#: none of these, and a served request hits well under a dozen.
REQUEST_SITES = 32

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def build_quickstart_step():
    """The Table-3 quickstart MLP training step under JANUS."""
    import repro as R
    from repro import janus, nn

    nn.init.seed(0)
    model = nn.Sequential([
        nn.Dense(8, 32, activation=R.relu),
        nn.Dense(32, 32, activation=R.relu),
        nn.Dense(32, 2),
    ])
    optimizer = nn.SGD(0.1)

    @janus.function(optimizer=optimizer,
                    config=janus.JanusConfig(fail_on_not_convertible=True,
                                             parallel_execution=False))
    def train_step(x, y):
        logits = model(x)
        return nn.losses.softmax_cross_entropy(logits, y)

    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 8)).astype(np.float32)
    y = (x[:, 0] > 0).astype(np.int64)
    return train_step, x, y


def median_step_seconds(train_step, x, y, inner=20, repeats=7):
    """Median per-step wall time over ``repeats`` timed batches."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            train_step(x, y)
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def instruction_count(train_step):
    """Compiled-instruction count of the cached steady-state graph."""
    entries = train_step.cache.entries()
    if not entries:
        return 0
    _, entry = entries[-1]
    return entry.executor.instruction_count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.02,
                        help="max tolerated gate-cost fraction of the "
                             "step time (default 2%%)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when the bound exceeds the "
                             "threshold (make bench-check mode)")
    parser.add_argument("--out", default=None,
                        help="optional JSON results path")
    args = parser.parse_args(argv)

    from repro import observability as obs
    from repro.observability.metrics import disabled_site_cost
    from repro.observability.reqtrace import disabled_request_cost

    obs.set_trace_level(0)
    obs.set_metrics_enabled(False)

    train_step, x, y = build_quickstart_step()
    for _ in range(20):                      # profile + generate + warm
        train_step(x, y)
    assert train_step.stats["graph_runs"] > 0, \
        "quickstart step failed to reach graph execution"

    step_disabled = median_step_seconds(train_step, x, y)
    site_cost = disabled_site_cost()
    request_cost = disabled_request_cost()
    sites_per_step = instruction_count(train_step) + NON_EXECUTOR_SITES
    gate_cost = (site_cost * sites_per_step
                 + request_cost * REQUEST_SITES)
    fraction = gate_cost / step_disabled if step_disabled else 0.0

    # Informational A/B: enabled vs disabled, interleaved so drift hits
    # both arms equally.  Not gated (host noise exceeds the effect).
    obs.set_metrics_enabled(True)
    step_enabled = median_step_seconds(train_step, x, y)
    obs.set_metrics_enabled(False)
    obs.clear()

    print("observability overhead gate (quickstart MLP, %d instructions)"
          % instruction_count(train_step))
    print("  step time (metrics off):   %9.3f us" % (step_disabled * 1e6))
    print("  step time (metrics on):    %9.3f us  (informational)"
          % (step_enabled * 1e6))
    print("  disabled gate cost/site:   %9.3f ns" % (site_cost * 1e9))
    print("  inactive reqtrace cost:    %9.3f ns/site x %d sites"
          % (request_cost * 1e9, REQUEST_SITES))
    print("  gated sites/step (bound):  %9d" % sites_per_step)
    print("  gate cost/step (bound):    %9.3f ns  = %.4f%% of step"
          % (gate_cost * 1e9, fraction * 100.0))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "step_disabled_s": step_disabled,
                "step_enabled_s": step_enabled,
                "site_cost_s": site_cost,
                "request_site_cost_s": request_cost,
                "sites_per_step": sites_per_step,
                "gate_fraction": fraction,
                "threshold": args.threshold,
            }, fh, indent=1)

    if fraction > args.threshold:
        print("FAIL: disabled-metrics gate cost %.4f%% of the step time "
              "exceeds the %.1f%% budget — the level-0 path regressed "
              "beyond one attribute load + compare per site"
              % (fraction * 100.0, args.threshold * 100.0))
        return 1
    print("OK: level-0 observability cost bound %.4f%% < %.1f%% of the "
          "quickstart step" % (fraction * 100.0, args.threshold * 100.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
