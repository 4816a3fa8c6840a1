"""Throughput regression gates for the Table-3 benchmark.

Compares a fresh ``table3_throughput.json`` run against the stored
baseline (``baseline_table3.json``) and exits non-zero when a gate
fails.  Run via ``make bench-check``::

    python benchmarks/check_regression.py \
        [--baseline PATH] [--current PATH ...] [--threshold 0.10]

Only the JANUS column gates against the baseline: that is the number
this repo exists to protect.  Imperative and symbolic columns are
reported for context — drops there usually mean host noise, not a
runtime change.

Host noise on shared machines swings individual models by +/-15-20%
between runs, so a single run trips the 10% gate spuriously.  Passing
several ``--current`` files (separate benchmark runs of the same code)
gates each model on its **median** throughput across the runs instead.

Three gates, each a separate invocation (``make bench-check`` runs all):

* **absolute** (default) — median JANUS throughput vs the baseline's.
  Catches "everything got slower"; vulnerable to host drift.
* **relative** (``--relative``) — the per-model **JANUS/imperative
  ratio** vs the baseline's.  Both columns of each run come from the
  same host at the same moment, so uniform host drift cancels.  The
  ratio gate has its own blind spot (ROADMAP "Relative-gate
  baseline"): a PR that deliberately changes the *eager* path moves
  the denominator, and a stale baseline ratio then reads as a JANUS
  regression.  The gate therefore re-measures the drift of the
  imperative column itself: a model whose current imperative
  throughput moved more than ``--imperative-drift`` from the
  baseline's is reported but **excluded from ratio gating** — its
  ratio is not comparable until the baseline is re-measured in the
  same PR (the absolute gate still covers it).
* **symbolic parity** (``--symbolic-parity``) — the paper's Table-3
  claim, baseline-free: on the historically lagging models
  (``--parity-models``) the median JANUS throughput must reach at
  least ``--parity-tolerance`` of the same runs' symbolic throughput
  on at least ``--parity-min`` models.  Tolerance exists because on a
  single-core host the two modes run identical kernels and differ by
  ~1-2% of scheduling noise; parity, not victory, is the claim.
"""

import argparse
import json
import os
import statistics
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Keys in a results file that are not model rows.
RESERVED = ("meta", "observability")

#: Models the paper's Table 3 shows trailing pure symbolic execution —
#: the set the parity gate watches (TreeRNN may stay behind: per-call
#: signature/bind overhead on hundreds of tiny per-topology graphs, not
#: executor dispatch).
PARITY_MODELS = ("ResNet", "Inception", "LM", "TreeRNN")


def load_models(path):
    with open(path) as fh:
        data = json.load(fh)
    return {name: row for name, row in data.items()
            if name not in RESERVED and isinstance(row, dict)
            and "janus" in row}


def relative_ratio(row):
    """A model row's JANUS/imperative throughput ratio, or ``None``.

    Both throughputs come from the same run, so host drift cancels;
    rows without a positive ``imperative`` column cannot be ratio-gated.
    """
    imperative = row.get("imperative")
    if not imperative:
        return None
    return row["janus"] / imperative


def median_column(runs, name, column):
    """Median of ``column`` for model ``name`` across ``runs`` (or None)."""
    samples = [run[name].get(column) for run in runs if name in run]
    samples = [s for s in samples if s]
    return statistics.median(samples) if samples else None


def check_symbolic_parity(runs, models, tolerance, minimum):
    """The Table-3 parity gate: JANUS vs symbolic, no baseline.

    Each run's JANUS and symbolic columns share that run's host
    conditions, so the per-run ratio is the noise-resistant quantity
    (same pairing argument as the ``--relative`` gate); models gate on
    the **median of per-run ratios**, not the ratio of medians, so one
    contaminated run cannot skew the comparison.
    """
    print("gated metric: JANUS vs symbolic parity "
          "(tolerance %.2f, need %d of %d models)"
          % (tolerance, minimum, len(models)))
    print("%-10s %12s %12s %8s %7s" % ("Model", "janus", "symbolic",
                                       "ratio", "parity"))
    passed = 0
    compared = 0
    for name in models:
        janus = median_column(runs, name, "janus")
        symbolic = median_column(runs, name, "symbolic")
        ratios = [run[name]["janus"] / run[name]["symbolic"]
                  for run in runs
                  if name in run and run[name].get("symbolic")]
        if janus is None or not ratios:
            print("%-10s %12s" % (name, "missing"))
            continue
        compared += 1
        ratio = statistics.median(ratios)
        ok = ratio >= tolerance
        passed += ok
        print("%-10s %12.1f %12.1f %7.2fx %7s"
              % (name, janus, symbolic, ratio, "ok" if ok else "BEHIND"))
    if compared < len(models):
        print("note: %d parity model(s) missing from the current runs"
              % (len(models) - compared))
    if passed < minimum:
        print("\nFAIL: JANUS reaches symbolic parity on only %d of %d "
              "lagging models (need %d)" % (passed, len(models), minimum))
        return 1
    print("\nOK: JANUS at symbolic parity on %d of %d lagging models"
          % (passed, len(models)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        default=os.path.join(RESULTS_DIR,
                                             "baseline_table3.json"))
    parser.add_argument("--current", nargs="+",
                        default=[os.path.join(RESULTS_DIR,
                                              "table3_throughput.json")],
                        help="one or more result files; with several, "
                             "each model gates on its median")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional drop that fails the gate")
    parser.add_argument("--relative", action="store_true",
                        help="gate the JANUS/imperative ratio instead of "
                             "absolute JANUS throughput (host-drift-"
                             "immune; rows need an 'imperative' column)")
    parser.add_argument("--imperative-drift", type=float, default=0.15,
                        help="fractional move of the imperative column "
                             "beyond which a model's ratio is treated "
                             "as not comparable to the baseline's "
                             "(relative gate only)")
    parser.add_argument("--symbolic-parity", action="store_true",
                        help="gate JANUS vs symbolic throughput on the "
                             "lagging Table-3 models (baseline-free)")
    parser.add_argument("--parity-models", nargs="+",
                        default=list(PARITY_MODELS))
    parser.add_argument("--parity-tolerance", type=float, default=0.95,
                        help="required median JANUS/symbolic ratio")
    parser.add_argument("--parity-min", type=int, default=3,
                        help="models that must reach parity")
    args = parser.parse_args(argv)

    current_paths = list(args.current)
    for path in ([args.baseline] if not args.symbolic_parity else []) \
            + current_paths:
        if not os.path.exists(path):
            print("check_regression: missing %s" % path)
            return 2
    runs = [load_models(path) for path in current_paths]
    if len(runs) > 1:
        print("gating on the median of %d runs" % len(runs))

    if args.symbolic_parity:
        return check_symbolic_parity(runs, args.parity_models,
                                     args.parity_tolerance,
                                     args.parity_min)

    metric_of = relative_ratio if args.relative else \
        (lambda row: row["janus"])
    metric_name = "JANUS/imperative ratio" if args.relative \
        else "JANUS throughput"
    baseline_rows = load_models(args.baseline)
    baseline = {}
    for name, row in baseline_rows.items():
        value = metric_of(row)
        if value is not None:
            baseline[name] = value
    current = {}
    for name in runs[0]:
        samples = [metric_of(run[name]) for run in runs if name in run]
        samples = [s for s in samples if s is not None]
        if samples:
            current[name] = statistics.median(samples)

    shared = [name for name in baseline if name in current]
    if not shared:
        print("check_regression: no models shared between %s and %s"
              % (args.baseline, ", ".join(current_paths)))
        return 2

    # Relative gate: a model whose imperative column itself drifted
    # beyond the allowance has a stale ratio baseline (ROADMAP,
    # "Relative-gate baseline") — report it, but gate it on the
    # absolute invocation instead of failing on a non-comparable ratio.
    drifted = {}
    if args.relative:
        for name in shared:
            base_imp = baseline_rows[name].get("imperative")
            cur_imp = median_column(runs, name, "imperative")
            if base_imp and cur_imp:
                drift = cur_imp / base_imp - 1.0
                if abs(drift) > args.imperative_drift:
                    drifted[name] = drift

    fmt = "%-10s %12.3f %12.3f %7.2fx%s" if args.relative else \
        "%-10s %12.1f %12.1f %7.2fx%s"
    regressions = []
    print("gated metric: %s" % metric_name)
    print("%-10s %12s %12s %8s" % ("Model", "baseline", "current",
                                   "ratio"))
    for name in shared:
        base = baseline[name]
        cur = current[name]
        ratio = cur / base if base else float("inf")
        flag = ""
        if name in drifted:
            flag = "  imperative drifted %+.0f%%: ratio not gated" \
                % (drifted[name] * 100)
        elif ratio < 1.0 - args.threshold:
            flag = "  REGRESSION"
            regressions.append((name, base, cur, ratio))
        print(fmt % (name, base, cur, ratio, flag))
    missing = sorted(set(baseline) - set(current))
    if missing:
        print("note: models missing from current run: %s"
              % ", ".join(missing))
    if drifted:
        print("note: the eager path moved on %s — re-measure the "
              "baseline in this PR to restore their ratio gate"
              % ", ".join(sorted(drifted)))

    if regressions:
        print("\nFAIL: %d model(s) regressed more than %.0f%% on %s"
              % (len(regressions), args.threshold * 100, metric_name))
        with open(args.baseline) as fh:
            meta = json.load(fh).get("meta", {})
        print("compared against baseline %s (label: %s)"
              % (args.baseline, meta.get("label", "unlabelled")))
        if meta.get("note"):
            print("baseline note: %s" % meta["note"])
        return 1
    print("\nOK: no regression beyond %.0f%% on %s (%d models compared)"
          % (args.threshold * 100, metric_name, len(shared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
