"""Figure 7: contribution of each optimization (cumulative ablation).

IMP is the imperative baseline; BASE converts to a graph with every
JANUS optimization disabled; +UNRL adds stable-control-flow unrolling;
+SPCN adds type/shape/value specialization plus the graph passes;
+PARL adds the level-parallel schedule.

Expected shape (paper section 6.3.1): BASE already beats IMP on
fine-grained models, +UNRL helps RNNs most, +SPCN adds a few percent,
+PARL helps models with concurrently-executable operations.  +PARL is
a measured schedule here (docs/compilation.md, "The level schedule"):
each level that holds two heavy ops is timed in order and fanned out
over its first runs and keeps the fan-out only if it clearly won every
time.  The benchmark host has two shared vCPUs whose thread-level
speed-up comes and goes (usually none), so on it the levels are
measured back to in-order — all 52 of the eight training programs in
each of seven warm-ups, now and then a ResNet level winning one pair
before losing the next — and the +PARL column is the +SPCN column
within noise; the verdicts are measurements, so another host or
another minute may keep some.

``--check`` (plain script mode, part of ``make bench-check``) gates the
invariant the measured schedule is there for — asking for +PARL does
not cost throughput: for LSTM, PPO and Inception it builds the +SPCN and
the +PARL step in one process, warms both past their trials, times
alternating blocks and fails if the median +PARL/+SPCN throughput ratio
of any of the three is below ``PARL_FLOOR``.  A ratio of adjacent
blocks, so it runs on any host and cannot skip itself::

    PYTHONPATH=src python benchmarks/bench_fig7_ablation.py --check
"""

import argparse
import gc
import os
import statistics
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro import janus  # noqa: E402
from harness import (MODEL_BENCHES, format_table,  # noqa: E402
                     measure_throughput, save_results)

#: The ablation axis, in the paper's cumulative order.
STAGES = ["IMP", "BASE", "+UNRL", "+SPCN", "+PARL"]

#: A representative subset: fine-grained (LeNet/LSTM/TreeRNN/A3C/AN) and
#: coarse-grained (ResNet) workloads.
ABLATION_MODELS = ["LeNet", "ResNet", "LSTM", "TreeRNN", "A3C", "AN"]

#: The ``--check`` gate: one fine-grained recurrent model, the step
#: closest to the dispatch floor, and the wide-branch graph the level
#: schedule was built for.
CHECK_MODELS = ["LSTM", "PPO", "Inception"]
#: Lowest acceptable median +PARL/+SPCN throughput ratio.  Once every
#: level has its verdict a +PARL step that kept no fan-out runs the
#: +SPCN loop, so the ratio is 1 within block-to-block noise (0.97-1.02
#: on the reference host); the static thread-pool schedule this
#: replaced read 0.62, 0.63 and 0.51 through this gate.  A verdict is a
#: measurement over a level's first runs, not a proof: a fan-out kept
#: on three lucky pairs would show here as a ratio below 1, which is
#: what the gate is for.
PARL_FLOOR = 0.95
#: Seconds of adjacent (+SPCN, +PARL) block pairs per model.  A block
#: is one pass over the model's batches: short enough that a change of
#: host speed lands inside a pair rarely, and then in few of the
#: hundred-odd pairs the median is taken over.
CHECK_SECONDS = 2.5

_RESULTS = {}


def _stage_config(stage):
    if stage == "IMP":
        return None
    return janus.JanusConfig(**janus.ABLATION_STAGES[stage])


@pytest.mark.parametrize("model_name", ABLATION_MODELS)
@pytest.mark.parametrize("stage", STAGES)
def test_ablation(model_name, stage, benchmark):
    spec = MODEL_BENCHES[model_name]
    if stage == "IMP":
        step, batches, _ = spec.build("imperative")
    else:
        step, batches, _ = spec.build("janus",
                                      config=_stage_config(stage))
    for i in range(4):
        step(*batches[i % len(batches)])

    counter = {"i": 0}

    def one_step():
        step(*batches[counter["i"] % len(batches)])
        counter["i"] += 1

    benchmark.pedantic(one_step, rounds=5, iterations=2, warmup_rounds=1)
    throughput = measure_throughput(step, batches, spec, warmup=2,
                                    iters=6)
    _RESULTS.setdefault(model_name, {})[stage] = throughput
    if stage != "IMP" and hasattr(step, "imperative_only"):
        assert not step.imperative_only, step.not_convertible_reason


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    rows = []
    payload = {}
    for name in ABLATION_MODELS:
        stages = _RESULTS.get(name, {})
        if "IMP" not in stages:
            continue
        imp = stages["IMP"]
        row = [name]
        payload[name] = {}
        for stage in STAGES:
            if stage in stages:
                speedup = stages[stage] / imp
                row.append("%.2fx" % speedup)
                payload[name][stage] = speedup
            else:
                row.append("-")
        rows.append(row)
    print()
    print(format_table(["Model"] + STAGES, rows,
                       title="Figure 7 — cumulative optimization "
                             "speedups over imperative execution"))
    save_results("fig7_ablation", payload)
    # Shape: unrolling must not cost the RNN its BASE gains.  The bound
    # is loose because single-core throughput ratios on this host carry
    # ±20-30% run-to-run noise (see EXPERIMENTS.md, host caveat).
    if "LSTM" in payload and "+UNRL" in payload["LSTM"]:
        assert payload["LSTM"]["+UNRL"] >= \
            payload["LSTM"]["BASE"] * 0.7, payload["LSTM"]


# -- the +PARL >= +SPCN gate (script mode) -------------------------------------

def _executors(step):
    return [entry.compiled.executor for _sig, entry in step.cache.entries()]


def _warm_past_trials(step, batches, limit=60):
    """Run until the step is on graphs whose levels all have verdicts
    (at least nine steps: profiling, the trials, memos warm)."""
    for i in range(limit):
        step(*batches[i % len(batches)])
        executors = _executors(step)
        if i >= 8 and executors and all(
                level.verdict is not None
                for executor in executors
                for level in executor._candidates):
            return
    raise RuntimeError("schedule still measuring after %d steps" % limit)


def _block_seconds(step, batches, count):
    start = time.perf_counter()
    for i in range(count):
        step(*batches[i % len(batches)])
    return time.perf_counter() - start


def check_model(name):
    """Median +PARL/+SPCN throughput ratio of adjacent blocks."""
    spec = MODEL_BENCHES[name]
    steps = {}
    for stage in ("+SPCN", "+PARL"):
        step, batches, _ = spec.build("janus", config=_stage_config(stage))
        _warm_past_trials(step, batches)
        steps[stage] = step
    count = len(batches)
    ratios, seconds = [], {"+SPCN": [], "+PARL": []}
    gc.collect()
    gc.disable()
    try:
        deadline = time.perf_counter() + CHECK_SECONDS
        while time.perf_counter() < deadline or len(ratios) < 9:
            order = ("+SPCN", "+PARL") if len(ratios) % 2 == 0 \
                else ("+PARL", "+SPCN")
            took = {stage: _block_seconds(steps[stage], batches, count)
                    for stage in order}
            ratios.append(took["+SPCN"] / took["+PARL"])
            for stage in took:
                seconds[stage].append(took[stage] / count)
    finally:
        gc.enable()
    levels = [level for executor in _executors(steps["+PARL"])
              for level in executor._candidates]
    return {
        "ratio": statistics.median(ratios), "pairs": len(ratios),
        "ratio_quartiles": statistics.quantiles(ratios, n=4)[::2],
        "spcn_steps_per_s": 1.0 / statistics.median(seconds["+SPCN"]),
        "parl_steps_per_s": 1.0 / statistics.median(seconds["+PARL"]),
        "levels": len(levels),
        "levels_parallel": sum(1 for level in levels if level.verdict),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail unless +PARL holds %.2fx the +SPCN "
                             "throughput on %s" % (
                                 PARL_FLOOR, ", ".join(CHECK_MODELS)))
    args = parser.parse_args(argv)
    if not args.check:
        parser.error("the figure itself runs under pytest "
                     "(--benchmark-only); script mode is --check")
    results = {name: check_model(name) for name in CHECK_MODELS}
    print(format_table(
        ["Model", "+SPCN steps/s", "+PARL steps/s", "+PARL/+SPCN",
         "quartiles", "pairs", "levels kept"],
        [[name, "%.1f" % r["spcn_steps_per_s"],
          "%.1f" % r["parl_steps_per_s"], "%.3f" % r["ratio"],
          "%.2f-%.2f" % tuple(r["ratio_quartiles"]), r["pairs"],
          "%d/%d" % (r["levels_parallel"], r["levels"])]
         for name, r in results.items()],
        title="+PARL against +SPCN, adjacent blocks of one process "
              "(median ratio)"))
    failed = [name for name, r in results.items()
              if r["ratio"] < PARL_FLOOR]
    for name, r in results.items():
        print("gate: %s +PARL at %.3fx the +SPCN throughput (floor "
              "%.2fx) %s" % (name, r["ratio"], PARL_FLOOR,
                             "FAIL" if name in failed else "OK"))
    if failed:
        print("FAIL: asking for +PARL costs throughput on %s"
              % ", ".join(failed))
        return 1
    print("OK: +PARL pays for itself or stands aside")
    return 0


if __name__ == "__main__":
    sys.exit(main())
