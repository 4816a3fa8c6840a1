"""Table 3: single-machine training throughput, all 11 models.

Columns mirror the paper: (A) imperative, (B) JANUS, (C) symbolic,
(B)/(A) the JANUS speedup over imperative, (B)/(C)-1 the gap to the
symbolic baseline.  Expected shape: JANUS well above imperative on
fine-grained models (TreeNNs by the most), within a few percent of
symbolic everywhere.
"""

import os

import pytest

from repro import observability as obs

from harness import (MODEL_BENCHES, MODEL_ORDER, format_table,
                     measure_throughput, save_results, items_in)

_RESULTS = {}


def _run_mode(spec, mode, benchmark):
    step, batches, _model = spec.build(mode)
    for i in range(4):  # warm the cache / trace / profile
        step(*batches[i % len(batches)])

    counter = {"i": 0}

    def one_step():
        batch = batches[counter["i"] % len(batches)]
        counter["i"] += 1
        step(*batch)
        return items_in(spec, batch)

    benchmark.pedantic(one_step, rounds=3, iterations=2, warmup_rounds=1)
    throughput = measure_throughput(step, batches, spec, warmup=2,
                                    iters=6, min_seconds=0.8)
    _RESULTS.setdefault(spec.name, {})[mode] = throughput
    return throughput


# Mode varies fastest so each model's three columns are measured
# back-to-back: the regression gates' ratio arguments (janus/imperative,
# janus/symbolic) assume both columns of a run share the same host
# conditions, which phase-separated mode sweeps do not provide on a
# noisy shared machine.
@pytest.mark.parametrize("mode", ["imperative", "janus", "symbolic"])
@pytest.mark.parametrize("name", MODEL_ORDER)
def test_throughput(name, mode, benchmark):
    spec = MODEL_BENCHES[name]
    throughput = _run_mode(spec, mode, benchmark)
    assert throughput > 0


def test_zz_report(benchmark):
    """Prints the Table 3 replica from the measurements above."""
    benchmark.pedantic(lambda: None, rounds=1)
    rows = []
    payload = {}
    for name in MODEL_ORDER:
        modes = _RESULTS.get(name, {})
        if not {"imperative", "janus", "symbolic"} <= set(modes):
            continue
        imp, jan, sym = (modes["imperative"], modes["janus"],
                         modes["symbolic"])
        speedup = jan / imp
        gap = (jan / sym - 1.0) * 100
        unit = MODEL_BENCHES[name].unit
        rows.append([name, "%.1f" % imp, "%.1f" % jan, "%.1f" % sym,
                     "%.2fx" % speedup, "%+.1f%%" % gap, unit])
        payload[name] = {"imperative": imp, "janus": jan,
                         "symbolic": sym, "speedup_vs_imp": speedup,
                         "gap_vs_sym_pct": gap, "unit": unit}
    print()
    print(format_table(
        ["Model", "(A) Imp.", "(B) JANUS", "(C) Sym.", "(B)/(A)",
         "(B)/(C)-1", "unit"],
        rows, title="Table 3 — single-machine training throughput"))
    # Every run embeds the runtime-counter totals alongside throughput,
    # so a results file is enough to audit what the run actually did
    # (graphs generated/compiled, cache traffic, pass-analysis reuse).
    payload["meta"] = {
        "label": os.environ.get("BENCH_LABEL", "dev"),
        "counters": obs.counter_values(),
    }
    save_results("table3_throughput", payload)
    label = os.environ.get("BENCH_LABEL")
    if label:
        # A labelled snapshot beside the default results file, so two
        # runs (e.g. before and after a change) can be compared.
        save_results("table3_throughput-%s" % label, payload)
    # Shape assertions on the models whose gains are robust to this
    # host's single-core timing noise: JANUS beats imperative execution
    # on the fine-grained workloads.  (The paper's TreeNN gains rely on
    # TF's C++ executor and 36-way parallelism; our Python nested
    # executor keeps TreeNNs near parity — see EXPERIMENTS.md.)
    for name in ("LSTM", "A3C", "AN"):
        if name in payload:
            assert payload[name]["speedup_vs_imp"] > 1.0, \
                (name, payload[name])
