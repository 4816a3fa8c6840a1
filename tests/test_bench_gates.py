"""The ``--check`` gates of ``make bench-check`` leave the tree clean:
without ``BENCH_LABEL`` they write no results file."""

import os
import sys

import pytest

_BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


def _import(name):
    sys.path.insert(0, _BENCHMARKS)
    try:
        return __import__(name)
    finally:
        sys.path.remove(_BENCHMARKS)


def _serving_results(module):
    results = {"ratios": {"solo_vs_direct": 1.0, "fanout_vs_direct": 2.0,
                          "direct_calls_per_s": 1000.0}}
    for n in module.CLIENTS:
        results["%d-client" % n] = {"clients": n, "requests_per_s": 100.0,
                                    "mean_batch": 1.0, "speedup_vs_1": 1.0}
    return results


def _warm_start_results(module):
    return {"cold": {"time_to_first_graph_hit_ms": 100.0,
                     "profiling_runs": 3},
            "warm": {"time_to_first_graph_hit_ms": 10.0},
            "speedup": 10.0}


@pytest.fixture(params=[("bench_serving", _serving_results),
                        ("bench_warm_start", _warm_start_results)],
                ids=["serving", "warm_start"])
def gate(request, monkeypatch):
    """``(module, saved)``: the gate with canned results and a recorder
    in place of ``save_results``."""
    name, canned = request.param
    module = _import(name)
    saved = []
    monkeypatch.setattr(module, "run_bench", lambda: canned(module))
    monkeypatch.setattr(module, "save_results",
                        lambda name, payload: saved.append(name) or name)
    monkeypatch.delenv("BENCH_LABEL", raising=False)
    return module, saved


def test_a_check_run_saves_nothing(gate):
    module, saved = gate
    assert module.main(["--check"]) == 0
    assert saved == []


def test_a_labelled_check_run_saves_its_label(gate, monkeypatch):
    module, saved = gate
    monkeypatch.setenv("BENCH_LABEL", "x")
    assert module.main(["--check"]) == 0
    assert len(saved) == 1 and saved[0].endswith("-x")


def test_a_plain_run_saves(gate):
    module, saved = gate
    assert module.main([]) == 0
    assert len(saved) == 1
