"""Checks on the ledger itself (not collected by tier-1, whose
``testpaths`` is ``tests``).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run as ledger  # noqa: E402
import spans  # noqa: E402

SPEC = ledger.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
_cache = {}


def quick_run(workload, trace, env=None):
    """The completed process of one ``--quick`` run (memoized)."""
    key = (workload, trace)
    if env is None and key in _cache:
        return _cache[key]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ledger.ROOT,
        env=dict(os.environ, **(env or {})))
    if env is None:
        _cache[key] = proc
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = quick_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == _RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        if not trace:
            assert got["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_is_loadable_and_self_times_add_up(workload):
    proc = quick_run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ledger.OUT_DIR,
                           "trace-%s-0.json" % workload)) as fh:
        events = json.load(fh)["traceEvents"]
    assert events
    by_id = {e["args"]["id"]: e for e in events}
    own = spans.self_times(events)
    per_op = {}
    for event in events:
        parent = event["args"]["parent"]
        assert parent == -1 or parent in by_id
        if parent != -1:
            assert by_id[parent]["args"]["op"] == event["args"]["op"]
        assert own[event["args"]["id"]] >= -1e-3    # us; float slack
        per_op.setdefault(event["args"]["op"], 0.0)
        per_op[event["args"]["op"]] += own[event["args"]["id"]]
    for event in events:
        if event["args"]["parent"] == -1:
            total = per_op[event["args"]["op"]]
            assert abs(total - event["dur"]) <= 0.02 * event["dur"]


def test_same_seed_same_inputs_other_seed_other_inputs():
    sys.path.insert(0, os.path.join(ledger.ROOT, "src"))
    import programs as P

    def sums(seed):
        out = {name: P.checksum(program.make_batches(seed))
               for name, program in P.TRAIN_PROGRAMS.items()}
        out["requests"] = P.checksum(P.request_tensors(seed))
        out["infer_chain"] = P.checksum(P.infer_chain_inputs(seed))
        out["branchy"] = P.checksum(P.branchy_inputs(seed)[0])
        return out

    first, again, other = sums(5), sums(5), sums(6)
    assert first == again
    for name in first:
        assert first[name] != other[name], name


def test_refuses_environment_that_changes_the_program():
    proc = quick_run("serve_solo", 0, env={"JANUS_TRACE": "1"})
    assert proc.returncode == 2
    assert "JANUS_TRACE" in proc.stderr
    assert not proc.stdout.strip()


def test_result_set_run_refuses_it_too_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick"],
        capture_output=True, text=True, timeout=170, cwd=ledger.ROOT,
        env=dict(os.environ, JANUS_LOWERING="0"))
    assert proc.returncode == 2
    assert "JANUS_LOWERING" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not proc.stdout.strip()


def _result_set(seed, e2e, layer=None, failed=0, window=None):
    runs = []
    for index, values in enumerate(e2e):
        runs.append({"workload": "w", "trace": 0, "result": {
            "failed": failed, "attempted": 100, "metrics": {
                "ops_per_s": {"value": values[0], "unit": "1/s"},
                "op_p50_ms": {"value": values[1], "unit": "ms"}}}})
        if window is not None:
            runs[-1]["detail"] = {"ops_per_s_mean": window[index]}
    if layer is not None:
        runs.append({"workload": "w", "trace": 1, "result": {
            "failed": 0, "attempted": 100, "metrics": {
                "graph.nodes": {"value": layer, "unit": "count"}}}})
    return {"meta": {"seed": seed}, "runs": runs}


_COMPARE_SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}
_STEADY = [(100, 1.0), (101, 1.01), (99, 0.99)]


def test_compare_marks_regressed_unresolved_and_count_mismatch():
    spec = _COMPARE_SPEC
    steady = _result_set(1, _STEADY, 50)
    slower = _result_set(1, [(80, 1.0), (81, 1.0), (79, 1.0)], 51)
    noisy = _result_set(2, [(100, 1.0), (140, 1.0), (70, 1.0)], 52)

    rows, problems = compare.compare_sets(steady, steady, spec)
    assert [r[-1] for r in rows] == ["within bound", "within bound"]
    assert not problems

    rows, problems = compare.compare_sets(steady, slower, spec)
    assert [r[-1] for r in rows] == ["regressed", "within bound"]
    assert any("graph.nodes" in p for p in problems)

    rows, problems = compare.compare_sets(steady, noisy, spec)
    assert rows[0][-1] == "unresolved"
    # Different seeds: counts are not required to match.
    assert not any("graph.nodes" in p for p in problems)


def test_compare_sees_failed_ops_rise_behind_steady_timings():
    clean = _result_set(1, _STEADY)
    broken = _result_set(1, _STEADY, failed=2)
    rows, problems = compare.compare_sets(clean, broken, _COMPARE_SPEC)
    assert [r[-1] for r in rows] == ["within bound", "within bound"]
    assert problems == ["w failed ops rose: 6 of 300 in B, 0 of 300 in A"]
    # Not rising is fine, in either direction.
    assert not compare.compare_sets(broken, broken, _COMPARE_SPEC)[1]
    assert not compare.compare_sets(broken, clean, _COMPARE_SPEC)[1]


def test_compare_sees_a_slowdown_the_quiet_blocks_filter_out():
    before = _result_set(1, _STEADY, window=[90, 91, 89])
    stalls = _result_set(1, _STEADY, window=[70, 71, 69])
    noisy = _result_set(1, _STEADY, window=[90, 60, 120])
    rows, problems = compare.compare_sets(before, stalls, _COMPARE_SPEC)
    assert [(r[1], r[-1]) for r in rows] == [
        ("ops_per_s", "within bound"), ("ops_per_s_mean", "regressed"),
        ("op_p50_ms", "within bound")]
    assert len(problems) == 1 and "whole window" in problems[0]
    # A window mean that host noise moved is shown, not counted.
    rows, problems = compare.compare_sets(before, noisy, _COMPARE_SPEC)
    assert rows[1][-1] == "unresolved" and not problems
