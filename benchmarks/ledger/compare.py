"""Compare two result sets written by ``run.py --out``.

One row per workload and end-to-end metric: both medians with their
quartiles and the ratio B/A with its base (A's median).  A row is
``regressed`` when B's median is worse than A's by more than the bound
``BENCHMARK.json`` fixes for the metric, and ``unresolved`` when either
set's own spread (quartile distance over median) exceeds that bound, so
that noise is never reported as "unchanged".  Two checks ride along per
workload.  The share of failed ops may not rise at all.  And because the
end-to-end timings come from the quiet blocks alone, the rate over the
*whole* window (``ops_per_s_mean``) gets a row of its own under
``ops_per_s``'s bound: a change that slows only some blocks (a stall, a
background recompile) leaves the quiet blocks alone and shows there.
That row counts when it regressed; unresolved, it is printed and does
not, since the window mean is the number host noise moves.  Counts the
program makes deterministically must match exactly when the seeds match.
"""

import json
import statistics

#: Per-layer counts that repeat exactly under one seed.
EXACT = ("graph.nodes", "exec.fused_ops", "guard.prechecks_per_graph",
         "cold.calls_to_first_graph", "cold.graphs_generated",
         "exec.lowered_share")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def values(result_set, workload, metric, trace):
    return [run["result"]["metrics"][metric]["value"]
            for run in result_set["runs"]
            if run["workload"] == workload and run["trace"] == trace
            and metric in run["result"]["metrics"]]


def whole_window(result_set, workload):
    """``ops_per_s_mean`` of the untraced runs of *workload*."""
    return [run["detail"]["ops_per_s_mean"] for run in result_set["runs"]
            if run["workload"] == workload and run["trace"] == 0
            and "ops_per_s_mean" in run.get("detail", {})]


def failed_counts(result_set, workload):
    """``(failed, attempted)`` summed over every run of *workload*."""
    results = [run["result"] for run in result_set["runs"]
               if run["workload"] == workload]
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def quartiles(samples):
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4))


def spread(samples):
    q1, median, q3 = quartiles(samples)
    return (q3 - q1) / median if median else 0.0


def _workloads(result_set):
    seen = []
    for run in result_set["runs"]:
        if run["workload"] not in seen:
            seen.append(run["workload"])
    return seen


def summary_table(result_set, spec):
    """Median, quartiles and spread of every end-to-end metric."""
    lines = ["%-13s %-12s %12s %12s %12s %8s  n" % (
        "workload", "metric", "q1", "median", "q3", "spread")]
    for workload in _workloads(result_set):
        for metric in spec["end_to_end"]:
            samples = values(result_set, workload, metric["name"], 0)
            if not samples:
                continue
            q1, median, q3 = quartiles(samples)
            lines.append("%-13s %-12s %12.6g %12.6g %12.6g %7.2f%%  %d" % (
                workload, metric["name"], q1, median, q3,
                100.0 * spread(samples), len(samples)))
    return "\n".join(lines)


def _row(workload, metric, name, in_a, in_b):
    bound = metric["bound"]
    ratio = quartiles(in_b)[1] / quartiles(in_a)[1]
    worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    if max(spread(in_a), spread(in_b)) > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    return (workload, name, metric["unit"], in_a, in_b, ratio, bound,
            verdict)


def compare_sets(a, b, spec):
    """``(rows, problems)``: one row per workload x end-to-end metric
    present in both sets plus the whole-window row, and the rows or
    counts that need attention."""
    rows, problems = [], []
    for workload in _workloads(a):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            in_a = values(a, workload, name, 0)
            in_b = values(b, workload, name, 0)
            if in_a and in_b:
                rows.append(_row(workload, metric, name, in_a, in_b))
                if rows[-1][-1] != "within bound":
                    problems.append("%s %s: %s"
                                    % (workload, name, rows[-1][-1]))
            if name != "ops_per_s":
                continue
            in_a, in_b = whole_window(a, workload), whole_window(b, workload)
            if in_a and in_b:
                rows.append(_row(workload, metric, "ops_per_s_mean",
                                 in_a, in_b))
                if rows[-1][-1] == "regressed":
                    problems.append(
                        "%s ops_per_s_mean: slower over the whole window "
                        "beyond the bound of ops_per_s" % workload)
        failed_a, tried_a = failed_counts(a, workload)
        failed_b, tried_b = failed_counts(b, workload)
        if tried_b and failed_b * tried_a > failed_a * tried_b:
            problems.append(
                "%s failed ops rose: %d of %d in B, %d of %d in A"
                % (workload, failed_b, tried_b, failed_a, tried_a))
        if a["meta"].get("seed") != b["meta"].get("seed"):
            continue
        for name in EXACT:
            in_a = set(values(a, workload, name, 1))
            in_b = set(values(b, workload, name, 1))
            if in_a and in_b and in_a != in_b:
                problems.append("%s %s: counts differ under one seed "
                                "(%s vs %s)" % (workload, name,
                                                sorted(in_a), sorted(in_b)))
    return rows, problems


def main(path_a, path_b, spec):
    a, b = load(path_a), load(path_b)
    rows, problems = compare_sets(a, b, spec)
    print("A = %s (commit %s, seed %s)\nB = %s (commit %s, seed %s)" % (
        path_a, a["meta"].get("commit"), a["meta"].get("seed"),
        path_b, b["meta"].get("commit"), b["meta"].get("seed")))
    print("%-13s %-14s %-6s %34s %34s %16s  %s" % (
        "workload", "metric", "unit", "A median [q1, q3]",
        "B median [q1, q3]", "B/A (base A)", "verdict"))
    for workload, name, unit, in_a, in_b, ratio, bound, verdict in rows:
        cells = ["%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])
                 for q in (quartiles(in_a), quartiles(in_b))]
        print("%-13s %-14s %-6s %34s %34s %7.3f of %-6.4g  %s (bound "
              "%.0f%%)" % (workload, name, unit, cells[0], cells[1],
                           ratio, quartiles(in_a)[1], verdict,
                           100 * bound))
    for workload in _workloads(a):
        print("%-13s failed/attempted  A %d/%d  B %d/%d" % (
            (workload,) + failed_counts(a, workload)
            + failed_counts(b, workload)))
    for problem in problems:
        print("ATTENTION  " + problem)
    print("%d rows, %d need attention" % (len(rows), len(problems)))
    return 1 if problems else 0
