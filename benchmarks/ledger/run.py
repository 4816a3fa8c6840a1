"""The layered perf ledger: entry point.

One workload, as the benchmark driver runs it (last line of stdout is
the result object)::

    python3 benchmarks/ledger/run.py --workload serve_solo --seed 1 \\
        --seconds 15 --trace 0

The workload runs in :data:`CHILDREN` fresh subprocesses, one after the
other, each with its own set-up and a share of ``--seconds``; the values
reported are the medians over them, so one process's memory layout or
one slow stretch of the host does not decide a number.

All five workloads, each in a fresh subprocess, as a result set::

    python3 benchmarks/ledger/run.py --runs 5 --traced --out set.json

Two result sets against each other::

    python3 benchmarks/ledger/run.py --compare A.json B.json

See README.md beside this file for the workloads, the metrics and the
layer map.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

#: One BLAS thread: a kernel that fans out would add threads the
#: workload did not ask for and a second source of run-to-run spread.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Each of these changes the program under test.
REFUSED = ("JANUS_TRACE", "JANUS_METRICS", "JANUS_LOWERING",
           "JANUS_COEXEC", "JANUS_CACHE_DIR", "JANUS_FLIGHT_RECORDER")

DETAIL_TAG = "LEDGER_DETAIL "
#: Fresh processes per workload run; ``setup_s`` is the median of their
#: set-ups, every other value the median of theirs.
CHILDREN = 3


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _commit():
    """HEAD's hash read from .git, or "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _table(headers, rows):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(str(c).ljust(w) for c, w in zip(row, widths))
              for row in rows]
    return "\n".join(lines)


def _fmt(value):
    return "%.6g" % value


# -- one share of a workload, in this (child) process -------------------------

def run_child(args, spec):
    for name in PINNED:
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy
    import measure
    import workloads
    import_s = time.perf_counter() - _START

    os.makedirs(OUT_DIR, exist_ok=True)
    trace = args.trace == 1
    opts = workloads.Options(
        seed=args.seed, seconds=args.seconds, trace=trace,
        out_dir=OUT_DIR, import_s=import_s)
    steal_before = measure.cpu_jiffies()
    try:
        outcome = workloads.WORKLOADS[args.workload](opts)
    except measure.InvalidRun as exc:
        sys.stderr.write("ledger: run invalid, no number reported: %s\n"
                         % exc)
        return 3

    declared = spec["per_layer" if trace else "end_to_end"]
    measured = outcome.per_layer if trace else outcome.end_to_end
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit("ledger: BENCHMARK.json does not name %s"
                         % ", ".join(unknown))
    if not trace and len(measured) != len(declared):
        raise SystemExit("ledger: end-to-end metrics not measured: %s"
                         % sorted({m["name"] for m in declared}
                                  - set(measured)))
    detail = dict(outcome.detail)
    detail["measured"] = sorted(measured)
    detail["meta"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "steal_pct": measure.steal_pct(steal_before,
                                       measure.cpu_jiffies()),
    }
    if trace:
        detail["trace_file"] = os.path.join(
            OUT_DIR, "trace-%s-%d.json" % (args.workload, args.child))
        outcome.spans.write(detail["trace_file"])
    print(DETAIL_TAG + json.dumps(detail, default=float))
    # A per-layer metric a workload does not exercise reads 0.
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {
            "value": float(measured.get(m["name"], 0.0)),
            "unit": m["unit"]} for m in declared},
    }))
    return 0


# -- one workload: fresh child processes, medians over them -------------------

class ChildFailed(Exception):
    def __init__(self, code, stderr):
        super().__init__(stderr)
        self.code = code


def _spawn_child(workload, seed, seconds, trace, index):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(trace), "--child", str(index)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise ChildFailed(proc.returncode, proc.stderr)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len(DETAIL_TAG):]) for line in lines
                  if line.startswith(DETAIL_TAG))
    return json.loads(lines[-1]), detail


def _median_rows(rows_per_child):
    """Per-program rows: the median over children of every column."""
    first = rows_per_child[0]
    return {name: {column: statistics.median(
        rows[name][column] for rows in rows_per_child)
        for column in row} for name, row in first.items()}


def check_environment():
    """Refuse, before anything runs, what would measure another program
    or none."""
    refused = [name for name in REFUSED if name in os.environ]
    if refused:
        raise ChildFailed(2, "ledger: refusing to run with %s set: each "
                          "changes the program under test; unset it\n"
                          % ", ".join(refused))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise ChildFailed(1, "ledger: no program to measure: %s is "
                          "missing\n" % os.path.join(ROOT, "src", "repro"))


def run_workload(workload, seed, seconds, trace, quick):
    """Run *workload* in fresh child processes and combine them.

    Every value is the median over the children, except ``peak_rss_mb``
    (their maximum) and the op counts (their sums).
    """
    started = time.perf_counter()
    children = 1 if quick else CHILDREN
    share = min(seconds, 1.0) if quick else seconds / children
    results, details = [], []
    for index in range(children):
        result, detail = _spawn_child(workload, seed, share, trace, index)
        results.append(result)
        details.append(detail)
    if len({json.dumps(d["checksums"], sort_keys=True)
            for d in details}) != 1:
        raise ChildFailed(3, "ledger: children of one seed generated "
                          "different inputs\n")
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {
            "value": max(values) if name == "peak_rss_mb"
            else statistics.median(values), "unit": first["unit"]}
    failed = sum(r["failed"] for r in results)
    detail = {
        "measured": details[0]["measured"],
        "checksums": details[0]["checksums"],
        "base": details[0]["base"],
        "rounds": sum(d["rounds"] for d in details),
        "ops_per_s_mean": statistics.median(
            d["ops_per_s_mean"] for d in details),
        "meta": dict(details[0]["meta"], **{
            "workload": workload, "seed": seed,
            "seconds": share * children,
            "trace": trace, "quick": quick, "children": children,
            "nproc": os.cpu_count(), "commit": _commit(),
            "steal_pct": statistics.fmean(
                d["meta"]["steal_pct"] for d in details),
            "wall_s": time.perf_counter() - started}),
    }
    if "programs" in details[0]:
        detail["programs"] = _median_rows(
            [d["programs"] for d in details])
    if trace:
        detail["trace_files"] = [d["trace_file"] for d in details]
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": {"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": metrics},
            "detail": detail}


def print_record(record):
    """The human-readable tables of one workload run."""
    result, detail = record["result"], record["detail"]
    meta = detail["meta"]
    print("%s  seed %d  trace %d  %d processes, %.1f s measured, %d "
          "rounds, %.1f s wall  %d ops, %d failed"
          % (record["workload"], record["seed"], record["trace"],
             meta["children"], meta["seconds"], detail["rounds"],
             meta["wall_s"], result["attempted"], result["failed"]))
    print(_table(["metric", "value", "unit"],
                 [[name, _fmt(m["value"]), m["unit"]]
                  for name, m in result["metrics"].items()
                  if name in detail["measured"]]))
    print("over the whole window, slow blocks included: %s ops/s"
          % _fmt(detail["ops_per_s_mean"]))
    for metric, base in detail["base"].items():
        print("base of %s: %s" % (metric, base))
    programs = detail.get("programs")
    if programs:
        columns = ["ops_per_s", "op_p50_ms", "op_p99_ms", "vs_baseline"]
        print(_table(["program"] + columns,
                     [[name] + [_fmt(row[c]) for c in columns]
                      for name, row in programs.items()]))
    for path in detail.get("trace_files", ()):
        print("trace written to %s" % os.path.relpath(path, ROOT))


# -- all workloads: a result set ------------------------------------------------

def run_all(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    started = time.perf_counter()
    for run in range(args.runs):
        for name in names:
            for trace in ((0, 1) if args.traced else (0,)):
                record = run_workload(name, args.seed, args.seconds,
                                      trace, args.quick)
                runs.append(record)
                print("-- run %d of %d" % (run + 1, args.runs))
                print_record(record)
    result_set = {
        "meta": {"seed": args.seed, "seconds": args.seconds,
                 "runs": args.runs, "quick": args.quick,
                 "commit": _commit(), "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "wall_s": time.perf_counter() - started},
        "runs": runs,
        "claim": None,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result_set, fh, indent=1)
    import compare
    print(compare.summary_table(result_set, spec))
    failed = sum(r["result"]["failed"] for r in runs)
    print(json.dumps({
        "workloads": names, "runs": args.runs, "failed": failed,
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "wall_s": round(result_set["meta"]["wall_s"], 1),
        "claim": None}))
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="The layered perf ledger (see README.md).")
    parser.add_argument("--workload", help="run this one workload and "
                        "end with the result object")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a smoke run: one process, one second")
    parser.add_argument("--runs", type=int, default=1,
                        help="result set: runs per workload")
    parser.add_argument("--traced", action="store_true",
                        help="result set: add a --trace 1 run per run")
    parser.add_argument("--out", help="result set: write it here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    sys.path.insert(0, HERE)
    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1], spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None and args.workload not in [
            w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    if args.child is not None:
        return run_child(args, spec)
    try:
        check_environment()
        if args.workload is None:
            return run_all(args, spec)
        record = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.quick)
    except ChildFailed as exc:
        sys.stderr.write(str(exc))
        return exc.code
    print_record(record)
    result = record["result"]
    if result["failed"]:
        sys.stderr.write("ledger: %d of %d ops raised, were refused or "
                         "differ from the oracle\n"
                         % (result["failed"], result["attempted"]))
    # Exit 0 even then: the driver reads ``correct`` and ``failed``.
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
