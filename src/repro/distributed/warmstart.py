"""Simulated fleet warm start: N worker processes, one compile cache.

``python -m repro.distributed.warmstart`` launches a small fleet of
worker processes that all run the same JANUS-decorated training-style
step function against a **shared** on-disk compile cache
(:mod:`repro.janus.diskcache`).  The first worker starts cold — it pays
profiling, conversion, optimization, and compilation, then publishes the
artifact.  Every subsequent worker warm-starts: its first call probes
the disk tier, rebuilds the artifact, and reaches ``_run_graph`` with
zero profiling runs.  The printed summary is the fleet argument for
persistence: compile cost is paid once per (function, specialization,
config, version), not once per process.

Each worker reports its *time to first graph-hit* measured in-process
(interpreter startup excluded — that cost is identical either way), the
number of graphs it compiled itself, and its warm-start count.

Usage::

    python -m repro.distributed.warmstart --workers 4
    python -m repro.distributed.warmstart --workers 8 --json
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

__all__ = ["run_fleet", "main"]

#: Calls after which a worker gives up waiting for a graph hit.
_MAX_CALLS = 64


def _make_step():
    """Build the fleet's decorated step function (one per process)."""
    from .. import janus

    @janus.function
    def fleet_step(x, w):
        h = x
        for _ in range(8):
            h = h @ w
            h = h * 0.5 + x
        return h

    return fleet_step


def _worker_main(index):
    """Run inside each fleet process; prints one JSON result line."""
    import numpy as np

    step = _make_step()
    rng = np.random.RandomState(1234)     # same data fleet-wide
    x = rng.rand(16, 16).astype(np.float32)
    w = rng.rand(16, 16).astype(np.float32)
    start = time.perf_counter()
    first_graph_hit = None
    calls = 0
    checksum = None
    while calls < _MAX_CALLS:
        out = step(x, w)
        calls += 1
        if first_graph_hit is None and step.stats["graph_runs"] > 0:
            first_graph_hit = time.perf_counter() - start
            checksum = float(out.numpy().sum())
            break
    from ..observability import DISKCACHE
    print(json.dumps({
        "worker": index,
        "calls_to_first_graph_hit": calls,
        "time_to_first_graph_hit": first_graph_hit,
        "profiling_runs": step.stats["imperative_runs"],
        "graphs_compiled": step.stats["graphs_generated"],
        "warm_starts": step.stats["warm_starts"],
        "disk_hits": DISKCACHE.hits,
        "checksum": checksum,
    }))
    return 0


def _spawn(index, cache_dir):
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = os.environ.copy()
    env["JANUS_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.distributed.warmstart",
         "--worker", str(index)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def run_fleet(workers=4, cache_dir=None):
    """First worker cold, the rest warm (concurrently); returns results.

    The return dict carries per-worker records plus the headline
    ``cold_seconds`` / ``warm_seconds_mean`` / ``speedup`` numbers.
    """
    own_dir = cache_dir is None
    if own_dir:
        cache_dir = tempfile.mkdtemp(prefix="janus-fleet-")
    try:
        results = []
        # Worker 0 alone: the one cold compile the fleet ever pays.
        proc = _spawn(0, cache_dir)
        out, err = proc.communicate(timeout=300)
        if proc.returncode != 0:
            raise RuntimeError("cold worker failed:\n%s" % err)
        results.append(json.loads(out.strip().splitlines()[-1]))
        # The rest of the fleet starts concurrently against the
        # populated cache.
        procs = [_spawn(i, cache_dir) for i in range(1, workers)]
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            if proc.returncode != 0:
                raise RuntimeError("warm worker failed:\n%s" % err)
            results.append(json.loads(out.strip().splitlines()[-1]))
        cold = results[0]["time_to_first_graph_hit"]
        warm = [r["time_to_first_graph_hit"] for r in results[1:]]
        checksums = {r["checksum"] for r in results}
        return {
            "workers": workers,
            "cache_dir": cache_dir,
            "results": results,
            "cold_seconds": cold,
            "warm_seconds_mean": sum(warm) / len(warm) if warm else None,
            "speedup": (cold / (sum(warm) / len(warm)))
            if warm and cold else None,
            "outputs_identical": len(checksums) == 1,
        }
    finally:
        if own_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed.warmstart",
        description="Simulated fleet sharing one persistent compile "
                    "cache: first worker compiles, the rest warm-start.")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--cache-dir", default=None,
                        help="shared cache directory (default: a "
                             "temporary one, removed afterwards)")
    parser.add_argument("--json", action="store_true",
                        help="print the raw result dict as JSON")
    parser.add_argument("--worker", type=int, default=None,
                        help=argparse.SUPPRESS)   # internal: fleet member
    args = parser.parse_args(argv)

    if args.worker is not None:
        return _worker_main(args.worker)

    summary = run_fleet(args.workers, args.cache_dir)
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    print("fleet of %d workers, shared cache" % summary["workers"])
    for rec in summary["results"]:
        mode = "cold (compiled %d graph%s)" % (
            rec["graphs_compiled"],
            "s" if rec["graphs_compiled"] != 1 else "") \
            if rec["warm_starts"] == 0 else "warm start"
        print("  worker %d: first graph hit after %d call%s, %.1f ms "
              "(%d profiling runs) — %s"
              % (rec["worker"], rec["calls_to_first_graph_hit"],
                 "s" if rec["calls_to_first_graph_hit"] != 1 else "",
                 (rec["time_to_first_graph_hit"] or 0.0) * 1e3,
                 rec["profiling_runs"], mode))
    if summary["warm_seconds_mean"]:
        print("cold %.1f ms vs warm %.1f ms mean -> %.1fx faster "
              "time-to-first-graph-hit; outputs identical: %s"
              % (summary["cold_seconds"] * 1e3,
                 summary["warm_seconds_mean"] * 1e3,
                 summary["speedup"], summary["outputs_identical"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
