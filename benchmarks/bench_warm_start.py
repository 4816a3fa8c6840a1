"""Cold vs warm time-to-first-graph-hit with the persistent compile cache.

The disk tier (:mod:`repro.janus.diskcache`, docs/compilation.md
"Persistence & warm start") claims that a worker joining a fleet whose
cache already holds its artifact skips profiling and graph generation
entirely: its first call loads, re-fuses, and re-lowers the published
pre-fusion graph and executes it directly.  This bench measures exactly
that boundary, in real subprocesses:

* **cold** — a fresh worker with an *empty* cache directory: its
  time-to-first-graph-hit spans ``profile_runs`` imperative profiling
  runs, AST conversion, specialization, fusion, and compilation,
* **warm** — an identical worker against a *seeded* cache directory:
  one disk load plus the deterministic rebuild pipeline.

Timing happens **inside** each worker, from the first call to the first
call that executes as a graph — interpreter/numpy startup (identical in
both arms; the tokenizer's one-time regex compilation included) is
excluded.  Medians over ``REPEATS`` workers per arm.

``--check`` gates the headline: warm time-to-first-graph-hit must be at
least ``--threshold`` (default 5x) faster than cold.  Run standalone or
via ``make bench-check``::

    PYTHONPATH=src python benchmarks/bench_warm_start.py --check

``BENCH_LABEL=foo`` writes ``results/warm_start-foo.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import format_table, save_results  # noqa: E402

#: Workers per arm (medians reported).
REPEATS = 5
#: Model shape: LAYERS unrolled (matmul + tanh + residual) blocks.
LAYERS = 24
FEATURES = 64

_WORKER_SRC = """\
import io
import json
import time
import tokenize

import numpy as np

import repro as R
from repro import janus


@janus.function
def forward(x, w):
    h = x
    for _ in range(%(layers)d):
        h = R.tanh(h @ w) + h * 0.5
    return R.reduce_sum(h * h)


def main():
    rng = np.random.RandomState(3)
    x = rng.rand(%(features)d, %(features)d).astype(np.float32) * 0.1
    w = rng.rand(%(features)d, %(features)d).astype(np.float32) * 0.1
    # The first tokenize of a process compiles the tokenizer's regexes
    # (~3 ms), and the first call's source hash tokenizes.  That is
    # interpreter start-up like the imports, identical in both arms;
    # `import repro` used to pay it by accident, through scipy's import.
    list(tokenize.generate_tokens(io.StringIO("pass\\n").readline))
    start = time.perf_counter()
    elapsed = None
    for _ in range(64):
        out = forward(x, w)
        if forward.stats["graph_runs"] > 0:
            elapsed = time.perf_counter() - start
            break
    print(json.dumps({
        "time_to_first_graph_hit": elapsed,
        "profiling_runs": forward.stats["imperative_runs"],
        "graphs_compiled": forward.stats["graphs_generated"],
        "warm_starts": forward.stats["warm_starts"],
        "checksum": float(out.numpy()),
    }))


main()
"""


def _run_worker(script, cache_dir):
    src_root = os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "src")
    env = os.environ.copy()
    env["JANUS_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, script], env=env, capture_output=True,
        text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError("worker failed:\n%s" % proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bench():
    workdir = tempfile.mkdtemp(prefix="janus-warmbench-")
    try:
        script = os.path.join(workdir, "worker.py")
        with open(script, "w") as fh:
            fh.write(_WORKER_SRC % {"layers": LAYERS,
                                    "features": FEATURES})

        # Seed the shared cache once (not timed as either arm).
        seeded_dir = os.path.join(workdir, "seeded")
        seed = _run_worker(script, seeded_dir)
        assert seed["graphs_compiled"] == 1, seed

        cold, warm = [], []
        for i in range(REPEATS):
            # Each cold worker gets its own empty directory, so every
            # sample pays the full pipeline.
            cold_dir = os.path.join(workdir, "cold-%d" % i)
            cold.append(_run_worker(script, cold_dir))
            warm.append(_run_worker(script, seeded_dir))

        for rec in cold:
            assert rec["warm_starts"] == 0 and \
                rec["graphs_compiled"] == 1, rec
        for rec in warm:
            assert rec["warm_starts"] == 1 and \
                rec["profiling_runs"] == 0 and \
                rec["graphs_compiled"] == 0, rec
        checksums = {r["checksum"] for r in cold + warm + [seed]}
        assert len(checksums) == 1, "outputs diverged: %r" % checksums

        cold_s = statistics.median(
            r["time_to_first_graph_hit"] for r in cold)
        warm_s = statistics.median(
            r["time_to_first_graph_hit"] for r in warm)
        return {
            "cold": {"time_to_first_graph_hit_ms": cold_s * 1e3,
                     "profiling_runs": cold[0]["profiling_runs"]},
            "warm": {"time_to_first_graph_hit_ms": warm_s * 1e3,
                     "profiling_runs": 0},
            "speedup": cold_s / warm_s,
            "meta": {"layers": LAYERS, "features": FEATURES,
                     "repeats": REPEATS,
                     "outputs_identical": True},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="fail unless warm start beats cold start "
                             "by the threshold")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="required cold/warm speedup (default 5x)")
    args = parser.parse_args(argv)

    results = run_bench()
    rows = [
        ["cold", "%.1f" % results["cold"]["time_to_first_graph_hit_ms"],
         results["cold"]["profiling_runs"], "1.0x"],
        ["warm", "%.1f" % results["warm"]["time_to_first_graph_hit_ms"],
         0, "%.1fx" % results["speedup"]],
    ]
    print(format_table(
        ["arm", "first graph hit (ms)", "profiling runs", "speedup"],
        rows,
        title="Warm start via disk cache (%d layers, %dx%d, median of %d)"
              % (LAYERS, FEATURES, FEATURES, REPEATS)))

    label = os.environ.get("BENCH_LABEL")
    path = save_results("warm_start" + ("-" + label if label else ""),
                        results)
    print("results written to %s" % path)

    if args.check:
        print("gate: warm start is %.1fx faster than cold "
              "(floor %.1fx)" % (results["speedup"], args.threshold))
        if results["speedup"] < args.threshold:
            print("FAIL: the disk cache is not delivering warm starts")
            return 1
        print("OK: persistent cache turns cold compiles into warm starts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
