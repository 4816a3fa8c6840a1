"""Serving cost against a direct call, and throughput vs client threads.

The serving layer (:mod:`repro.serving`, docs/serving.md) has no
dispatcher thread: the client that waits on a request runs the queue on
its own thread - and a lone ``Server.call`` skips the queue too - so a
served call is the direct call plus the lead protocol, batch assembly
and accounting.  ROADMAP's bar is that serving a
function is not slower than calling it; this bench measures how far
from that bar the layer is, as **same-run ratios** against a warm
``janus.function`` (absolute numbers on shared hosts drift 2x between
runs; a ratio of adjacent blocks does not):

* ``solo``   - one blocking client on ``Server.call``, batch always 1:
  served calls/s over direct calls/s.  Nothing amortises the per-request
  cost here, so this is the overhead ratio itself.
* ``fanout`` - one client keeps 8 requests outstanding through
  ``endpoint.submit`` and waits for all 8: every dispatch is one
  stacked call of 8, so batching has to pay for the queueing.

``--check`` gates both ratios against floors set from measured values
with headroom (see ``SOLO_FLOOR`` / ``FANOUT_FLOOR``).  Both run on any
host, one core included - there is nothing to skip.

The 1/2/4/8 *spinning* client-thread table is printed as information
only.  With caller-runs dispatch a thread that never blocks never
leaves requests queued behind it, so with ``batch_linger_s=0`` eight
spinning clients take turns at batch 1 (docs/serving.md, "When batches
form"); ``batch_linger_s`` is the explicit way to ask for more.

Run standalone or via ``make bench-check``::

    PYTHONPATH=src python benchmarks/bench_serving.py --check

``BENCH_LABEL=foo`` writes ``results/serving-foo.json``; a ``--check`` run
without a label writes nothing.
"""

import argparse
import gc
import os
import statistics
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import format_table, save_results  # noqa: E402

#: Client-thread counts swept (first entry is the baseline).
CLIENTS = (1, 2, 4, 8)
#: Requests each client issues per timed round.
REQUESTS_PER_CLIENT = 60
#: Timed rounds per client count (median reported).
REPEATS = 3
#: Input rows x features per request.
ROWS, FEATURES = 4, 32
#: Requests per timed block of the ratio gates, and rounds of adjacent
#: (direct, solo, fanout) blocks; the median round's ratio is reported.
BLOCK = 400
ROUNDS = 15
#: Requests the fanout client keeps outstanding.
FANOUT = 8
#: Gate floors, each 0.8 x the ratio measured on the 2-core reference
#: host: solo 0.65-0.68 (0.45-0.50 before an uncontended call ran on the
#: lead it takes), fanout 1.61-1.73, median 1.68 over eight runs
#: (1.30-1.40 before a batch was split by slicing and folded into the
#: stats once per histogram; the thread-hand-off design these replaced
#: read 0.28 and 0.81).  ROADMAP's bar, serving not slower than calling,
#: is a fanout ratio of 1.0.
SOLO_FLOOR = 0.53
FANOUT_FLOOR = 1.34


def build_endpoint():
    import repro as R
    from repro import janus

    rng = np.random.default_rng(11)
    w1 = R.constant(rng.normal(size=(FEATURES, FEATURES),
                               scale=0.1).astype(np.float32))
    w2 = R.constant(rng.normal(size=(FEATURES, FEATURES),
                               scale=0.1).astype(np.float32))

    @janus.function(config=janus.JanusConfig(
        fail_on_not_convertible=True, parallel_execution=False,
        profile_runs=2))
    def predict(x):
        h = R.tanh(R.matmul(x, w1))
        return R.matmul(h, w2)

    return predict


def _timed_round(server, n_clients, request):
    barrier = threading.Barrier(n_clients + 1)
    errors = []

    def client(_):
        barrier.wait()
        try:
            for _ in range(REQUESTS_PER_CLIENT):
                server.call("predict", request)
        except Exception as exc:  # noqa: BLE001 - fails the bench
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join(120.0)
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return (n_clients * REQUESTS_PER_CLIENT) / elapsed


def _rate(block):
    start = time.perf_counter()
    block()
    return BLOCK / (time.perf_counter() - start)


def _ratios(server, endpoint, predict, request):
    """Median over rounds of served/direct rate, solo and fanout; each
    round times its three blocks back to back so they see one host."""
    def direct():
        for _ in range(BLOCK):
            predict(request)

    def solo():
        for _ in range(BLOCK):
            server.call("predict", request)

    def fanout():
        args = (request,)
        for _ in range(BLOCK // FANOUT):
            pending = [endpoint.submit(args) for _ in range(FANOUT)]
            for handle in pending:
                handle.wait()
                if handle.error is not None:
                    raise handle.error

    solo_ratios, fanout_ratios, direct_rates = [], [], []
    for _ in range(ROUNDS):
        base = _rate(direct)
        direct_rates.append(base)
        solo_ratios.append(_rate(solo) / base)
        fanout_ratios.append(_rate(fanout) / base)
    return {
        "direct_calls_per_s": statistics.median(direct_rates),
        "solo_vs_direct": statistics.median(solo_ratios),
        "fanout_vs_direct": statistics.median(fanout_ratios),
    }


def run_bench():
    import repro as R
    from repro import observability as obs
    from repro.observability import SERVING
    from repro.serving import Server, ServingConfig

    predict = build_endpoint()
    rng = np.random.default_rng(23)
    request = R.constant(rng.normal(size=(ROWS, FEATURES))
                         .astype(np.float32))
    # Warm outside the server: profile, generate, and settle the graph
    # - for the single request and for the stacked batch of FANOUT,
    # which has its own leading dimension - so every timed block
    # measures steady-state serving.
    stacked = R.constant(np.concatenate([request.numpy()] * FANOUT))
    for _ in range(6):
        predict(request)
        predict(stacked)
    assert predict.stats["graph_runs"] > 0, predict.stats

    results = {}
    with Server(ServingConfig(max_batch_size=8, batch_linger_s=0.0,
                              max_queue_depth=256)) as server:
        endpoint = server.register("predict", predict)
        server.call("predict", request)        # warm the serving path
        gc.collect()
        gc.disable()
        try:
            results["ratios"] = _ratios(server, endpoint, predict,
                                        request)
            for n in CLIENTS:
                obs.clear()
                samples = [_timed_round(server, n, request)
                           for _ in range(REPEATS)]
                results["%d-client" % n] = {
                    "clients": n,
                    "requests_per_s": statistics.median(samples),
                    "mean_batch": SERVING.requests
                    / max(1, SERVING.batches),
                    "batched_requests": SERVING.batched_requests,
                }
        finally:
            gc.enable()

    base = results["1-client"]["requests_per_s"]
    for n in CLIENTS:
        row = results["%d-client" % n]
        row["speedup_vs_1"] = row["requests_per_s"] / base
    results["meta"] = {
        "rows": ROWS, "features": FEATURES,
        "requests_per_client": REQUESTS_PER_CLIENT, "repeats": REPEATS,
        "block": BLOCK, "rounds": ROUNDS, "fanout": FANOUT,
        "cpu_count": os.cpu_count(),
    }
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail unless both served/direct ratios "
                             "reach their floors")
    args = parser.parse_args(argv)

    results = run_bench()
    ratios = results["ratios"]
    print(format_table(
        ["client", "served/direct", "floor"],
        [["1 blocking (Server.call)",
          "%.2f" % ratios["solo_vs_direct"], "%.2f" % SOLO_FLOOR],
         ["1 with %d outstanding (submit)" % FANOUT,
          "%.2f" % ratios["fanout_vs_direct"], "%.2f" % FANOUT_FLOOR]],
        title="Served vs direct call, same run (direct: %.0f calls/s)"
              % ratios["direct_calls_per_s"]))
    rows = []
    for n in CLIENTS:
        row = results["%d-client" % n]
        rows.append([row["clients"], "%.0f" % row["requests_per_s"],
                     "%.2f" % row["mean_batch"],
                     "%.2fx" % row["speedup_vs_1"]])
    print(format_table(
        ["clients", "req/s", "mean batch", "vs 1 client"], rows,
        title="Spinning client threads, information only (%dx%d "
              "requests, batch<=8, linger 0)" % (ROWS, FEATURES)))

    # A gate run writes a file only when asked to: the tracked
    # results/serving.json is a plain run's.
    label = os.environ.get("BENCH_LABEL")
    if label or not args.check:
        path = save_results("serving" + ("-" + label if label else ""),
                            results)
        print("results written to %s" % path)

    if args.check:
        failed = False
        for name, key, floor in (
                ("one blocking client", "solo_vs_direct", SOLO_FLOOR),
                ("%d outstanding submits" % FANOUT, "fanout_vs_direct",
                 FANOUT_FLOOR)):
            ok = ratios[key] >= floor
            failed = failed or not ok
            print("gate: %s serve at %.2fx the direct-call rate "
                  "(floor %.2fx) %s" % (name, ratios[key], floor,
                                        "OK" if ok else "FAIL"))
        if failed:
            print("FAIL: serving costs more over a direct call than the "
                  "floor allows")
            return 1
        print("OK: served/direct ratios hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
