"""JANUS against the symbolic and imperative baselines, per program.

Builds each training program of the ledger (``benchmarks/ledger/
programs.py``) three ways in one process — JANUS, imperative, and
``SymbolicStep(parallel=False)`` (the TF-1-style graph built once per
input signature) — warms each arm with three passes over its batches,
then times alternating rounds: in each round every arm runs
``program.cycles`` passes over the batches, in an order that rotates
from round to round.  It prints, per program, the medians over the
rounds of the same-round ratios

* ``vs_symbolic`` — symbolic block time / JANUS block time, and
* ``vs_imperative`` — imperative block time / JANUS block time,

so 1.0 means JANUS runs as fast as that arm.  BLAS threads are pinned
to one before numpy is imported (unpinned, one program read 0.72x
symbolic in one process and 0.83x in the next).

``--unseen`` adds a ``TreeRNN-unseen`` row whose rounds each feed fresh
trees (``make_batches(100 + round)``): every arm meets structures it
has not seen, so it measures what a new tree costs, not a warm one::

    PYTHONPATH=src python benchmarks/bench_symbolic_parity.py \\
        --programs TreeRNN A3C --rounds 10 --unseen
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, os.path.join(HERE, "ledger"))

import programs  # noqa: E402
from repro import modes, nn  # noqa: E402

ARMS = ("janus", "imperative", "symbolic")
WARM_PASSES = 3


def build(program, arm):
    if arm != "symbolic":
        return program.build(arm)
    model = program.make_model(programs.MODEL_SEED)
    return modes.SymbolicStep(program.make_loss(model), nn.SGD(0.01),
                              parallel=False)


def run_passes(step, batches, passes):
    for _ in range(passes):
        for batch in batches:
            step(*batch)


def measure(program, rounds, unseen=False):
    """``(vs_symbolic, vs_imperative)`` medians over ``rounds``."""
    steps = {arm: build(program, arm) for arm in ARMS}
    warm = program.make_batches(1)
    for step in steps.values():
        run_passes(step, warm, WARM_PASSES)
    ratios = {"symbolic": [], "imperative": []}
    for r in range(rounds):
        batches = program.make_batches(100 + r) if unseen else warm
        elapsed = {}
        for k in range(len(ARMS)):
            arm = ARMS[(r + k) % len(ARMS)]
            start = time.perf_counter()
            run_passes(steps[arm], batches, program.cycles)
            elapsed[arm] = time.perf_counter() - start
        for arm, series in ratios.items():
            series.append(elapsed[arm] / elapsed["janus"])
    return (statistics.median(ratios["symbolic"]),
            statistics.median(ratios["imperative"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--programs", nargs="+",
                        default=list(programs.TRAIN_PROGRAMS),
                        choices=list(programs.TRAIN_PROGRAMS))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--unseen", action="store_true",
                        help="add a TreeRNN row fed fresh trees each round")
    args = parser.parse_args(argv)
    rows = [(name, programs.TRAIN_PROGRAMS[name], False)
            for name in args.programs]
    if args.unseen:
        rows.append(("TreeRNN-unseen", programs.TRAIN_PROGRAMS["TreeRNN"],
                     True))
    print("%-16s %12s %14s" % ("program", "vs_symbolic", "vs_imperative"))
    results = {}
    for name, program, unseen in rows:
        results[name] = measure(program, args.rounds, unseen)
        print("%-16s %12.3f %14.3f" % ((name,) + results[name]), flush=True)
    return results


if __name__ == "__main__":
    main()
