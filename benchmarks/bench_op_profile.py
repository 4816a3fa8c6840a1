"""Executed ops per step, by op kind, of JANUS and the symbolic baseline.

Builds each training program of the ledger (``benchmarks/ledger/
programs.py``) as JANUS and as ``SymbolicStep`` (the arms of
``bench_symbolic_parity.py``), warms both with three passes over the
program's batches (ten steps at least), then traces one more pass of
each at trace level 2,
a step at a time.  Every level-2 ``op`` event is one executed closure,
nested bodies included: an ``invoke``, ``cond``, ``while_loop`` or
``replay_grad`` event spans the events of the bodies it ran, so its time
is counted exclusive of theirs.  Per program it prints, for each op
kind, the executed count and the microseconds per step of each arm,
largest JANUS time first::

    PYTHONPATH=src python benchmarks/bench_op_profile.py \\
        --programs A3C LSTM --top 15

The closure form that tracing runs carries a frame and the tracer's own
cost per op that an untraced (rendered) run does not pay — a call's or
loop's exclusive time holds that cost of every event of its bodies — so
read counts, shares and rankings from it, not step times.  Garbage
collection is off while a step is traced: a collection would land in
whichever op it interrupted.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402

from bench_symbolic_parity import WARM_PASSES, build, programs, \
    run_passes  # noqa: E402
from repro.observability import TRACER, override_level  # noqa: E402

ARMS = ("janus", "symbolic")


def exclusive_times(events):
    """``[(op name, exclusive seconds)]`` of level-2 ``op`` events: an
    event's duration less that of the events nested directly in it."""
    out = []
    by_thread = collections.defaultdict(list)
    for e in events:
        if e.category == "op" and e.args and "node" in e.args:
            by_thread[e.tid].append(e)
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e.ts, -e.dur))
        stack = []   # [end, index into out]
        for e in spans:
            while stack and e.ts >= stack[-1][0]:
                stack.pop()
            if stack:
                parent = out[stack[-1][1]]
                out[stack[-1][1]] = (parent[0], parent[1] - e.dur)
            out.append((e.name, e.dur))
            stack.append([e.ts + e.dur, len(out) - 1])
    return out


def profile(step, batches):
    """``({op: count per step}, {op: µs per step}, level events)`` over
    one traced pass of ``batches``."""
    counts, seconds = collections.Counter(), collections.Counter()
    levels = 0
    for batch in batches:
        TRACER.clear()
        gc.collect()
        gc.disable()
        try:
            with override_level(2):
                step(*batch)
        finally:
            gc.enable()
        events = TRACER.events
        levels += sum(1 for e in events if e.category == "level")
        for name, dur in exclusive_times(events):
            counts[name] += 1
            seconds[name] += dur
    TRACER.clear()
    n = len(batches)
    return ({k: v / n for k, v in counts.items()},
            {k: v / n * 1e6 for k, v in seconds.items()}, levels)


#: Steps each arm runs before it is traced, at least: past profiling
#: and the level schedule's trials, also for a one-batch program.
WARM_STEPS = 10


def measure(program):
    """``{arm: profile}`` of ``program``, each arm warmed first."""
    batches = program.make_batches(1)
    passes = max(WARM_PASSES, -(-WARM_STEPS // len(batches)))
    results = {}
    for arm in ARMS:
        step = build(program, arm)
        run_passes(step, batches, passes)
        results[arm] = profile(step, batches)
    return results


def report(name, results, top):
    (jc, jt, jl), (sc, st, sl) = results["janus"], results["symbolic"]
    print("\n%s  (per step; JANUS %.0f ops %.0f us, symbolic %.0f ops "
          "%.0f us)" % (name, sum(jc.values()), sum(jt.values()),
                        sum(sc.values()), sum(st.values())))
    if jl or sl:
        print("  level-schedule events (ops not traced): janus %d, "
              "symbolic %d" % (jl, sl))
    print("  %-28s %10s %10s %10s %10s" % (
        "op", "janus n", "janus us", "symb n", "symb us"))
    kinds = sorted(set(jc) | set(sc), key=lambda k: -jt.get(k, 0.0))
    for kind in kinds[:top]:
        print("  %-28s %10.1f %10.1f %10.1f %10.1f" % (
            kind, jc.get(kind, 0.0), jt.get(kind, 0.0), sc.get(kind, 0.0),
            st.get(kind, 0.0)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--programs", nargs="+",
                        default=list(programs.TRAIN_PROGRAMS),
                        choices=list(programs.TRAIN_PROGRAMS))
    parser.add_argument("--top", type=int, default=20,
                        help="op kinds to print per program")
    args = parser.parse_args(argv)
    results = {}
    for name in args.programs:
        results[name] = measure(programs.TRAIN_PROGRAMS[name])
        report(name, results[name], args.top)
    return results


if __name__ == "__main__":
    main()
