"""The five workloads: what each runs, checks and reports.

Each ``run_*`` function sets up once (``run.py`` runs it in several fresh
processes and reports medians), runs rounds of equal-work blocks until
the time budget is spent, checks every op against its oracle and the
conservation invariants, and returns a :class:`Outcome`.  With ``opts.trace`` the same
rounds also run *walked* blocks, in which the benchmark itself performs
the steps of a warm ``JanusFunction`` call, a served request or a
bring-up, one span per layer; untraced blocks beside them give the
tracing overhead.
"""

import os
import random
import shutil
import statistics
import tempfile
import threading
import time

import numpy as np

import repro as R
from repro.janus import CacheEntry, GraphGenerator, compile_generated
from repro.janus import diskcache
from repro.janus.compiled import load_compiled
from repro.janus.fragments import FragmentCache
from repro.observability import get_flight_recorder
from repro.serving import Server, ServerOverloaded, ServingConfig

import programs as P
from measure import (Block, InvalidRun, Series, collector_off,
                     cpu_jiffies, geomean, peak_rss_mb, quiet_low,
                     ratio_of, steal_pct, timed_block)
from spans import SpanLog

_pc = time.perf_counter

#: Rounds every program gets even when the budget is already spent.
MIN_ROUNDS = 3
#: Requests per serving block: p99 keeps 20 samples beyond it.
SERVE_BLOCK = 2000
FANOUT = 8
#: The warm-path parts, in the order ``JanusFunction._call`` runs them.
WALK_PARTS = ("api.signature", "cache.lookup", "guard.precheck",
              "guard.bind", "exec.run_flat", "api.repack")


class Options:
    def __init__(self, seed, seconds, trace, out_dir, import_s):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        #: Seconds from process start to the end of the imports; part of
        #: ``setup_s`` because a user pays it before the first op.
        self.import_s = import_s


class Outcome:
    """What one workload run reports."""

    def __init__(self):
        self.end_to_end = {}
        self.per_layer = {}
        self.attempted = 0
        self.failed = 0
        #: Per-program rows, input checksums and bases, for the tables.
        self.detail = {}
        self.spans = None


# -- shared pieces -------------------------------------------------------------

def _coerce(batch):
    """Eager tensors for array arguments, as ``JanusFunction`` makes."""
    return tuple(R.Tensor(R.TensorValue.of(a))
                 if isinstance(a, (np.ndarray, np.generic)) else a
                 for a in batch)


def _scalar(out):
    """Consume a step's result: its loss as a float."""
    if isinstance(out, (tuple, list)):
        out = out[0]
    return float(out.numpy())


def _count_failed(ours, oracle):
    """Ops that raised or whose output differs from the oracle's."""
    failed = 0
    for mine, theirs in zip(ours, oracle):
        if isinstance(mine, Exception) or isinstance(theirs, Exception) \
                or not np.allclose(mine, theirs, rtol=1e-5, atol=1e-6):
            failed += 1
    return failed + abs(len(ours) - len(oracle))


def _guarded(op):
    """An op whose exception becomes its (failed) output."""
    def run(i):
        try:
            return op(i)
        except InvalidRun:
            raise
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            return exc
    return run


def _timed_setup(opts, build):
    """``(product, setup_s)``: one set-up in this fresh process.  The
    parent process reports the median over its child processes."""
    start = _pc()
    product = build()
    return product, opts.import_s + _pc() - start


class _Budget:
    """Rounds until the window is spent.  After the first
    :data:`MIN_ROUNDS`, a round starts only if one as long as the mean so
    far would still end inside the window, so a run measures for at most
    ``--seconds`` rather than for that and one round more."""

    def __init__(self, opts):
        self.start = _pc()
        self.deadline = self.start + opts.seconds
        self.rounds = 0

    def more(self):
        if self.rounds < MIN_ROUNDS:
            return True
        now = _pc()
        return now + (now - self.start) / self.rounds <= self.deadline

    def tick(self):
        self.rounds += 1


def check_conservation(name, fn):
    """calls = graph + imperative + co-executed runs; no ticket owned."""
    stats = fn.stats
    total = stats["graph_runs"] + stats["imperative_runs"] \
        + stats["coexec_runs"]
    if stats["calls"] != total:
        raise InvalidRun("%s: calls %d != graph+imperative+coexec %d"
                         % (name, stats["calls"], total))
    if fn.recompiles_in_flight != 0:
        raise InvalidRun("%s: %d recompiles still in flight"
                         % (name, fn.recompiles_in_flight))


class _Window:
    """Stats deltas of one JanusFunction over the timed window."""

    def __init__(self, fn):
        self.fn = fn
        self.before = dict(fn.stats)

    def delta(self, key):
        return self.fn.stats[key] - self.before[key]

    def graph_run_share(self, name):
        """Graph runs / calls over the window; a warm workload whose
        share is not 1.0 fell back or recompiled while being timed."""
        calls = self.delta("calls")
        share = self.delta("graph_runs") / calls if calls else 1.0
        if share != 1.0:
            raise InvalidRun("%s: only %.4f of %d calls in the timed "
                             "window ran as a graph" % (name, share, calls))
        return share


def _artifact(fn):
    """The most recently used compiled artifact of a JanusFunction."""
    entries = fn.cache.entries()
    if not entries:
        raise InvalidRun("%s has no compiled artifact" % fn.__name__)
    return entries[-1][1].compiled


def _graph_counts(artifacts):
    """Deterministic counts over compiled artifacts (one per program)."""
    n = len(artifacts)
    return {
        "graph.nodes": sum(a.node_count for a in artifacts),
        "exec.fused_ops": sum(a.fused_ops for a in artifacts),
        "exec.lowered_share":
            sum(1 for a in artifacts if a.lowered is not None) / n,
        "guard.prechecks_per_graph":
            sum(len(a.generated.prechecks) for a in artifacts) / n,
    }


class _Walk:
    """Per-part durations of walked warm calls, one list per block."""

    def __init__(self):
        self.blocks = []

    def begin_block(self):
        self.blocks.append([])

    def call(self, fn, batch, log, program, consume=None):
        """What ``JanusFunction._call`` does on a warm hit, step by step
        through the public methods, each under its own span."""
        t0 = _pc()
        args = _coerce(batch)
        cache = fn.cache
        t1 = _pc()
        signature = cache.signature_of(args)
        t2 = _pc()
        entry = cache.lookup(signature)
        t3 = _pc()
        if entry is None or entry.dirty:
            raise InvalidRun("%s: no warm entry to walk" % program)
        compiled = entry.compiled
        valid = compiled.check_preconditions(args)
        t4 = _pc()
        if not valid:
            raise InvalidRun("%s: precheck failed on a warm entry"
                             % program)
        feeds = compiled.bind_feeds(args)
        t5 = _pc()
        flat = compiled.run_flat(feeds)
        t6 = _pc()
        out = compiled.repack_outputs(flat)
        t7 = _pc()
        if consume is not None:
            out = consume(out)
        t8 = _pc()
        stamps = (t1, t2, t3, t4, t5, t6, t7)
        self.blocks[-1].append(
            tuple(b - a for a, b in zip(stamps, stamps[1:])))
        log.record(program, t0, t8,
                   [(name, a, b) for name, a, b
                    in zip(WALK_PARTS, stamps, stamps[1:])])
        return out

    def part_us(self, series):
        """Microseconds per part over the quiet blocks of *series* (the
        walked blocks, in the same order): the mean of block means.
        Means, because blocks hold equal work and means of parts add up
        to the mean of the whole."""
        return {name: 1e6 * statistics.fmean(
            statistics.fmean(op[index] for op in self.blocks[i])
            for i in series.quiet())
            for index, name in enumerate(WALK_PARTS)}


def _walk_metrics(rows):
    """The ``janus.api`` split from per-program ``(call_us, part_us)``
    rows.  Arithmetic means over programs, so the parts and the floor
    still add up to the call."""
    n = len(rows)
    metrics = {"api.call_us": sum(call for call, _ in rows) / n}
    for name in WALK_PARTS:
        metrics[name + "_us"] = sum(parts[name] for _, parts in rows) / n
    metrics["api.floor_us"] = metrics["api.call_us"] - sum(
        metrics[name + "_us"] for name in WALK_PARTS)
    return metrics


def _noop_call_us():
    """p50 of a warm one-op function: the fixed dispatch floor."""
    noop = P.build_noop()
    x = R.constant(np.ones((4,), np.float32))
    for _ in range(8):
        noop(x)
    series = Series()
    for _ in range(5):
        block, _ = timed_block(lambda i: noop(x), SERVE_BLOCK)
        series.add(block)
    check_conservation("noop", noop)
    return 1e3 * series.p50_ms()


def _host_metrics(jiffies_before):
    return {"host.steal_pct": steal_pct(jiffies_before, cpu_jiffies()),
            "host.nproc": float(os.cpu_count() or 1)}


def _overhead_pct(plain_rates, walked_rates):
    return 100.0 * (geomean(plain_rates) / geomean(walked_rates) - 1.0)


# -- train_fine / train_coarse -------------------------------------------------

class _TrainState:
    """One program's JANUS step, its oracle and their blocks."""

    def __init__(self, program, batches):
        self.program = program
        self.batches = batches
        self.janus = program.build("janus")
        self.oracle = program.build("imperative")
        self.steps = 0          # steps each model has taken
        #: JANUS blocks: all of them in round order (each pairs with the
        #: oracle block of its round), and split by how they were run.
        self.ours, self.plain, self.walked = Series(), Series(), Series()
        self.base = Series()
        self.walk = _Walk()
        self.failed = 0
        self.warm_up()

    def warm_up(self):
        """Profile, generate, and settle; the oracle moves in lockstep."""
        count = max(8, len(self.batches))
        ours = [_scalar(self.janus(*self.batch(self.steps + k)))
                for k in range(count)]
        theirs = [_scalar(self.oracle(*self.batch(self.steps + k)))
                  for k in range(count)]
        self.failed += _count_failed(ours, theirs)
        self.steps += count

    def batch(self, step):
        return self.batches[step % len(self.batches)]

    def round(self, walked, log):
        """One JANUS block and one oracle block over the same steps."""
        count = self.program.cycles * len(self.batches)
        first = self.steps
        if walked:
            self.walk.begin_block()
            name = self.program.name

            def ours(i):
                return self.walk.call(self.janus, self.batch(first + i),
                                      log, name, consume=_scalar)
        else:
            def ours(i):
                return _scalar(self.janus(*self.batch(first + i)))

        block, mine = timed_block(_guarded(ours), count)
        self.ours.add(block)
        (self.walked if walked else self.plain).add(block)
        base_block, theirs = timed_block(
            _guarded(lambda i: _scalar(
                self.oracle(*self.batch(first + i)))), count)
        self.base.add(base_block)
        self.failed += _count_failed(mine, theirs)
        self.steps += count


def run_train(names, opts):
    order = list(names)
    random.Random(opts.seed).shuffle(order)
    batches = {name: P.TRAIN_PROGRAMS[name].make_batches(opts.seed)
               for name in order}
    states, setup_s = _timed_setup(
        opts, lambda: [_TrainState(P.TRAIN_PROGRAMS[name], batches[name])
                       for name in order])
    windows = {s.program.name: _Window(s.janus) for s in states}
    log = SpanLog()
    jiffies = cpu_jiffies()
    budget = _Budget(opts)
    while budget.more():
        walked = opts.trace and budget.rounds % 2 == 1
        for state in states:
            state.round(walked, log)
        budget.tick()

    out = Outcome()
    rows = {}
    for state in states:
        name = state.program.name
        check_conservation(name, state.janus)
        rows[name] = {
            "ops_per_s": state.plain.rate(),
            "ops_per_s_mean": state.plain.rate_mean(),
            "op_p50_ms": state.plain.p50_ms(),
            "op_p99_ms": state.plain.p99_ms(),
            "op_p90_ms": state.plain.pooled_ms(0.9),
            "vs_baseline": ratio_of(state.base, state.ours),
            "imperative_ops_per_s": state.base.rate(),
            "ops": state.ours.ops, "failed": state.failed,
            "graph_run_share":
                windows[name].graph_run_share(name),
            "fallbacks": windows[name].delta("fallbacks"),
        }
        out.attempted += state.ours.ops
        out.failed += state.failed
    out.end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": geomean(r["ops_per_s"] for r in rows.values()),
        "op_p50_ms": geomean(r["op_p50_ms"] for r in rows.values()),
        "op_p99_ms": geomean(r["op_p99_ms"] for r in rows.values()),
        "vs_baseline": geomean(r["vs_baseline"] for r in rows.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.detail = {
        "programs": rows, "rounds": budget.rounds,
        "ops_per_s_mean": geomean(
            r["ops_per_s_mean"] for r in rows.values()),
        "checksums": {n: P.checksum(batches[n]) for n in order},
        "base": {"vs_baseline": "imperative step, geomean %.2f ops/s"
                 % geomean(r["imperative_ops_per_s"]
                           for r in rows.values())},
    }
    if opts.trace:
        artifacts = [_artifact(s.janus) for s in states]
        walk_rows = []
        per_node = []
        for state, artifact in zip(states, artifacts):
            parts = state.walk.part_us(state.walked)
            walk_rows.append((1e6 / state.plain.rate(), parts))
            per_node.append(parts["exec.run_flat"] / artifact.node_count)
        layer = _walk_metrics(walk_rows)
        layer.update(_graph_counts(artifacts))
        layer.update(_host_metrics(jiffies))
        layer["exec.us_per_node"] = sum(per_node) / len(per_node)
        layer["api.noop_call_us"] = _noop_call_us()
        layer["imperative.step_us"] = 1e6 / geomean(
            r["imperative_ops_per_s"] for r in rows.values())
        layer["train.op_p90_ms"] = geomean(
            r["op_p90_ms"] for r in rows.values())
        layer["ops_per_s_mean"] = out.detail["ops_per_s_mean"]
        layer["api.graph_run_share"] = min(
            r["graph_run_share"] for r in rows.values())
        layer["api.fallbacks"] = float(sum(
            r["fallbacks"] for r in rows.values()))
        layer["trace.overhead_pct"] = _overhead_pct(
            [s.plain.rate() for s in states],
            [s.walked.rate() for s in states])
        for name, row in rows.items():
            layer["prog.%s.ops_per_s" % name] = row["ops_per_s"]
            layer["prog.%s.vs_baseline" % name] = row["vs_baseline"]
        out.per_layer = layer
        out.spans = log
    return out


# -- serve_solo / serve_fanout -------------------------------------------------

class _Probe:
    """The thin timing wrapper registered as the traced endpoint: stamps
    entry and exit of the endpoint function on the dispatcher thread."""

    def __init__(self, fn):
        self.fn = fn
        self.log = []

    @property
    def recompiles_in_flight(self):
        return self.fn.recompiles_in_flight

    def __call__(self, x):
        enter = _pc()
        out = self.fn(x)
        self.log.append((enter, _pc(), x))
        return out


class _ServeState:
    def __init__(self, requests, fanout, traced):
        self.requests = requests
        self.fanout = fanout
        self.predict = P.build_predict()
        for k in range(6):
            self.predict(requests[k])
        self.threads_before = threading.active_count()
        self.server = Server(ServingConfig(
            max_batch_size=8, batch_linger_s=0.0, max_queue_depth=256))
        self.endpoints = {
            "predict": self.server.register("predict", self.predict)}
        self.probe = None
        if traced:
            self.probe = _Probe(self.predict)
            self.endpoints["predict_traced"] = self.server.register(
                "predict_traced", self.probe)
        self.rejected = 0
        if fanout:
            # The first stacked batch has a new leading dimension: one
            # failed precheck, one regeneration.  Whether the warm-up
            # below forms a batch is up to the scheduler, so settle it
            # here with a stacked direct call.
            stacked = R.constant(np.concatenate(
                [r.numpy() for r in requests[:FANOUT]]))
            for _ in range(3):
                self.predict(stacked)
        for name in self.endpoints:
            self.serve_block(name, count=64)
        if self.probe is not None:
            self.probe.log.clear()
        #: The oracle: the direct call's result for each request tensor.
        self.expected = np.stack(
            [self.predict(r).numpy() for r in requests])

    def close(self):
        """Close the server; its threads must all be gone afterwards."""
        self.server.close()
        alive = threading.active_count()
        if alive != self.threads_before:
            raise InvalidRun("%d threads alive after Server.close(), %d "
                             "before the server" %
                             (alive, self.threads_before))

    def failed_in(self, outputs):
        """Compare a block's replies with the oracle in one pass; reply
        ``i`` of a block answers request tensor ``i % N_REQUESTS``."""
        good = [i for i, out in enumerate(outputs)
                if not isinstance(out, Exception) and out is not None]
        if not good:
            return len(outputs)
        got = np.stack([outputs[i].numpy() for i in good])
        want = self.expected[[i % P.N_REQUESTS for i in good]]
        close = np.isclose(got, want, rtol=1e-5, atol=1e-6)
        matching = int(close.reshape(len(good), -1).all(axis=1).sum())
        return len(outputs) - matching

    def direct_block(self):
        requests, predict = self.requests, self.predict
        return timed_block(
            _guarded(lambda i: predict(requests[i % P.N_REQUESTS])),
            SERVE_BLOCK)

    def serve_block(self, endpoint="predict", count=SERVE_BLOCK):
        """One block of served requests: ``(Block, replies, stamps)``;
        a stamp is ``(submitted, client has the result)``."""
        if self.fanout:
            return self._fanout_block(self.endpoints[endpoint], count)
        server, requests = self.server, self.requests
        stamps = []

        def op(i):
            start = _pc()
            try:
                return server.call(endpoint, requests[i % P.N_REQUESTS])
            except ServerOverloaded as exc:
                self.rejected += 1
                return exc
            finally:
                stamps.append((start, _pc()))

        block, outputs = timed_block(_guarded(op), count)
        return block, outputs, stamps

    def _fanout_block(self, endpoint, count):
        """One client thread keeps 8 requests outstanding: it submits 8
        through the endpoint, waits for all 8, and repeats."""
        requests = self.requests
        stamps, outputs = [], []
        with collector_off():
            begin = _pc()
            for base in range(0, count, FANOUT):
                pending = []
                for k in range(base, base + FANOUT):
                    start = _pc()
                    try:
                        pending.append((start, endpoint.submit(
                            (requests[k % P.N_REQUESTS],))))
                    except ServerOverloaded as exc:
                        self.rejected += 1
                        pending.append((start, exc))
                for start, request in pending:
                    if isinstance(request, Exception):
                        outputs.append(request)
                    else:
                        request.done.wait()
                        outputs.append(request.error
                                       if request.error is not None
                                       else request.result)
                    stamps.append((start, _pc()))
            seconds = _pc() - begin
        block = Block(count, seconds, [done - start
                                       for start, done in stamps])
        return block, outputs, stamps


class _ServeSplit:
    """queue wait / dispatch / reply of traced served requests."""

    NAMES = ("serving.queue_wait", "serving.dispatch", "serving.reply")

    def __init__(self):
        self.blocks = []
        self.dispatches = 0
        self.requests = 0

    def add_block(self, stamps, dispatch_log, log, program):
        """Match requests to dispatches first-in first-out: a dispatch
        of ``r`` stacked rows served the next ``r / ROWS`` requests."""
        parts = []
        waiting = iter(stamps)
        for enter, leave, x in dispatch_log:
            for _ in range(x.numpy().shape[0] // P.ROWS):
                try:
                    submitted, done = next(waiting)
                except StopIteration:
                    raise InvalidRun("more dispatched rows than requests")
                parts.append((enter - submitted, leave - enter,
                              done - leave))
                log.record(program, submitted, done, [
                    (self.NAMES[0], submitted, enter),
                    (self.NAMES[1], enter, leave),
                    (self.NAMES[2], leave, done)])
        if len(parts) != len(stamps):
            raise InvalidRun("%d requests but %d dispatched"
                             % (len(stamps), len(parts)))
        self.blocks.append(parts)
        self.dispatches += len(dispatch_log)
        self.requests += len(stamps)

    def part_us(self, series):
        """Median over the quiet traced blocks of the block's median."""
        return {name: 1e6 * statistics.median(
            statistics.median(op[index] for op in self.blocks[i])
            for i in series.quiet())
            for index, name in enumerate(self.NAMES)}


def run_serve(fanout, opts):
    program = "serve_fanout" if fanout else "serve_solo"
    requests = P.request_tensors(opts.seed)
    state, setup_s = _timed_setup(
        opts, lambda: _ServeState(requests, fanout, opts.trace))
    window = _Window(state.predict)
    served, direct = Series(), Series()
    traced, walked, unrecorded = Series(), Series(), Series()
    split, walk = _ServeSplit(), _Walk()
    log = SpanLog()
    recorder = get_flight_recorder()
    recorder_default = recorder.enabled
    cpu_s = 0.0
    out = Outcome()
    jiffies = cpu_jiffies()
    budget = _Budget(opts)
    try:
        while budget.more():
            cpu_before = time.process_time()
            block, replies, _ = state.serve_block()
            cpu_s += time.process_time() - cpu_before
            served.add(block)
            out.failed += state.failed_in(replies)
            block, replies = state.direct_block()
            direct.add(block)
            out.failed += state.failed_in(replies)
            if opts.trace:
                state.probe.log.clear()
                block, replies, stamps = state.serve_block(
                    "predict_traced")
                traced.add(block)
                out.failed += state.failed_in(replies)
                split.add_block(stamps, state.probe.log, log, program)
                walk.begin_block()
                block, replies = timed_block(
                    lambda i: walk.call(
                        state.predict, (requests[i % P.N_REQUESTS],),
                        log, "direct"), SERVE_BLOCK)
                walked.add(block)
                out.failed += state.failed_in(replies)
                recorder.set_enabled(False)
                try:
                    block, replies, _ = state.serve_block()
                finally:
                    recorder.set_enabled(recorder_default)
                unrecorded.add(block)
                out.failed += state.failed_in(replies)
            budget.tick()
    finally:
        state.close()
    check_conservation("predict", state.predict)
    share = window.graph_run_share("predict")
    out.attempted = served.ops + traced.ops + unrecorded.ops
    out.end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": served.rate(),
        "op_p50_ms": served.p50_ms(),
        "op_p99_ms": served.p99_ms(),
        "vs_baseline": ratio_of(direct, served),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.detail = {
        "rounds": budget.rounds,
        "ops_per_s_mean": served.rate_mean(),
        "checksums": {program: P.checksum(requests)},
        "base": {"vs_baseline": "direct call of the warm function in "
                 "the client thread, %.1f calls/s" % direct.rate()},
    }
    if opts.trace:
        artifact = _artifact(state.predict)
        parts = walk.part_us(walked)
        layer = _walk_metrics([(1e6 / direct.rate(), parts)])
        layer.update(_graph_counts([artifact]))
        layer.update(_host_metrics(jiffies))
        layer["exec.us_per_node"] = \
            parts["exec.run_flat"] / artifact.node_count
        layer["api.noop_call_us"] = _noop_call_us()
        layer["api.graph_run_share"] = share
        layer["api.fallbacks"] = float(window.delta("fallbacks"))
        layer["ops_per_s_mean"] = out.detail["ops_per_s_mean"]
        for name, value in split.part_us(traced).items():
            layer[name + "_us"] = value
        layer["serving.traced_p50_us"] = 1e3 * traced.p50_ms()
        layer["serving.batch_mean"] = split.requests / split.dispatches
        layer["serving.dispatches_per_req"] = \
            split.dispatches / split.requests
        layer["serving.rejected"] = float(state.rejected)
        layer["serving.cpu_us_per_req"] = 1e6 * cpu_s / served.ops
        layer["serving.direct_call_us"] = 1e3 * direct.p50_ms()
        layer["obs.recorder_cost_pct"] = 100.0 * (
            served.p50_ms() / unrecorded.p50_ms() - 1.0)
        layer["trace.overhead_pct"] = _overhead_pct(
            [served.rate()], [traced.rate()])
        out.per_layer = layer
        out.spans = log
    return out


# -- cold ----------------------------------------------------------------------

class _Split:
    """Durations of the bring-up steps traced cold cycles take, per
    program and step, plus the counts those steps expose."""

    def __init__(self):
        self.times = {}         # step name -> program -> [seconds]
        self.counts = {}

    def low_ms(self, name):
        """Geometric mean over programs of the step's quiet duration."""
        return 1e3 * geomean(quiet_low(times)
                             for times in self.times[name].values())


class _Stamped:
    """The ``(name, start, end)`` parts of one traced bring-up."""

    def __init__(self, split, program):
        self.split = split
        self.program = program
        self.parts = []
        self.begin = _pc()

    def run(self, name, thunk):
        start = _pc()
        result = thunk()
        end = _pc()
        self.split.times.setdefault(name, {}).setdefault(
            self.program, []).append(end - start)
        self.parts.append((name, start, end))
        return result

    def generate_and_store(self, fn, args, fragments, seed=None,
                           name="graphgen.generate", persist=False):
        """Generate, compile and cache a graph from outside the
        function, as its next call would have done inside."""
        signature = fn.cache.signature_of(args)
        generator = GraphGenerator(
            fn.func, fn.profiler, fn.config, optimizer=fn.optimizer,
            signature=signature, fragments=fragments, seed=seed,
            dirty_sites=seed.dirty_sites if seed is not None
            else frozenset())
        generated = self.run(name, generator.generate)
        compiled = self.run(
            "compiled.compile", lambda: compile_generated(
                generated, fn.config, signature=signature,
                persist=persist))
        fn.cache.store(signature, CacheEntry(compiled))
        return generator, compiled, signature


def _call_until_third_graph(name, fn, next_args, outs):
    """Call *fn* until its third graph run; returns the number of calls
    up to and including the first graph run, and when that happened."""
    first_call = first_s = None
    start = _pc()
    calls = 0
    while fn.stats["graph_runs"] < 3:
        if calls >= 64:
            raise InvalidRun("%s: no third graph run in 64 calls" % name)
        outs.append(_scalar(fn(*next_args(len(outs)))))
        calls += 1
        if first_call is None and fn.stats["graph_runs"]:
            first_call, first_s = calls, _pc() - start
    return first_call, first_s


class _ColdTrain:
    """Bring-up of one training program: fresh model, fresh function,
    called until its third graph run."""

    def __init__(self, name, seed):
        self.name = name
        self.program = P.TRAIN_PROGRAMS[name]
        self.batches = self.program.make_batches(seed)
        self.inputs = self.batches
        self.info = {}

    def _batch(self, k):
        return self.batches[k % len(self.batches)]

    def cycle(self):
        step = self.program.build("janus")
        outs = []
        first_call, _ = _call_until_third_graph(
            self.name, step, self._batch, outs)
        self.info = {"calls_to_first_graph": first_call,
                     "graphs_generated": step.stats["graphs_generated"]}
        return outs, [step]

    def split_cycle(self, split):
        stamped = _Stamped(split, self.name)
        step = self.program.build("janus")
        outs = []
        for k in range(step.config.profile_runs):
            outs.append(stamped.run(
                "profiler.profile_run",
                lambda: _scalar(step(*self._batch(k)))))
        batch = self._batch(len(outs))
        stamped.generate_and_store(step, _coerce(batch), FragmentCache())
        outs.append(stamped.run("cold.first_graph_run",
                                lambda: _scalar(step(*batch))))
        _call_until_third_graph(self.name, step, self._batch, outs)
        return outs, [step], stamped

    def baseline(self, calls):
        step = self.program.build("imperative")
        return [_scalar(step(*self._batch(k))) for k in range(calls)]


class _ColdChain:
    """``infer_chain`` against an empty, then the seeded, cache dir."""

    name = "infer_chain"

    def __init__(self, seed, scratch):
        self.args = P.infer_chain_inputs(seed)
        self.inputs = self.args
        self.scratch = scratch
        self.info = {}

    def cycle(self):
        cache_dir = tempfile.mkdtemp(prefix="chain-", dir=self.scratch)
        try:
            outs = []
            cold = P.build_infer_chain(cache_dir)
            first_call, cold_s = _call_until_third_graph(
                self.name, cold, lambda k: self.args, outs)
            warm = P.build_infer_chain(cache_dir)
            _, warm_s = _call_until_third_graph(
                self.name, warm, lambda k: self.args, outs)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if warm.stats["warm_starts"] != 1 or warm.stats["imperative_runs"]:
            raise InvalidRun("infer_chain: the seeded directory did not "
                             "warm-start (%r)" % warm.stats)
        self.info = {"calls_to_first_graph": first_call,
                     "graphs_generated": cold.stats["graphs_generated"],
                     "warm_vs_cold": cold_s / warm_s}
        return outs, [cold, warm]

    def split_cycle(self, split):
        stamped = _Stamped(split, self.name)
        cache_dir = tempfile.mkdtemp(prefix="chain-", dir=self.scratch)
        try:
            fn = P.build_infer_chain(cache_dir)
            outs = []
            for _ in range(fn.config.profile_runs):
                outs.append(stamped.run(
                    "profiler.profile_run",
                    lambda: _scalar(fn(*self.args))))
            _, compiled, signature = stamped.generate_and_store(
                fn, _coerce(self.args), FragmentCache(), persist=True)
            payload = compiled.take_payload()
            if payload is None:
                raise InvalidRun("infer_chain is not portable: %r"
                                 % compiled.portable_skip)
            split.counts["payload_kb"] = len(payload) / 1024.0
            store = diskcache.store_for(fn.config)
            key = diskcache.entry_key(diskcache.source_hash(fn.func),
                                      signature, fn.config)
            stamped.run("diskcache.publish",
                        lambda: store.store(key, payload))
            loaded = stamped.run(
                "diskcache.load", lambda: store.load(
                    key, rebuild=lambda raw: load_compiled(
                        raw, fn.config, signature=signature)))
            if loaded is None:
                raise InvalidRun("infer_chain: the published entry did "
                                 "not load back")
            fn.cache.store(signature, CacheEntry(loaded))
            outs.append(stamped.run("cold.first_graph_run",
                                    lambda: _scalar(fn(*self.args))))
            _call_until_third_graph(self.name, fn,
                                    lambda k: self.args, outs)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return outs, [fn], stamped

    def baseline(self, calls):
        args = _coerce(self.args)
        return [_scalar(P.infer_chain(*args)) for _ in range(calls)]


class _ColdBranchy:
    """``branchy`` brought up, then broken once and recovered."""

    name = "branchy"

    def __init__(self, seed):
        self.x, self.positive, self.negative = P.branchy_inputs(seed)
        self.inputs = [self.x] + self.positive + self.negative
        self.info = {}

    def _args(self, k):
        # Alternating gate signs while profiling keep all six branches
        # dynamic, so each records a reusable fragment.
        return (self.x, *(self.positive if k % 2 == 0 else self.negative))

    def cycle(self):
        fn, knob = P.build_branchy()
        outs = []
        first_call, _ = _call_until_third_graph(
            self.name, fn, self._args, outs)
        knob.gain = 2.0
        start = _pc()
        outs.append(_scalar(fn(self.x, *self.positive)))   # falls back
        outs.append(_scalar(fn(self.x, *self.positive)))   # regenerates
        recover_s = _pc() - start
        if fn.stats["fallbacks"] != 1 or fn.stats["graphs_generated"] != 2:
            raise InvalidRun("branchy: the injected break did not cause "
                             "one fallback and one regeneration (%r)"
                             % fn.stats)
        self.info = {"calls_to_first_graph": first_call,
                     "graphs_generated": fn.stats["graphs_generated"],
                     "recover_s": recover_s}
        return outs, [fn]

    def split_cycle(self, split):
        stamped = _Stamped(split, self.name)
        fn, knob = P.build_branchy()
        fragments = FragmentCache()
        outs = []
        for k in range(fn.config.profile_runs):
            outs.append(stamped.run(
                "profiler.profile_run",
                lambda: _scalar(fn(*self._args(k)))))
        args = self._args(len(outs))
        stamped.generate_and_store(fn, args, fragments)
        outs.append(stamped.run("cold.first_graph_run",
                                lambda: _scalar(fn(*args))))
        _call_until_third_graph(self.name, fn, self._args, outs)
        knob.gain = 2.0
        args = (self.x, *self.positive)
        outs.append(stamped.run("cold.failing_call",
                                lambda: _scalar(fn(*args))))
        seed = fn.cache.take_seed(fn.cache.signature_of(args))
        if fn.stats["fallbacks"] != 1 or seed is None:
            raise InvalidRun("branchy: the injected break left no "
                             "regeneration seed (%r)" % fn.stats)
        generator, _, _ = stamped.generate_and_store(
            fn, args, fragments, seed=seed, name="graphgen.regen")
        split.counts["fragments_reused"] = generator.fragments_reused
        outs.append(_scalar(fn(*args)))
        return outs, [fn], stamped

    def baseline(self, calls):
        """The plain function under the same knob schedule."""
        fn, knob = P.build_branchy()
        outs = []
        for k in range(calls - 2):
            outs.append(_scalar(fn.func(*self._args(k))))
        knob.gain = 2.0
        for _ in range(2):
            outs.append(_scalar(fn.func(self.x, *self.positive)))
        return outs


class _ColdState:
    """One program's bring-up cycle and the blocks it has produced."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.ours, self.plain, self.walked = Series(), Series(), Series()
        self.base = Series()
        self.calls = 0          # calls one bring-up makes
        self.artifact = None
        self.failed = 0

    def round(self, split, log):
        """One bring-up (an op) and its imperative baseline."""
        cycle = self.cycle
        if split is None:
            block, (result,) = timed_block(lambda i: cycle.cycle(), 1)
            outs, fns = result
            self.plain.add(block)
            self.artifact = _artifact(fns[0])
        else:
            block, (result,) = timed_block(
                lambda i: cycle.split_cycle(split), 1)
            outs, fns, stamped = result
            self.walked.add(block)
            log.record(cycle.name, stamped.begin,
                       stamped.begin + block.latencies[0], stamped.parts)
        self.ours.add(block)
        for fn in fns:
            check_conservation(cycle.name, fn)
        base_block, (oracle,) = timed_block(
            lambda i: cycle.baseline(len(outs)), 1)
        self.base.add(base_block)
        self.calls = len(outs)
        self.failed += 1 if _count_failed(outs, oracle) else 0


def run_cold(opts):
    scratch = tempfile.mkdtemp(prefix="cold-", dir=opts.out_dir)
    try:
        return _run_cold(opts, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_cold(opts, scratch):
    order = list(P.COLD_PROGRAMS)
    random.Random(opts.seed).shuffle(order)
    states = [_ColdState(
        _ColdChain(opts.seed, scratch) if name == "infer_chain"
        else _ColdBranchy(opts.seed) if name == "branchy"
        else _ColdTrain(name, opts.seed)) for name in order]
    # Set-up here is one whole bring-up of every program: exactly the
    # "model build, profiling, generation, compile, warm-up" that
    # ``setup_s`` stands for on the warm workloads.
    _, setup_s = _timed_setup(
        opts, lambda: [s.cycle.cycle() for s in states])
    split = _Split()
    log = SpanLog()
    jiffies = cpu_jiffies()
    budget = _Budget(opts)
    while budget.more():
        walked = opts.trace and budget.rounds % 2 == 1
        for state in states:
            state.round(split if walked else None, log)
        budget.tick()

    out = Outcome()
    rows = {}
    for state in states:
        rows[state.cycle.name] = dict(
            state.cycle.info,
            ops_per_s=state.plain.rate(),
            ops_per_s_mean=state.plain.rate_mean(),
            op_p50_ms=state.plain.p50_ms(),
            op_p99_ms=state.plain.p99_ms(),
            vs_baseline=ratio_of(state.base, state.ours),
            imperative_call_ms=state.base.p50_ms() / state.calls)
        out.attempted += state.ours.ops
        out.failed += state.failed
    out.end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": geomean(r["ops_per_s"] for r in rows.values()),
        "op_p50_ms": geomean(r["op_p50_ms"] for r in rows.values()),
        "op_p99_ms": geomean(r["op_p99_ms"] for r in rows.values()),
        "vs_baseline": geomean(r["vs_baseline"] for r in rows.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.detail = {
        "programs": rows, "rounds": budget.rounds,
        "ops_per_s_mean": geomean(
            r["ops_per_s_mean"] for r in rows.values()),
        "checksums": {s.cycle.name: P.checksum(s.cycle.inputs)
                      for s in states},
        "base": {"vs_baseline": "as many imperative calls on a fresh "
                 "model as the bring-up made"},
    }
    if opts.trace:
        layer = _graph_counts([s.artifact for s in states])
        layer.update(_host_metrics(jiffies))
        layer["ops_per_s_mean"] = out.detail["ops_per_s_mean"]
        layer["api.noop_call_us"] = _noop_call_us()
        profile_ms = split.times["profiler.profile_run"]
        layer["profiler.profile_run_ms"] = \
            split.low_ms("profiler.profile_run")
        layer["profiler.overhead_ratio"] = geomean(
            1e3 * quiet_low(profile_ms[name])
            / rows[name]["imperative_call_ms"] for name in rows)
        layer["graphgen.generate_ms"] = split.low_ms("graphgen.generate")
        layer["graphgen.regen_ms"] = split.low_ms("graphgen.regen")
        layer["graphgen.fragments_reused"] = \
            float(split.counts["fragments_reused"])
        layer["compiled.compile_ms"] = split.low_ms("compiled.compile")
        layer["cold.first_graph_run_ms"] = \
            split.low_ms("cold.first_graph_run")
        layer["diskcache.publish_ms"] = split.low_ms("diskcache.publish")
        layer["diskcache.load_ms"] = split.low_ms("diskcache.load")
        layer["diskcache.payload_kb"] = split.counts["payload_kb"]
        layer["diskcache.warm_vs_cold"] = \
            rows["infer_chain"]["warm_vs_cold"]
        layer["cold.recover_ms"] = 1e3 * rows["branchy"]["recover_s"]
        layer["cold.calls_to_first_graph"] = float(sum(
            r["calls_to_first_graph"] for r in rows.values()))
        layer["cold.graphs_generated"] = float(sum(
            r["graphs_generated"] for r in rows.values()))
        layer["trace.overhead_pct"] = _overhead_pct(
            [s.plain.rate() for s in states],
            [s.walked.rate() for s in states])
        for name, row in rows.items():
            layer["prog.%s.cold_ms" % name] = row["op_p50_ms"]
        out.per_layer = layer
        out.spans = log
    return out


WORKLOADS = {
    "train_fine": lambda opts: run_train(P.TRAIN_FINE, opts),
    "train_coarse": lambda opts: run_train(P.TRAIN_COARSE, opts),
    "serve_solo": lambda opts: run_serve(False, opts),
    "serve_fanout": lambda opts: run_serve(True, opts),
    "cold": run_cold,
}
