"""Timed blocks, the quiet-block estimator and host readings.

Why blocks: the 2-core VM this was written on runs at two speeds, about
1.5x apart, and switches between them every few seconds, sometimes
staying slow for most of a run (the same warm call reads 27 us or 43 us
at p50; a pure-Python loop 8.6 ms or 13 ms).  A pooled median therefore
reports whichever speed filled most of the window.  Every timed window
is cut into blocks of equal work, and the *quiet blocks* are those whose
rate is within :data:`QUIET` of the fastest block's: the blocks that ran
at the fast speed, however few they were.  Reported values come from the
quiet blocks alone, so they are near-best-case values and blind to a
change that slows only some blocks; the plain mean over the whole window
is kept beside them (``ops_per_s_mean``) and ``--compare`` gives it a
row of its own, so that such a change still shows.
"""

import contextlib
import gc
import math
import resource
import statistics
import time

_pc = time.perf_counter


class InvalidRun(Exception):
    """A conservation invariant failed: the run reports no number."""


#: A block is quiet when its rate is within this share of the best.
QUIET = 0.05


def quiet_low(values):
    """Mean of the durations within :data:`QUIET` of the shortest."""
    values = list(values)
    if not values:
        raise InvalidRun("no samples")
    limit = min(values) * (1.0 + QUIET)
    return statistics.fmean(v for v in values if v <= limit)


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list (q in 0..1)."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Block:
    """What one timed block of equal work yields."""

    __slots__ = ("n", "seconds", "latencies")

    def __init__(self, n, seconds, latencies):
        self.n = n
        self.seconds = seconds
        self.latencies = latencies

    @property
    def rate(self):
        return self.n / self.seconds


@contextlib.contextmanager
def collector_off():
    """Collect now, then keep the collector out of the timed region."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed_block(op, count):
    """Run ``op(i)`` for ``i in range(count)`` with the collector off.

    Returns ``(Block, outputs)``.  ``op`` must consume its result (a
    loss is turned into a float, a reply is held) before it returns, so
    the latency covers the work.
    """
    latencies = []
    outputs = []
    with collector_off():
        begin = _pc()
        for i in range(count):
            start = _pc()
            outputs.append(op(i))
            latencies.append(_pc() - start)
        seconds = _pc() - begin
    return Block(count, seconds, latencies), outputs


class Series:
    """The blocks of one program in one mode."""

    def __init__(self):
        self.blocks = []

    def add(self, block):
        self.blocks.append(block)

    @property
    def ops(self):
        return sum(b.n for b in self.blocks)

    @property
    def seconds(self):
        return sum(b.seconds for b in self.blocks)

    def quiet(self):
        """Indices of the quiet blocks."""
        if not self.blocks:
            raise InvalidRun("no blocks")
        floor = max(b.rate for b in self.blocks) * (1.0 - QUIET)
        return [i for i, b in enumerate(self.blocks) if b.rate >= floor]

    def rate(self):
        """Ops per second of busy time over the quiet blocks."""
        quiet = [self.blocks[i] for i in self.quiet()]
        return sum(b.n for b in quiet) / sum(b.seconds for b in quiet)

    def rate_mean(self):
        return self.ops / self.seconds

    def quiet_ms(self, q):
        """Median over the quiet blocks of the block's own nearest-rank
        percentile, in ms.  One rule for every percentile: where a block
        holds fewer than 100 ops (training, cold) its p99 is its maximum,
        and where it holds one op (cold) every percentile is that op."""
        return 1e3 * statistics.median(
            percentile(sorted(self.blocks[i].latencies), q)
            for i in self.quiet())

    def p50_ms(self):
        return self.quiet_ms(0.5)

    def p99_ms(self):
        return self.quiet_ms(0.99)

    def pooled_ms(self, q):
        """A percentile over every op of the window, noise included."""
        pooled = sorted(x for b in self.blocks for x in b.latencies)
        return 1e3 * percentile(pooled, q)


def ratio_of(base, ours):
    """Median over rounds of base-block time / our-block time for the
    same work in adjacent blocks (host drift hits both alike)."""
    return statistics.median(b.seconds / b.n * o.n / o.seconds
                             for b, o in zip(base.blocks, ours.blocks))


# -- host readings -------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_jiffies():
    """``(steal, total)`` jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()[1:]
    except OSError:
        return None
    values = [int(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


def steal_pct(before, after):
    if before is None or after is None or after[1] == before[1]:
        return 0.0
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])
