"""Ring all-reduce: a real implementation plus an analytic cost model.

The paper integrates JANUS with Horovod, whose MPI collective operations
become graph nodes so communication overlaps with computation (section
5).  We cannot ship InfiniBand, so this module provides

* :func:`ring_allreduce` — an actual chunked ring all-reduce over
  in-process numpy buffers (reduce-scatter + all-gather, the Horovod/NCCL
  algorithm), used to keep simulated workers numerically in sync, and
* :class:`AllReduceCostModel` — the standard analytic time for that
  algorithm on a given interconnect, used by the scalability benchmark.
"""

import time

import numpy as np

from ..observability import COUNTERS, TRACER


def ring_allreduce(worker_arrays, average=True):
    """All-reduce a list of per-worker arrays with the ring algorithm.

    ``worker_arrays[w]`` is worker *w*'s buffer; all must share shape and
    dtype.  Returns the list of reduced buffers (one per worker — they
    are equal, but each worker owns its own copy, as in MPI).  The data
    movement follows the real algorithm: each worker splits its buffer
    into W chunks, runs W-1 reduce-scatter steps then W-1 all-gather
    steps, only ever exchanging single chunks with its ring neighbour.
    """
    workers = len(worker_arrays)
    COUNTERS.labels("distributed.allreduces").inc()
    if workers == 1:
        return [worker_arrays[0].copy()]
    start = time.perf_counter() if TRACER.level else 0.0
    shape = worker_arrays[0].shape
    dtype = worker_arrays[0].dtype
    flat = [np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
            for a in worker_arrays]
    n = flat[0].size
    bounds = np.linspace(0, n, workers + 1).astype(np.int64)

    def chunk(buf, idx):
        return buf[bounds[idx]:bounds[idx + 1]]

    # Reduce-scatter: after step s, worker w holds the partial sum of
    # chunk (w - s) from s+1 workers.
    for step in range(workers - 1):
        sends = [chunk(flat[w], (w - step) % workers).copy()
                 for w in range(workers)]
        for w in range(workers):
            src = (w - 1) % workers
            dst_chunk = (w - 1 - step) % workers
            chunk(flat[w], dst_chunk)[:] += sends[src]
    # All-gather: circulate each fully-reduced chunk around the ring.
    for step in range(workers - 1):
        sends = [chunk(flat[w], (w + 1 - step) % workers).copy()
                 for w in range(workers)]
        for w in range(workers):
            src = (w - 1) % workers
            dst_chunk = (w - step) % workers
            chunk(flat[w], dst_chunk)[:] = sends[src]
    scale = 1.0 / workers if average else 1.0
    results = [(buf * scale).reshape(shape).astype(dtype) for buf in flat]
    if TRACER.level:
        TRACER.complete("distributed", "ring_allreduce", start,
                        time.perf_counter() - start, workers=workers,
                        bytes=int(worker_arrays[0].nbytes),
                        average=average)
    return results


class AllReduceCostModel:
    """Analytic ring all-reduce time on a modelled interconnect.

    ``t = 2 (W-1) * latency + 2 (W-1)/W * bytes / bandwidth``

    Defaults approximate the paper's testbed: 100 Gbps InfiniBand between
    machines, NVLink-class bandwidth within a machine (6 GPUs each).
    """

    def __init__(self, inter_bandwidth_gbps=100.0, inter_latency_s=5e-6,
                 intra_bandwidth_gbps=300.0, intra_latency_s=1e-6,
                 gpus_per_machine=6):
        self.inter_bandwidth = inter_bandwidth_gbps * 1e9 / 8  # bytes/s
        self.inter_latency = inter_latency_s
        self.intra_bandwidth = intra_bandwidth_gbps * 1e9 / 8
        self.intra_latency = intra_latency_s
        self.gpus_per_machine = gpus_per_machine

    def allreduce_seconds(self, num_bytes, workers):
        if workers <= 1:
            return 0.0
        if workers <= self.gpus_per_machine:
            bandwidth, latency = self.intra_bandwidth, self.intra_latency
        else:
            # The ring crosses machines: the slowest link dominates.
            bandwidth, latency = self.inter_bandwidth, self.inter_latency
        steps = 2 * (workers - 1)
        volume = 2.0 * (workers - 1) / workers * num_bytes
        return steps * latency + volume / bandwidth
