"""Shared benchmark harness: model registry, step builders, reporting.

Each entry in :data:`MODEL_BENCHES` wires one of the paper's 11 workloads
(Table 2) at CPU scale: a model factory, its imperative loss function,
representative input batches, and the throughput unit the paper reports
(images/s, words/s, sentences/s, frames/s).
"""

import json
import os
import time

import numpy as np

import repro as R
from repro import janus, nn, data, envs, models
from repro import observability as obs
from repro.modes import make_step

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_WINDOW_SECONDS = obs.METRICS.histogram(
    "janus_bench_window_seconds", "Measured benchmark windows.",
    labels=("workload",))


def save_results(name, payload):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if obs.trace_level() and isinstance(payload, dict):
        # Tracing was on for this benchmark run: embed the metrics
        # registry and write the chrome trace next to the JSON results.
        payload = dict(payload)
        payload["observability"] = obs.METRICS.snapshot()
        obs.write_chrome_trace(os.path.join(RESULTS_DIR,
                                            name + ".trace.json"))
    path = os.path.join(RESULTS_DIR, name + ".json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
    return path


class BenchSpec:
    """One benchmarkable workload."""

    def __init__(self, name, category, unit, make_model, make_loss,
                 make_batches, items_per_batch, lr=0.01,
                 dynamic_features=("DT",)):
        self.name = name
        self.category = category
        self.unit = unit
        self.make_model = make_model
        self.make_loss = make_loss
        self.make_batches = make_batches
        self.items_per_batch = items_per_batch
        self.lr = lr
        self.dynamic_features = dynamic_features

    def build(self, mode, seed=1, config=None, parallel=True):
        """(step, batches) for one execution mode; fresh model + optimizer."""
        model = self.make_model(seed)
        loss_fn = self.make_loss(model)
        step = make_step(loss_fn, nn.SGD(self.lr), mode, config=config,
                         parallel=parallel)
        batches = self.make_batches(seed)
        return step, batches, model


def _mnist_batches(seed, n=100, bs=50):
    ds = data.mnist_like(n=n, batch_size=bs, seed=seed)
    return [tuple(b) for b in ds.batches(shuffle=False)][:2]


def _imagenet_batches(seed, n=16, bs=8, size=16):
    ds = data.imagenet_like(n=n, batch_size=bs, image_size=size, seed=seed)
    return [tuple(b) for b in ds.batches(shuffle=False)][:2]


def _ptb_batches(seed, bs=20, seq=10):
    corpus = data.ptb_like(seed=seed)
    return list(corpus.bptt_batches(batch_size=bs, seq_len=seq))[:3]


def _lm_batches(seed, bs=32, seq=8):
    corpus = data.one_billion_like(seed=seed)
    return list(corpus.bptt_batches(batch_size=bs, seq_len=seq))[:3]


def _tree_batches(seed, n=64):
    # A realistic corpus streams *novel* trees; a symbolic (TF-1-style)
    # implementation pays a graph build per unseen structure.  Enough
    # distinct trees keeps that cost visible in the measurement window.
    return [(t,) for t in data.sst_like(n_trees=n, seed=seed)]


def _a3c_batches(seed, n=4):
    env = envs.CartPole(seed=seed)
    probe = models.a3c.ActorCritic(seed=seed + 100)
    rng = np.random.RandomState(seed)
    return [models.a3c.collect_episode(probe, env, rng) for _ in range(n)]


def _ppo_batches(seed, n=2, horizon=64):
    env = envs.PongLite(seed=seed)
    probe = models.ppo.PPOAgent(seed=seed + 100)
    rng = np.random.RandomState(seed)
    return [models.ppo.collect_rollout(probe, env, rng,
                                       horizon=horizon)[:5]
            for _ in range(n)]


def _an_batches(seed, bs=64):
    ds = data.mnist_like(n=bs, batch_size=bs, seed=seed)
    images = next(iter(ds.batches(shuffle=False)))[0]
    rng = np.random.RandomState(seed)
    z = models.gan_an.sample_latent(rng, bs, 16)
    return [(images, z)]


def _p2p_batches(seed, n=2):
    ds = data.facades_like(n=n, batch_size=1, image_size=16, seed=seed)
    return [tuple(b) for b in ds.batches(shuffle=False)]


def _an_model(seed):
    return models.gan_an.AdversarialNets(seed=seed)


MODEL_BENCHES = {
    "LeNet": BenchSpec(
        "LeNet", "CNN", "images/s",
        lambda seed: models.lenet.LeNet(seed=seed),
        models.lenet.make_loss_fn,
        _mnist_batches, items_per_batch=50,
        dynamic_features=("DT",)),
    "ResNet": BenchSpec(
        "ResNet", "CNN", "images/s",
        lambda seed: models.resnet.resnet_tiny(seed=seed),
        models.resnet.make_loss_fn,
        _imagenet_batches, items_per_batch=8,
        dynamic_features=("DCF", "DT")),
    "Inception": BenchSpec(
        "Inception", "CNN", "images/s",
        lambda seed: models.inception.InceptionNet(seed=seed),
        models.inception.make_loss_fn,
        _imagenet_batches, items_per_batch=8,
        dynamic_features=("DCF", "DT")),
    "LSTM": BenchSpec(
        "LSTM", "RNN", "words/s",
        lambda seed: models.lstm_ptb.LSTMLanguageModel(
            vocab_size=200, embed_dim=32, hidden_dim=64, batch_size=20,
            seed=seed),
        models.lstm_ptb.make_loss_fn,
        _ptb_batches, items_per_batch=20 * 10,
        dynamic_features=("DCF", "DT", "IF")),
    "LM": BenchSpec(
        "LM", "RNN", "words/s",
        lambda seed: models.lm1b.BigLanguageModel(
            vocab_size=800, embed_dim=64, hidden_dim=128, batch_size=32,
            seed=seed),
        models.lm1b.make_loss_fn,
        _lm_batches, items_per_batch=32 * 8,
        dynamic_features=("DCF", "DT", "IF")),
    "TreeRNN": BenchSpec(
        "TreeRNN", "TreeNN", "sentences/s",
        lambda seed: models.treernn.TreeRNN(seed=seed),
        models.treernn.make_loss_fn,
        _tree_batches, items_per_batch=1,
        dynamic_features=("DCF", "DT", "IF")),
    "TreeLSTM": BenchSpec(
        "TreeLSTM", "TreeNN", "sentences/s",
        lambda seed: models.treelstm.TreeLSTM(seed=seed),
        models.treelstm.make_loss_fn,
        _tree_batches, items_per_batch=1,
        dynamic_features=("DCF", "DT", "IF")),
    "A3C": BenchSpec(
        "A3C", "DRL", "frames/s",
        lambda seed: models.a3c.ActorCritic(seed=seed),
        models.a3c.make_loss_fn,
        _a3c_batches, items_per_batch=None,   # per-episode length
        dynamic_features=("DCF", "DT", "IF")),
    "PPO": BenchSpec(
        "PPO", "DRL", "frames/s",
        lambda seed: models.ppo.PPOAgent(seed=seed),
        models.ppo.make_loss_fn,
        _ppo_batches, items_per_batch=64,
        dynamic_features=("DT", "IF")),
    "AN": BenchSpec(
        "AN", "GAN", "images/s",
        _an_model,
        models.gan_an.make_d_loss_fn,
        _an_batches, items_per_batch=64,
        dynamic_features=("DT", "IF")),
    "pix2pix": BenchSpec(
        "pix2pix", "GAN", "images/s",
        lambda seed: models.pix2pix.Pix2Pix(image_size=16, seed=seed),
        models.pix2pix.make_g_loss_fn,
        _p2p_batches, items_per_batch=1,
        dynamic_features=("DT", "IF")),
}

#: Order matching paper Table 3.
MODEL_ORDER = ["LeNet", "ResNet", "Inception", "LSTM", "LM", "TreeRNN",
               "TreeLSTM", "A3C", "PPO", "AN", "pix2pix"]


def items_in(spec, batch):
    if spec.items_per_batch is not None:
        return spec.items_per_batch
    # A3C: frames per episode = episode length
    return len(batch[1])


def measure_throughput(step, batches, spec, warmup=4, iters=8,
                       min_seconds=0.6):
    """Items/second of a training step over the batch cycle.

    Runs for at least ``min_seconds`` (and ``iters`` steps) with the
    garbage collector paused, which keeps single-core measurements stable
    enough to compare executors.
    """
    import gc
    for i in range(warmup):
        step(*batches[i % len(batches)])
    gc.collect()
    gc.disable()
    try:
        total_items = 0
        count = 0
        with obs.TRACER.span("bench", spec.name):
            start = time.perf_counter()
            while count < iters or \
                    time.perf_counter() - start < min_seconds:
                batch = batches[count % len(batches)]
                step(*batch)
                total_items += items_in(spec, batch)
                count += 1
                if count > 10000:
                    break
            elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if obs.trace_level():
        obs.COUNTERS.labels("bench.%s.steps" % spec.name).inc(count)
        _WINDOW_SECONDS.labels(spec.name).observe(elapsed)
    return total_items / elapsed


def format_table(headers, rows, title=None):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w)
                           for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)
