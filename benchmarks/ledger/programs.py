"""The programs and seeded inputs the ledger measures.

Everything a workload runs is built here, so no file outside this
directory can change a workload.  Model sizes are those of
``benchmarks/harness.py``; the batch builders are copies of its builders
with two changes: every builder takes the run's ``--seed``, and inputs
whose *size* the harness left to the seed (A3C episode length, tree
size) draw from a fixed multiset of sizes, so a seed changes values,
shapes' order and tree topology but not the amount of work in a pass
over the batch list.  Model initialisation is part of the program, not
of the input, and uses :data:`MODEL_SEED` on every run.
"""

import hashlib

import numpy as np

import repro as R
from repro import data, envs, janus, models, nn
from repro.modes import make_step

#: Every model of every run is initialised from this seed, JANUS and
#: oracle alike, so their parameters start identical.
MODEL_SEED = 1


# -- input checksums -----------------------------------------------------------

def _feed(digest, value):
    if isinstance(value, data.TreeNode):
        digest.update(b"(" if value.is_leaf else b"[")
        digest.update(str((value.word, value.label)).encode())
        if not value.is_leaf:
            _feed(digest, value.left)
            _feed(digest, value.right)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(digest, item)
    else:
        if isinstance(value, R.Tensor):
            value = value.numpy()
        arr = np.ascontiguousarray(value)
        digest.update(str((arr.dtype.str, arr.shape)).encode())
        digest.update(arr.tobytes())


def checksum(inputs):
    """Hex digest over generated inputs (arrays, tensors, trees)."""
    digest = hashlib.sha256()
    _feed(digest, inputs)
    return digest.hexdigest()[:16]


# -- training programs ---------------------------------------------------------

class TrainProgram:
    """One Table-3 training program at the harness's CPU scale (README.md
    says why each is here)."""

    def __init__(self, name, make_model, make_loss, make_batches, cycles):
        self.name = name
        self.make_model = make_model
        self.make_loss = make_loss
        self.make_batches = make_batches
        #: Passes over the batch list in one timed block: chosen so a
        #: JANUS block is ~60 ms on the reference host.  A constant, not
        #: a calibration, so every run and every commit times the same
        #: work per block.
        self.cycles = cycles

    def build(self, mode):
        """A step on a fresh model; *mode* is "janus" or "imperative"."""
        model = self.make_model(MODEL_SEED)
        return make_step(self.make_loss(model), nn.SGD(0.01), mode)


def _mnist_batches(seed, n=100, bs=50):
    ds = data.mnist_like(n=n, batch_size=bs, seed=seed)
    return [tuple(b) for b in ds.batches(shuffle=False)][:2]


def _imagenet_batches(seed, n=16, bs=8, size=16):
    ds = data.imagenet_like(n=n, batch_size=bs, image_size=size, seed=seed)
    return [tuple(b) for b in ds.batches(shuffle=False)][:2]


def _ptb_batches(seed, bs=20, seq=10):
    corpus = data.ptb_like(seed=seed)
    return list(corpus.bptt_batches(batch_size=bs, seq_len=seq))[:3]


#: Leaves per tree.  The harness draws 3..9 per tree; here the multiset
#: is fixed (16 trees, 96 leaves) and the seed shuffles it and draws
#: each tree's topology, words and labels.
_TREE_LEAVES = [3, 4, 5, 6, 7, 8, 9] * 2 + [6, 6]


def _build_tree(n_leaves, rng, vocab=60):
    if n_leaves == 1:
        word = int(rng.integers(0, vocab))
        return data.TreeNode(word=word, label=int(word >= vocab // 2))
    n_left = int(rng.integers(1, n_leaves))
    return data.TreeNode(left=_build_tree(n_left, rng, vocab),
                         right=_build_tree(n_leaves - n_left, rng, vocab),
                         label=int(rng.integers(0, 2)))


def _tree_batches(seed):
    rng = np.random.default_rng(seed)
    sizes = list(_TREE_LEAVES)
    rng.shuffle(sizes)
    return [(_build_tree(n, rng),) for n in sizes]


#: Steps per A3C batch.  The harness takes whole CartPole episodes, whose
#: length follows the seed; here transitions from seeded episodes are cut
#: into segments of these lengths (in seeded order).  Lengths differ so
#: the per-step loop keeps a dynamic trip count, as in the harness.
_A3C_SEGMENTS = [14, 18, 22, 26]


def _a3c_batches(seed):
    env = envs.CartPole(seed=seed)
    probe = models.a3c.ActorCritic(seed=seed + 100)
    rng = np.random.RandomState(seed)
    states, actions = [], []
    while sum(len(s) for s in states) < sum(_A3C_SEGMENTS):
        s, a, _returns = models.a3c.collect_episode(probe, env, rng)
        states.append(s)
        actions.append(a)
    states = np.concatenate(states)
    actions = np.concatenate(actions)
    lengths = list(_A3C_SEGMENTS)
    rng.shuffle(lengths)
    batches, start = [], 0
    for n in lengths:
        # Reward 1 per surviving step, discounted within the segment.
        returns = np.cumsum(0.99 ** np.arange(n))[::-1].astype(np.float32)
        batches.append((states[start:start + n].copy(),
                        actions[start:start + n].copy(), returns.copy()))
        start += n
    return batches


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
    return [(images, models.gan_an.sample_latent(rng, bs, 16))]


TRAIN_PROGRAMS = {p.name: p for p in [
    TrainProgram(
        "LSTM",
        lambda seed: models.lstm_ptb.LSTMLanguageModel(
            vocab_size=200, embed_dim=32, hidden_dim=64, batch_size=20,
            seed=seed),
        models.lstm_ptb.make_loss_fn, _ptb_batches, cycles=2),
    TrainProgram(
        "TreeRNN",
        lambda seed: models.treernn.TreeRNN(seed=seed),
        models.treernn.make_loss_fn, _tree_batches, cycles=1),
    TrainProgram(
        "A3C",
        lambda seed: models.a3c.ActorCritic(seed=seed),
        models.a3c.make_loss_fn, _a3c_batches, cycles=1),
    TrainProgram(
        "PPO",
        lambda seed: models.ppo.PPOAgent(seed=seed),
        models.ppo.make_loss_fn, _ppo_batches, cycles=16),
    TrainProgram(
        "AN",
        lambda seed: models.gan_an.AdversarialNets(seed=seed),
        models.gan_an.make_d_loss_fn, _an_batches, cycles=20),
    TrainProgram(
        "LeNet",
        lambda seed: models.lenet.LeNet(seed=seed),
        models.lenet.make_loss_fn, _mnist_batches, cycles=1),
    TrainProgram(
        "ResNet",
        lambda seed: models.resnet.resnet_tiny(seed=seed),
        models.resnet.make_loss_fn, _imagenet_batches, cycles=1),
    TrainProgram(
        "Inception",
        lambda seed: models.inception.InceptionNet(seed=seed),
        models.inception.make_loss_fn, _imagenet_batches, cycles=3),
]}

TRAIN_FINE = ["LSTM", "TreeRNN", "A3C", "PPO", "AN"]
TRAIN_COARSE = ["LeNet", "ResNet", "Inception"]


# -- the serving endpoint ------------------------------------------------------

ROWS, FEATURES = 4, 32
N_REQUESTS = 16


def build_predict():
    """The two-matmul ``predict`` endpoint of ``bench_serving.py``."""
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


def request_tensors(seed):
    rng = np.random.default_rng(seed)
    return [R.constant(rng.normal(size=(ROWS, FEATURES)).astype(np.float32))
            for _ in range(N_REQUESTS)]


def build_noop():
    """A warm one-op function: its call time is the dispatch floor."""
    @janus.function(config=janus.JanusConfig(
        fail_on_not_convertible=True, parallel_execution=False))
    def noop(x):
        return x + 1.0

    return noop


# -- cold-only programs --------------------------------------------------------

#: Side of the square input and weight (the layer count, 24, is a
#: literal in the source because the converter unrolls on it).
CHAIN_FEATURES = 64


def infer_chain(x, w):
    h = x
    for _ in range(24):
        h = R.tanh(h @ w) + h * 0.5
    return R.reduce_sum(h * h)


def build_infer_chain(cache_dir):
    """The pure-tensor forward of ``bench_warm_start.py`` (the one
    program here that is portable to the disk cache), fresh per call."""
    return janus.function(
        infer_chain, config=janus.JanusConfig(cache_dir=cache_dir))


def infer_chain_inputs(seed):
    rng = np.random.RandomState(seed)
    shape = (CHAIN_FEATURES, CHAIN_FEATURES)
    return (rng.rand(*shape).astype(np.float32) * 0.1,
            rng.rand(*shape).astype(np.float32) * 0.1)


_brng = np.random.default_rng(7)
W1 = R.constant(_brng.normal(size=(64, 64)).astype(np.float32) * 0.1)
W2 = R.constant(_brng.normal(size=(64, 64)).astype(np.float32) * 0.1)


def _mix(h, wa, wb):
    h = R.tanh(R.matmul(h, wa))
    return R.tanh(R.matmul(h, wb))


class Knob:
    def __init__(self):
        self.gain = 1.0


def build_branchy():
    """The six-branch knob program of ``bench_regeneration.py``.

    Returns ``(function, knob)``; setting ``knob.gain`` after the graph
    exists breaks the one speculated heap constant.
    """
    knob = Knob()
    cfg = janus.JanusConfig(fail_on_not_convertible=True,
                            parallel_execution=False)

    @janus.function(config=cfg)
    def branchy(x, g0, g1, g2, g3, g4, g5):
        h = R.tanh(x * knob.gain)
        if R.reduce_sum(g0) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g1) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g2) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g3) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g4) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        if R.reduce_sum(g5) > 0.0:
            h = _mix(h, W1, W2)
        else:
            h = _mix(h, W2, W1)
        return R.reduce_sum(h)

    return branchy, knob


def branchy_inputs(seed):
    """``(x, positive gates, negative gates)``."""
    rng = np.random.default_rng(seed)
    x = R.constant(rng.normal(size=(8, 64)).astype(np.float32))

    def gates(sign):
        return [R.constant(np.full((1,), sign, np.float32))
                for _ in range(6)]

    return x, gates(1.0), gates(-1.0)


COLD_PROGRAMS = TRAIN_FINE + TRAIN_COARSE + ["infer_chain", "branchy"]
