"""All 11 evaluation models: JANUS conversion parity with imperative.

For each model of paper Table 2 the same training step runs under JANUS
and under pure imperative execution; the loss trajectories must coincide
and the JANUS path must actually execute generated graphs.
"""

import numpy as np
import pytest

import repro as R
from repro import janus, nn, data, envs, models
from repro.modes import make_step

from progen import assert_arguments_prechecked


def strict():
    return janus.JanusConfig(fail_on_not_convertible=True)


def run_pair(make_model_and_loss, batches, n=6, rtol=1e-3):
    jm, j_loss = make_model_and_loss(seed=1)
    j_step = make_step(j_loss, nn.SGD(0.01), "janus", config=strict())
    j_losses = []
    for i in range(n):
        out = j_step(*batches[i % len(batches)])
        j_losses.append(float(np.asarray(
            out.numpy() if hasattr(out, "numpy") else out)))
    assert not j_step.imperative_only, j_step.not_convertible_reason
    assert j_step.stats["graph_runs"] > 0, j_step.cache_stats()
    # The step's tensor arguments are checked at cache retrieval only.
    entries = j_step.cache.entries()
    assert entries
    for _sig, entry in entries:
        assert_arguments_prechecked(entry)

    im, i_loss = make_model_and_loss(seed=1)
    i_step = make_step(i_loss, nn.SGD(0.01), "imperative")
    i_losses = []
    for i in range(n):
        out = i_step(*batches[i % len(batches)])
        i_losses.append(float(np.asarray(
            out.numpy() if hasattr(out, "numpy") else out)))
    np.testing.assert_allclose(j_losses, i_losses, rtol=rtol, atol=1e-4)
    return j_step


@pytest.fixture(scope="module")
def rng():
    return np.random.RandomState(0)


class TestCNNs:
    def test_lenet(self):
        ds = data.mnist_like(n=64, batch_size=32)
        batches = list(ds.batches(shuffle=False))[:2]
        run_pair(lambda seed: _with_loss(models.lenet.LeNet(seed=seed),
                                         models.lenet.make_loss_fn),
                 batches)

    def test_resnet_with_batchnorm_branch(self):
        ds = data.imagenet_like(n=24, batch_size=12, image_size=16)
        batches = list(ds.batches(shuffle=False))[:2]
        step = run_pair(
            lambda seed: _with_loss(models.resnet.resnet_tiny(seed=seed),
                                    models.resnet.make_loss_fn),
            batches)

    def test_inception(self):
        ds = data.imagenet_like(n=24, batch_size=12, image_size=16)
        batches = list(ds.batches(shuffle=False))[:2]
        run_pair(lambda seed: _with_loss(
            models.inception.InceptionNet(seed=seed),
            models.inception.make_loss_fn), batches)

    def test_resnet_eval_mode_uses_moving_stats(self):
        """Flipping train->eval must not silently reuse the train graph."""
        ds = data.imagenet_like(n=12, batch_size=12, image_size=16)
        images, labels = next(iter(ds.batches(shuffle=False)))
        model = models.resnet.resnet_tiny(seed=3)

        @janus.function(config=strict())
        def predict(x):
            return model(x)

        nn.set_training(model, True)
        for _ in range(5):
            train_logits = predict(images)
        nn.set_training(model, False)
        eval_logits = predict(images)
        # eval uses moving statistics -> different result than training
        assert not np.allclose(train_logits.numpy(),
                               eval_logits.numpy())
        # and matches pure imperative evaluation
        ref = model(R.constant(images))
        np.testing.assert_allclose(eval_logits.numpy(), ref.numpy(),
                                   rtol=1e-4, atol=1e-5)


class TestRNNs:
    def test_lstm_ptb(self):
        corpus = data.ptb_like()
        batches = list(corpus.bptt_batches(batch_size=8, seq_len=6))[:3]
        run_pair(lambda seed: _with_loss(
            models.lstm_ptb.LSTMLanguageModel(
                vocab_size=200, embed_dim=16, hidden_dim=16,
                batch_size=8, seed=seed),
            models.lstm_ptb.make_loss_fn), batches)

    def test_lm(self):
        corpus = data.one_billion_like()
        batches = list(corpus.bptt_batches(batch_size=16, seq_len=4))[:2]
        run_pair(lambda seed: _with_loss(
            models.lm1b.BigLanguageModel(
                vocab_size=800, embed_dim=16, hidden_dim=32,
                batch_size=16, seed=seed),
            models.lm1b.make_loss_fn), batches)

    def test_lstm_state_passes_across_batches(self):
        corpus = data.ptb_like()
        batches = list(corpus.bptt_batches(batch_size=4, seq_len=5))[:4]
        model = models.lstm_ptb.LSTMLanguageModel(
            vocab_size=200, embed_dim=8, hidden_dim=8, batch_size=4,
            seed=2)

        @janus.function(config=strict())
        def step(x, y):
            return model(x, y)

        states = []
        for i in range(6):
            step(*batches[i % len(batches)])
            states.append(model.state_h.numpy().copy())
        # Hidden state evolves across calls (graph commits write it back).
        assert not np.allclose(states[0], states[-1])


class TestTreeNNs:
    def test_treernn(self):
        trees = data.sst_like(n_trees=6, seed=3)
        run_pair(lambda seed: _with_loss(
            models.treernn.TreeRNN(seed=seed),
            models.treernn.make_loss_fn),
            [(t,) for t in trees])

    def test_treelstm(self):
        trees = data.sst_like(n_trees=6, seed=3)
        run_pair(lambda seed: _with_loss(
            models.treelstm.TreeLSTM(seed=seed),
            models.treelstm.make_loss_fn),
            [(t,) for t in trees])

    def test_single_graph_covers_all_trees(self):
        trees = data.sst_like(n_trees=12, seed=5)
        model = models.treernn.TreeRNN(seed=1)
        step = make_step(models.treernn.make_loss_fn(model), nn.SGD(0.01),
                         "janus", config=strict())
        for t in trees:
            step(t)
        assert step.cache_stats()["entries"] == 1


class TestDRL:
    def test_a3c(self, rng):
        env = envs.CartPole(seed=0)
        probe = models.a3c.ActorCritic(seed=9)
        episodes = [models.a3c.collect_episode(probe, env, rng)
                    for _ in range(4)]
        run_pair(lambda seed: _with_loss(
            models.a3c.ActorCritic(seed=seed),
            models.a3c.make_loss_fn), episodes)

    def test_ppo(self, rng):
        env = envs.PongLite(seed=0)
        probe = models.ppo.PPOAgent(seed=11)
        rollouts = [models.ppo.collect_rollout(probe, env, rng,
                                               horizon=16)[:5]
                    for _ in range(2)]
        run_pair(lambda seed: _with_loss(
            models.ppo.PPOAgent(seed=seed),
            models.ppo.make_loss_fn), rollouts)

    def test_a3c_heap_telemetry_updates(self, rng):
        env = envs.CartPole(seed=1)
        model = models.a3c.ActorCritic(seed=4)
        step = make_step(models.a3c.make_loss_fn(model), nn.SGD(0.01),
                         "janus", config=strict())
        episodes = [models.a3c.collect_episode(model, env, rng)
                    for _ in range(5)]
        for ep in episodes:
            step(*ep)
        # `steps_trained` mutated through deferred heap writes.
        assert float(np.asarray(
            model.steps_trained.numpy()
            if hasattr(model.steps_trained, "numpy")
            else model.steps_trained)) == len(episodes)


class TestGANs:
    def test_an_discriminator_and_generator(self, rng):
        ds = data.mnist_like(n=32, batch_size=16)
        images = next(iter(ds.batches(shuffle=False)))[0]
        z = models.gan_an.sample_latent(rng, 16, 16)

        def make_d(seed):
            gan = models.gan_an.AdversarialNets(seed=seed)
            return gan, models.gan_an.make_d_loss_fn(gan)

        run_pair(make_d, [(images, z)])

        gan = models.gan_an.AdversarialNets(seed=7)
        g_step = make_step(models.gan_an.make_g_loss_fn(gan), nn.SGD(0.01),
                           "janus", config=strict())
        for _ in range(6):
            g_step(z)
        assert g_step.stats["graph_runs"] > 0

    def test_pix2pix(self):
        ds = data.facades_like(n=4, batch_size=1, image_size=16)
        batches = list(ds.batches(shuffle=False))[:2]

        def make_g(seed):
            model = models.pix2pix.Pix2Pix(image_size=16, seed=seed)
            return model, models.pix2pix.make_g_loss_fn(model)

        run_pair(make_g, batches)


def _with_loss(model, loss_factory):
    return model, loss_factory(model)
