import numpy as np
import numpy.testing as npt
import pytest

import mlenn.training
from mlenn.metrics import bce_loss
from mlenn.network import ENCODINGS, TOPOLOGIES, NetworkSpec, build_network
from mlenn.numerics import ConfigError, RngStream
from mlenn.optim import STOCHASTIC_POOL
from mlenn.training import TrainConfig, assign_optimizers, make_optimizer_states, train_network

from gradcheck import numeric_gradient
from synth import banded_task, logistic_regression_bce, separable_task


def small_net(seed=0, topology="GRU_A", n_labels=3, **kw):
    kw.setdefault("hidden_units", 4)
    kw.setdefault("tcn_filters", 5)
    kw.setdefault("tcn_blocks", 2)
    spec = NetworkSpec(topology=topology, n_labels=n_labels, **kw)
    return build_network(spec, RngStream(seed))


def adam(net):
    return assign_optimizers(net, "adam", RngStream(0))


class TestTrainConfig:
    def test_epoch_resolution_by_family(self):
        cfg = TrainConfig()
        assert cfg.resolve_epochs("GRU_A") == 150
        assert cfg.resolve_epochs("GRU_B") == 150
        assert cfg.resolve_epochs("GRU_TCN") == 150
        assert cfg.resolve_epochs("TCN_A") == 100
        assert cfg.resolve_epochs("TCN_B") == 100

    def test_explicit_epochs_win(self):
        assert TrainConfig(epochs=7).resolve_epochs("TCN_A") == 7

    def test_protocol_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.rho1 == 0.5
        assert cfg.rho2 == 0.999
        assert cfg.clip_threshold == 1.0
        assert cfg.minibatch == 30
        assert cfg.members == 10
        assert cfg.optimizer == "stochastic"

    def test_validation(self):
        with pytest.raises(ConfigError, match="field learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="field rho1"):
            TrainConfig(rho1=1.0)


class TestOptimizerAssignment:
    def test_stochastic_draw_is_reproducible(self):
        net = small_net()
        a = assign_optimizers(net, "stochastic", RngStream(5))
        b = assign_optimizers(net, "stochastic", RngStream(5))
        assert a == b
        assert set(a) == {"gru", "out_dense"}

    def test_single_layer_gets_exactly_one_tag(self):
        net = small_net()
        tags = assign_optimizers(net, "stochastic", RngStream(1))
        assert len(tags) == len(net.trainable_layers())

    def test_draws_are_uniform(self):
        net = small_net(topology="TCN_A")  # several trainable layers
        counts = {v: 0 for v in STOCHASTIC_POOL}
        rng = RngStream(9)
        draws = 0
        for _ in range(1000):
            for tag in assign_optimizers(net, "stochastic", rng.child(draws)).values():
                counts[tag] += 1
                draws += 1
        total = sum(counts.values())
        for v, c in counts.items():
            assert abs(c / total - 0.25) < 0.02, (v, c / total)

    def test_fixed_assignment(self):
        net = small_net()
        tags = assign_optimizers(net, "exp", RngStream(0))
        assert tags == {"gru": "exp", "out_dense": "exp"}
        with pytest.raises(ValueError, match="unknown optimizer variant 'sgd'"):
            assign_optimizers(net, "sgd", RngStream(0))

    def test_fixed_policy_draws_nothing(self):
        # Member streams must not move when a fixed policy replaces the draw.
        rng = RngStream(3)
        assign_optimizers(small_net(topology="TCN_A"), "sto", rng)
        assert rng.integers(1 << 30) == RngStream(3).integers(1 << 30)

    def test_states_cover_every_parameter_tensor(self):
        net = small_net(topology="GRU_B")
        tags = assign_optimizers(net, "sto", RngStream(0))
        states = make_optimizer_states(net, tags, TrainConfig(), RngStream(2))
        assert set(states) == {key for key, _ in net.param_items()}
        for state in states.values():
            assert state.rng is not None  # sto needs its own stream


class TestTrainNetwork:
    def test_zero_epochs_leaves_network_unchanged(self):
        net = small_net(seed=3)
        before = {k: a.copy() for k, a in net.param_items()}
        x, y = separable_task(0, n=40)
        losses = train_network(net, x, y, TrainConfig(epochs=0), RngStream(0), adam(net))
        assert losses == []
        for key, arr in net.param_items():
            npt.assert_array_equal(arr, before[key])

    def test_separable_task_reaches_low_loss(self):
        x, y = separable_task(123)
        oracle = logistic_regression_bce(x, y)
        assert oracle < 0.1  # a linear model nails the task
        net = build_network(NetworkSpec(topology="GRU_A", n_labels=3), RngStream(0))
        losses = train_network(net, x, y, TrainConfig(epochs=30), RngStream(1), adam(net))
        assert losses[-1] < 0.15

    def test_loss_mostly_decreases_early(self):
        x, y = separable_task(7)
        net = build_network(NetworkSpec(topology="GRU_A", n_labels=3), RngStream(2))
        losses = train_network(net, x, y, TrainConfig(epochs=5), RngStream(3), adam(net))
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert violations <= 1

    def test_training_is_deterministic(self):
        x, y = separable_task(11, n=60)

        def run():
            net = small_net(seed=4)
            train_network(net, x, y, TrainConfig(epochs=3), RngStream(5), adam(net))
            return {k: a.copy() for k, a in net.param_items()}

        a, b = run(), run()
        for key in a:
            npt.assert_array_equal(a[key], b[key])

    def test_stochastic_tags_train(self):
        x, y = separable_task(13, n=60)
        net = small_net(seed=6)
        tags = assign_optimizers(net, "stochastic", RngStream(7))
        losses = train_network(net, x, y, TrainConfig(epochs=4), RngStream(8),
                               optimizer_tags=tags)
        assert losses[-1] < losses[0]

    def test_sample_weights_accepted(self):
        x, y = separable_task(17, n=60)
        weights = np.ones(60)
        weights[:10] = 0.0
        net = small_net(seed=9)
        losses = train_network(net, x, y, TrainConfig(epochs=2), RngStream(10), adam(net),
                               sample_weights=weights)
        assert len(losses) == 2

    @pytest.mark.parametrize("topology", ["TCN_A", "GRU_TCN"])
    def test_other_topologies_train_one_epoch(self, topology):
        x, y = separable_task(19, n=45)
        net = small_net(seed=11, topology=topology)
        losses = train_network(net, x, y, TrainConfig(epochs=1), RngStream(12), adam(net))
        assert len(losses) == 1 and np.isfinite(losses[0])


class TestWholeNetworkGradient:
    """Each gradient that reaches the optimizer during one full-batch step
    matches central differences of the weighted loss through the whole
    network, tensor by tensor in the order the optimizer takes them."""

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_optimizer_receives_exact_gradients(self, topology, encoding, monkeypatch):
        x, y = banded_task(21, 4, 5, 3)
        weights = np.array([1.0, 0.5, 0.0, 2.0])
        spec = NetworkSpec(topology=topology, n_labels=3, hidden_units=3, tcn_filters=4,
                           tcn_blocks=2, dropout_p=0.0, input_encoding=encoding, input_dim=5)

        seen = []
        step = mlenn.training.optimizer_step

        def spy(state, arr, grad):
            seen.append((arr, grad.copy()))
            return step(state, arr, grad)

        monkeypatch.setattr(mlenn.training, "optimizer_step", spy)
        net = build_network(spec, RngStream(1))
        cfg = TrainConfig(epochs=1, minibatch=4, clip_threshold=1e9)
        train_network(net, x, y, cfg, RngStream(2), adam(net), sample_weights=weights)

        # Earlier tensors are updated before later ones reach the optimizer,
        # so the differences are taken on a twin with the initial weights,
        # fed the rows in the order the step drew them.
        twin = build_network(spec, RngStream(1))
        order = RngStream(2).permutation(4)

        def loss():
            scores = twin.forward(x[order], train=True)
            return bce_loss(y[order], scores, weights[order])[0]

        params = net.param_items()
        assert len(seen) == len(params)
        for (arr, grad), (key, live), (_, initial) in zip(seen, params, twin.param_items()):
            assert arr is live, key
            numeric = numeric_gradient(loss, initial)
            # Norm-wise, so that one near-zero entry does not decide; the
            # floor lets a tensor whose exact gradient is zero (GRU_B's
            # pre_conv bias, the recurrent weights at T = 1) pass on
            # rounding noise alone.
            scale = max(np.linalg.norm(grad), np.linalg.norm(numeric), 1e-4)
            assert np.linalg.norm(grad - numeric) / scale < 1e-5, key
