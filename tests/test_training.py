import contextlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlenn
import mlenn.layers
import mlenn.training
from mlenn.layers import Dense, Gru, MaxPoolTime, Sigmoid
from mlenn.metrics import bce_loss
from mlenn.network import ENCODINGS, TOPOLOGIES, Network, NetworkSpec, build_network
from mlenn.numerics import ConfigError, RngStream
from mlenn.optim import STOCHASTIC_POOL, VARIANTS
from mlenn.training import TrainConfig, assign_optimizers, make_optimizer_states, train_network

import oracles
from gradcheck import numeric_gradient
from synth import banded_task, logistic_regression_bce, separable_task


def small_net(seed=0, topology="GRU_A", n_labels=3, **kw):
    kw.setdefault("hidden_units", 4)
    kw.setdefault("tcn_filters", 5)
    kw.setdefault("tcn_blocks", 2)
    spec = NetworkSpec(topology=topology, n_labels=n_labels, **kw)
    return build_network(spec, RngStream(seed))


def adam(net):
    """``net`` with Adam on every trainable layer."""
    net.optimizer_tags = assign_optimizers(net, "adam", RngStream(0))
    return net


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
        # One state per trainable layer over its parameter vector, one
        # segment per tensor in the order the vector holds them, and for
        # sto one stream per tensor, keyed by its position in param_items.
        net = small_net(topology="GRU_B")
        net.optimizer_tags = assign_optimizers(net, "sto", RngStream(0))
        states = make_optimizer_states(net, TrainConfig(), RngStream(2))
        keys = [key for key, _ in net.param_items()]
        seen = []
        for layer, state in zip(net.trainable_layers(), states, strict=True):
            assert state.variant == "sto"
            assert state.m.shape == layer.param_vector.shape
            by_start = {start: (key, stop) for key, start, stop, _ in layer.spans}
            assert len(state.streams) == len(state.sizes) == len(layer.PARAMS)
            for start, size, stream in zip(state.starts, state.sizes, state.streams):
                key, stop = by_start[start]
                assert stop - start == size
                index = keys.index(f"{layer.name}.{key}")
                assert stream.stream_id == RngStream(2).child(5000 + index).stream_id
                seen.append(index)
        assert sorted(seen) == list(range(len(keys)))


class TestTrainNetwork:
    def test_zero_epochs_leaves_network_unchanged(self):
        net = small_net(seed=3)
        before = {k: a.copy() for k, a in net.param_items()}
        x, y = separable_task(0, n=40)
        losses = train_network(adam(net), x, y, TrainConfig(epochs=0), RngStream(0))
        assert losses == []
        for key, arr in net.param_items():
            npt.assert_array_equal(arr, before[key])

    def test_separable_task_reaches_low_loss(self):
        x, y = separable_task(123)
        oracle = logistic_regression_bce(x, y)
        assert oracle < 0.1  # a linear model nails the task
        net = build_network(NetworkSpec(topology="GRU_A", n_labels=3), RngStream(0))
        losses = train_network(adam(net), x, y, TrainConfig(epochs=30), RngStream(1))
        assert losses[-1] < 0.15

    def test_loss_mostly_decreases_early(self):
        x, y = separable_task(7)
        net = build_network(NetworkSpec(topology="GRU_A", n_labels=3), RngStream(2))
        losses = train_network(adam(net), x, y, TrainConfig(epochs=5), RngStream(3))
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert violations <= 1

    def test_training_is_deterministic(self):
        x, y = separable_task(11, n=60)

        def run():
            net = small_net(seed=4)
            train_network(adam(net), x, y, TrainConfig(epochs=3), RngStream(5))
            return {k: a.copy() for k, a in net.param_items()}

        a, b = run(), run()
        for key in a:
            npt.assert_array_equal(a[key], b[key])

    def test_stochastic_tags_train(self):
        x, y = separable_task(13, n=60)
        net = small_net(seed=6)
        net.optimizer_tags = assign_optimizers(net, "stochastic", RngStream(7))
        losses = train_network(net, x, y, TrainConfig(epochs=4), RngStream(8))
        assert losses[-1] < losses[0]

    def test_sample_weights_accepted(self):
        x, y = separable_task(17, n=60)
        weights = np.ones(60)
        weights[:10] = 0.0
        net = small_net(seed=9)
        losses = train_network(adam(net), x, y, TrainConfig(epochs=2), RngStream(10),
                               sample_weights=weights)
        assert len(losses) == 2

    def test_untagged_network_is_a_value_error(self):
        # A fresh build_network result has no tags; the error names the
        # first trainable layer without one and what fills them.
        x, y = separable_task(23, n=30)
        net = mlenn.build_network(NetworkSpec(topology="GRU_B", n_labels=3, hidden_units=4,
                                              tcn_filters=5), RngStream(0))
        with pytest.raises(ValueError, match="'pre_conv' has no optimizer tag.*assign_optimizers"):
            mlenn.train_network(net, x, y, TrainConfig(epochs=1), RngStream(1))
        net.optimizer_tags = {"pre_conv": "adam"}
        with pytest.raises(ValueError, match="'pre_bn' has no optimizer tag"):
            mlenn.train_network(net, x, y, TrainConfig(epochs=1), RngStream(1))

    @pytest.mark.parametrize("topology", ["TCN_A", "GRU_TCN"])
    def test_other_topologies_train_one_epoch(self, topology):
        x, y = separable_task(19, n=45)
        net = small_net(seed=11, topology=topology)
        losses = train_network(adam(net), x, y, TrainConfig(epochs=1), RngStream(12))
        assert len(losses) == 1 and np.isfinite(losses[0])


class TestWholeNetworkGradient:
    """Each gradient that reaches the optimizer during one full-batch step
    matches central differences of the weighted loss through the whole
    network, tensor by tensor in param_items order, after each per-layer
    gradient vector is split back into its tensors, with dropout off and
    on."""

    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_optimizer_receives_exact_gradients(self, topology, encoding, dropout_p):
        self._check(topology, encoding, dropout_p, build_seed=1, train_seed=2, batch=4)

    # The same oracle over the seeds and B = 1, 2, 5, without dropout: a
    # dropped row meets a zero-initialised conv bias at ReLU's kink exactly,
    # where central differences give half the slope. A norm floor of 1e-3
    # admits the ~1e-9 rounding noise of the differences on tensors whose
    # exact gradient is near zero. Derandomized: about one uniform draw in
    # several hundred sits within a step of a max-pool tie or on a
    # near-degenerate batchnorm, where the differences themselves are off.
    @pytest.mark.parametrize("topology", ["GRU_A", "TCN_A"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(encoding=st.sampled_from(ENCODINGS), build_seed=st.integers(0, 2**31 - 1),
           train_seed=st.integers(0, 2**31 - 1), batch=st.sampled_from([1, 2, 5]))
    def test_exact_over_seeds_and_batch_sizes(self, topology, encoding, build_seed,
                                              train_seed, batch):
        self._check(topology, encoding, 0.0, build_seed, train_seed, batch, floor=1e-3)

    # The tensors whose exact gradient is 0 in the step of the oracle's
    # first test. GRU_B's pre_conv bias feeds batchnorm, which subtracts it
    # again. GRU_TCN's block1_conv1 bias meets ReLUs that are, per channel,
    # active on every position of this batch (and then batchnorm cancels
    # it) or on none. In the single-step encoding (T = 1, h_0 = 0) the
    # GRU's recurrences and its reset gate never reach the output. The
    # batchnorm cancellations leave rounding noise (~1e-15), hence the
    # relative bound.
    SINGLE_STEP_GRU = {"gru.uz", "gru.wr", "gru.ur", "gru.br", "gru.uh"}
    DEAD = {
        ("GRU_A", "single-step"): SINGLE_STEP_GRU,
        ("GRU_B", "sequence-of-scalars"): {"pre_conv.bias"},
        ("GRU_B", "single-step"): SINGLE_STEP_GRU | {"pre_conv.bias"},
        ("GRU_TCN", "sequence-of-scalars"): {"block1_conv1.bias"},
        ("GRU_TCN", "single-step"): SINGLE_STEP_GRU | {"block1_conv1.bias"},
    }

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_dead_parameter_census(self, topology, encoding):
        net, pieces, _ = self._step(topology, encoding, 0.0, build_seed=1, train_seed=2, batch=4)
        largest = max(np.abs(grad).max() for _, grad in pieces)
        dead = {key for (key, _), (_, grad) in zip(net.param_items(), pieces)
                if np.abs(grad).max() <= 1e-12 * largest}
        assert dead == self.DEAD.get((topology, encoding), set())

    @staticmethod
    def _task(batch):
        x, y = banded_task(21, batch, 5, 3)
        return x, y, np.array([1.0, 0.5, 0.0, 2.0, 1.5])[:batch]

    @classmethod
    def _step(cls, topology, encoding, dropout_p, build_seed, train_seed, batch):
        """One full-batch ``train_network`` step; returns the network, the
        (live tensor, gradient) pairs the optimizer received in
        ``param_items`` order, and the spec."""
        x, y, weights = cls._task(batch)
        spec = NetworkSpec(topology=topology, n_labels=3, hidden_units=3, tcn_filters=4,
                           tcn_blocks=2, dropout_p=dropout_p, input_encoding=encoding,
                           input_dim=5)

        seen = []
        step = mlenn.training.optimizer_step

        def spy(state, vector, grad):
            seen.append((vector, grad.copy()))
            return step(state, vector, grad)

        net = build_network(spec, RngStream(build_seed))
        cfg = TrainConfig(epochs=1, minibatch=batch, clip_threshold=1e9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mlenn.training, "optimizer_step", spy)
            train_network(adam(net), x, y, cfg, RngStream(train_seed), sample_weights=weights)

        # One call per trainable layer, on the layer's own vector; split the
        # gradient by the layer's spans, checking that each piece of the
        # vector is the live tensor that param_items hands out.
        layers = net.trainable_layers()
        assert len(seen) == len(layers)
        pieces = []
        for layer, (vector, grad) in zip(layers, seen):
            assert vector is layer.param_vector, layer.name
            for key, start, stop, shape in layer.spans:
                live = getattr(layer, key)
                view = vector[start:stop].reshape(shape)
                assert view.__array_interface__ == live.__array_interface__, key
                pieces.append((live, grad[start:stop].reshape(shape)))
            assert sum(stop - start for _, start, stop, _ in layer.spans) == vector.size
        return net, pieces, spec

    @classmethod
    def _check(cls, topology, encoding, dropout_p, build_seed, train_seed, batch, floor=1e-4):
        net, pieces, spec = cls._step(topology, encoding, dropout_p, build_seed, train_seed,
                                      batch)
        x, y, weights = cls._task(batch)

        # Earlier layers are updated before later ones reach the optimizer,
        # so the differences are taken on a twin with the initial weights,
        # fed the rows in the order the step drew them and, from the same
        # stream, the same dropout masks.
        twin = build_network(spec, RngStream(build_seed))

        def loss():
            rng = RngStream(train_seed)
            order = rng.permutation(batch)
            scores = twin.forward(x[order], train=True, rng=rng)
            return bce_loss(y[order], scores, weights[order])[0]

        params = net.param_items()
        assert len(pieces) == len(params)
        for (arr, grad), (key, live), (_, initial) in zip(pieces, params, twin.param_items()):
            assert arr is live, key
            numeric = numeric_gradient(loss, initial)
            # Norm-wise, so that one near-zero entry does not decide; the
            # floor lets a tensor whose exact gradient is zero (GRU_B's
            # pre_conv bias, the recurrent weights at T = 1) pass on
            # rounding noise alone.
            scale = max(np.linalg.norm(grad), np.linalg.norm(numeric), floor)
            assert np.linalg.norm(grad - numeric) / scale < 1e-5, key


class TestPerTensorReference:
    """``train_network`` against the loop in ``oracles``, which keeps one
    optimizer state and makes one step call per parameter tensor: after 2
    epochs with dropout and sample weights, every parameter, buffer and
    loss is equal bit for bit."""

    @pytest.mark.parametrize("policy", ("stochastic",) + VARIANTS)
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_matches_one_step_per_tensor(self, topology, encoding, policy):
        x, y = banded_task(31, 9, 5, 3)
        weights = np.linspace(0.0, 2.0, 9)
        spec = NetworkSpec(topology=topology, n_labels=3, hidden_units=3, tcn_filters=4,
                           tcn_blocks=2, pre_conv_filters=3, dropout_p=0.2,
                           input_encoding=encoding, input_dim=5)
        cfg = TrainConfig(epochs=2, minibatch=3)
        net, ref = build_network(spec, RngStream(4)), build_network(spec, RngStream(4))
        net.optimizer_tags = assign_optimizers(net, policy, RngStream(5))
        losses = train_network(net, x, y, cfg, RngStream(6), sample_weights=weights)
        ref_losses = oracles.train_network(ref, x, y, cfg, RngStream(6), net.optimizer_tags,
                                           sample_weights=weights)
        for (key, arr), (_, expected) in zip(net.param_items() + net.state_items(),
                                             ref.param_items() + ref.state_items(), strict=True):
            assert arr.tobytes() == expected.tobytes(), key
        assert losses == ref_losses

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_reads_the_networks_own_tags(self, topology):
        # No tags argument: each layer trains with its entry in
        # net.optimizer_tags, and a stale positional one is refused.
        x, y = banded_task(32, 9, 5, 3)
        spec = NetworkSpec(topology=topology, n_labels=3, hidden_units=3, tcn_filters=4,
                           tcn_blocks=2, pre_conv_filters=3, dropout_p=0.2, input_dim=5)
        cfg = TrainConfig(epochs=2, minibatch=3)
        net, ref = build_network(spec, RngStream(7)), build_network(spec, RngStream(7))
        net.optimizer_tags = assign_optimizers(net, "stochastic", RngStream(8))
        tags = dict(net.optimizer_tags)
        with pytest.raises(TypeError):
            train_network(net, x, y, cfg, RngStream(9), tags)
        losses = train_network(net, x, y, cfg, RngStream(9))
        assert net.optimizer_tags == tags
        assert losses == oracles.train_network(ref, x, y, cfg, RngStream(9), tags)
        for (key, arr), (_, expected) in zip(net.param_items() + net.state_items(),
                                             ref.param_items() + ref.state_items(), strict=True):
            assert arr.tobytes() == expected.tobytes(), key


def _arrays(obj) -> list:
    """Every ndarray reachable from obj through dicts, sequences, dataclass
    fields and layer attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        return [a for v in obj.values() for a in _arrays(v)]
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in _arrays(v)]
    if hasattr(obj, "__dict__"):
        return _arrays(vars(obj))
    return []


class TestReusedBuffers:
    """Inside ``train_network`` each layer's kernels reuse their own buffers
    from minibatch to minibatch. No buffer is shared between two layers, and
    once the call returns or raises, the exit of its ``reused_buffers``
    scope has left none, nor any gradient, on a layer."""

    @staticmethod
    def _spy(monkeypatch, net, diverge_at=None):
        """Record each layer's workspace at every loss call into ``seen``,
        and each trainable layer's ``grad_vector`` and ``grads`` into
        ``exits`` as the ``reused_buffers`` block ends and as the scope has
        just closed; the loss call numbered ``diverge_at`` returns a NaN
        loss. Returns ``(seen, exits)``."""
        seen, exits = [], []
        loss_fn, scope = mlenn.training.bce_loss, mlenn.training.reused_buffers

        def spy(*args, **kwargs):
            seen.append([dict(layer.workspace) for layer in net.layers])
            loss, grad = loss_fn(*args, **kwargs)
            return (np.nan if len(seen) == diverge_at else loss), grad

        def grads():
            return [(layer.grad_vector, layer.grads) for layer in net.trainable_layers()]

        @contextlib.contextmanager
        def scope_spy(layers):
            try:
                with scope(layers):
                    try:
                        yield
                    finally:
                        exits.append(grads())
            finally:
                exits.append(grads())

        monkeypatch.setattr(mlenn.training, "bce_loss", spy)
        monkeypatch.setattr(mlenn.training, "reused_buffers", scope_spy)
        return seen, exits

    @staticmethod
    def _assert_released(net, seen, exits):
        # The last step's gradients are there when the block ends, and the
        # scope's exit, before train_network goes on, drops them.
        held, released = exits
        assert all(vector is not None and grads for vector, grads in held)
        assert all(vector is None and grads == {} for vector, grads in released)
        buffers = [buf for step in seen for workspace in step for buf in workspace.values()]
        assert buffers
        for layer in net.layers:
            assert layer.workspace is None and layer.cache is None, layer.name
            assert layer.grad_vector is None and layer.grads == {}, layer.name
            for arr in _arrays(layer):
                assert not any(np.shares_memory(arr, buf) for buf in buffers), layer.name

    def test_released_after_training(self, monkeypatch):
        # 10 rows in minibatches of 4 end each epoch on a 2-row minibatch,
        # which takes a prefix of the 4-row buffers.
        x, y = banded_task(33, 10, 5, 3)
        net = small_net(seed=12, topology="GRU_TCN")
        seen, exits = self._spy(monkeypatch, net)
        train_network(adam(net), x, y, TrainConfig(epochs=2, minibatch=4), RngStream(13))
        # The forward's buffers exist from the first loss call on, the
        # backward's from the second; each is the same array throughout.
        gru = [layer.name for layer in net.layers].index("gru")
        assert set(seen[0][gru]) == {"gates", "hs"}
        assert set(seen[-1][gru]) == {"gates", "hs", "g_all", "rh"}
        for step in seen:
            for key, buf in step[gru].items():
                assert buf is seen[-1][gru][key], key
        self._assert_released(net, seen, exits)

    def test_released_when_training_diverges(self, monkeypatch):
        x, y = banded_task(34, 10, 5, 3)
        net = small_net(seed=14, topology="GRU_B")
        seen, exits = self._spy(monkeypatch, net, diverge_at=2)
        with pytest.raises(mlenn.training.TrainingDivergedError):
            train_network(adam(net), x, y, TrainConfig(epochs=2, minibatch=4), RngStream(15))
        assert len(seen) == 2
        self._assert_released(net, seen, exits)

    def test_two_grus_share_no_buffer(self, monkeypatch):
        # Two same-shape GRUs ask for buffers of the same shapes; each gets
        # its own, and the trained weights are those of a run that
        # allocates every buffer fresh.
        def two_gru_net():
            rng = RngStream(16)
            layers = [Gru.glorot("gru1", 4, 1, rng), Gru.glorot("gru2", 4, 4, rng),
                      MaxPoolTime("pool"), Dense.glorot("out_dense", 3, 4, rng),
                      Sigmoid("out_sigmoid")]
            return Network(NetworkSpec(topology="GRU_A", n_labels=3, hidden_units=4), layers)

        x, y = banded_task(35, 10, 5, 3)
        cfg = TrainConfig(epochs=2, minibatch=4)
        fresh = two_gru_net()
        with monkeypatch.context() as m:
            m.setattr(mlenn.training, "reused_buffers", lambda layers: contextlib.nullcontext())
            train_network(adam(fresh), x, y, cfg, RngStream(17))

        net = two_gru_net()
        seen, _ = self._spy(monkeypatch, net)
        train_network(adam(net), x, y, cfg, RngStream(17))
        for step in seen[1:]:
            first, second = step[0].values(), step[1].values()
            assert len(first) == len(second) == 4
            assert not any(np.shares_memory(a, b) for a in first for b in second)
        for (key, arr), (_, expected) in zip(net.param_items(), fresh.param_items(), strict=True):
            assert arr.tobytes() == expected.tobytes(), key

    def test_convs_share_no_memory(self, monkeypatch):
        # In train mode a convolution's output feeds the next layers, its
        # cache waits for backward and its gradient vector for the
        # optimizer, so no array of one may alias any array of another. In
        # TCN_A no convolution feeds another directly, so an output is never
        # another's cache.
        held = {}
        forward, backward = mlenn.layers.conv1d_forward, mlenn.layers.conv1d_backward

        def spy_forward(layer, x, *args):
            y, cache = forward(layer, x, *args)
            held.setdefault(layer.name, []).extend((y, cache))
            return y, cache

        def spy_backward(layer, cache, upstream):
            dx = backward(layer, cache, upstream)
            held[layer.name].append(layer.grad_vector)
            return dx

        monkeypatch.setattr(mlenn.layers, "conv1d_forward", spy_forward)
        monkeypatch.setattr(mlenn.layers, "conv1d_backward", spy_backward)
        x, y = banded_task(36, 10, 5, 3)
        net = small_net(seed=18, topology="TCN_A")
        train_network(adam(net), x, y, TrainConfig(epochs=2, minibatch=4), RngStream(19))
        names = sorted(held)
        assert len(names) == 4
        # 3 minibatches x 2 epochs, each with an output, a cache and a gradient
        assert all(len(held[name]) == 18 for name in names)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                assert not any(np.shares_memory(a, b) for a in held[first]
                               for b in held[second]), (first, second)
