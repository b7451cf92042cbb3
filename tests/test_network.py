import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mlenn.ensemble import SCORE_ROWS, EnsembleModel
from mlenn.harness import RunConfig
from mlenn.layers import CacheError, Dropout, reused_buffers
from mlenn.network import ENCODINGS, TOPOLOGIES, NetworkSpec, build_network, encode_features
from mlenn.numerics import ConfigError, RngStream

import oracles


def small_spec(topology, **kw):
    kw.setdefault("n_labels", 3)
    kw.setdefault("hidden_units", 4)
    kw.setdefault("tcn_filters", 5)
    kw.setdefault("tcn_blocks", 2)
    return NetworkSpec(topology=topology, **kw)


class TestEncoding:
    def test_sequence_of_scalars(self):
        x = np.arange(6.0).reshape(2, 3)
        enc = encode_features(x, "sequence-of-scalars")
        assert enc.shape == (2, 3, 1)
        npt.assert_array_equal(enc[:, :, 0], x)

    def test_single_step(self):
        x = np.arange(6.0).reshape(2, 3)
        enc = encode_features(x, "single-step")
        assert enc.shape == (2, 1, 3)
        npt.assert_array_equal(enc[:, 0, :], x)

    def test_single_step_requires_input_dim(self):
        with pytest.raises(ValueError):
            NetworkSpec(topology="GRU_A", n_labels=2, input_encoding="single-step")


class TestParameterCensus:
    def test_gru_a_closed_form(self):
        # gru: 3 gate groups of (N*D + N*N + N); head: N*l + l
        spec = NetworkSpec(topology="GRU_A", n_labels=14, hidden_units=50)
        net = build_network(spec, RngStream(0))
        expected = 3 * (50 * 1 + 50 * 50 + 50) + (50 * 14 + 14)
        assert expected == 8514
        assert sum(arr.size for _, arr in net.param_items()) == expected

    def test_single_step_changes_input_fan(self):
        spec = NetworkSpec(topology="GRU_A", n_labels=2, hidden_units=3,
                           input_encoding="single-step", input_dim=7)
        net = build_network(spec, RngStream(0))
        expected = 3 * (3 * 7 + 3 * 3 + 3) + (3 * 2 + 2)
        assert sum(arr.size for _, arr in net.param_items()) == expected


class TestTopologyStructure:
    def test_gru_a_layer_names(self):
        net = build_network(small_spec("GRU_A"), RngStream(0))
        assert [l.name for l in net.layers] == ["gru", "pool", "out_dense", "out_sigmoid"]

    def test_gru_b_has_conv_then_batchnorm_before_gru(self):
        net = build_network(small_spec("GRU_B"), RngStream(0))
        assert [l.name for l in net.layers][:3] == ["pre_conv", "pre_bn", "gru"]

    def test_tcn_a_block_layout_and_dilations(self):
        net = build_network(small_spec("TCN_A", tcn_blocks=4), RngStream(0))
        names = [l.name for l in net.layers]
        assert names[:7] == ["block1_conv1", "block1_relu1", "block1_bn1",
                             "block1_conv2", "block1_relu2", "block1_bn2",
                             "block1_dropout"]
        assert names[-3:] == ["head_dense", "pool", "out_sigmoid"]
        dilations = {l.name: l.dilation for l in net.layers if hasattr(l, "dilation")}
        for k in range(1, 5):
            assert dilations[f"block{k}_conv1"] == 2 ** (k - 1)
            assert dilations[f"block{k}_conv2"] == 2 ** (k - 1)

    def test_tcn_b_adds_front_conv(self):
        net = build_network(small_spec("TCN_B"), RngStream(0))
        assert net.layers[0].name == "pre_conv"
        assert net.layers[1].name == "block1_conv1"

    def test_gru_tcn_sequences_the_two_stages(self):
        net = build_network(small_spec("GRU_TCN"), RngStream(0))
        names = [l.name for l in net.layers]
        assert names[:3] == ["gru", "gru_dense", "gru_sigmoid"]
        assert "pool" not in names[:3]  # front stage keeps the time axis
        assert names[-3:] == ["head_dense", "pool", "out_sigmoid"]

    def test_gru_tcn_front_stage_feeds_label_channels(self):
        spec = small_spec("GRU_TCN")
        net = build_network(spec, RngStream(0))
        first_conv = next(l for l in net.layers if l.name == "block1_conv1")
        assert first_conv.kernels.shape[1] == spec.n_labels


class TestForward:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_output_shape_and_range(self, topology):
        spec = small_spec(topology)
        net = build_network(spec, RngStream(1))
        x = np.asarray(RngStream(2).uniform((4, 6)))
        scores = net.forward(x)
        assert scores.shape == (4, 3)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_same_seed_same_parameters(self, topology):
        a = build_network(small_spec(topology), RngStream(77))
        b = build_network(small_spec(topology), RngStream(77))
        for (ka, ta), (kb, tb) in zip(a.param_items(), b.param_items()):
            assert ka == kb
            npt.assert_array_equal(ta, tb)

    def test_different_seeds_differ(self):
        a = build_network(small_spec("GRU_A"), RngStream(1))
        b = build_network(small_spec("GRU_A"), RngStream(2))
        assert any(not np.array_equal(ta, tb)
                   for (_, ta), (_, tb) in zip(a.param_items(), b.param_items()))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_backward_runs_and_matches_shapes(self, topology):
        spec = small_spec(topology)
        net = build_network(spec, RngStream(3))
        rng = RngStream(4)
        x = np.asarray(rng.uniform((2, 5)))
        scores = net.forward(x, train=True, rng=rng)
        net.backward(np.ones_like(scores))
        for layer in net.trainable_layers():
            for tname, arr in layer.param_tensors().items():
                assert layer.grads[tname].shape == arr.shape

    def test_single_step_encoding_forward(self):
        spec = small_spec("GRU_A", input_encoding="single-step", input_dim=6)
        net = build_network(spec, RngStream(5))
        scores = net.forward(np.asarray(RngStream(6).uniform((3, 6))))
        assert scores.shape == (3, 3)


_GRU_KEYS = ["gru.wz", "gru.uz", "gru.bz", "gru.wr", "gru.ur", "gru.br",
             "gru.wh", "gru.uh", "gru.bh"]
_TCN_KEYS = ["block1_conv1.kernels", "block1_conv1.bias", "block1_bn1.gamma", "block1_bn1.beta",
             "block1_conv2.kernels", "block1_conv2.bias", "block1_bn2.gamma", "block1_bn2.beta",
             "block2_conv1.kernels", "block2_conv1.bias", "block2_bn1.gamma", "block2_bn1.beta",
             "block2_conv2.kernels", "block2_conv2.bias", "block2_bn2.gamma", "block2_bn2.beta",
             "head_dense.weights", "head_dense.bias"]
_TCN_STATE = ["block1_bn1.running_mean", "block1_bn1.running_var",
              "block1_bn2.running_mean", "block1_bn2.running_var",
              "block2_bn1.running_mean", "block2_bn1.running_var",
              "block2_bn2.running_mean", "block2_bn2.running_var"]

# Model format v1 stores tensors under these keys, and optimizer streams are
# indexed by position in the parameter list, so both orders are pinned.
MODEL_KEYS = {
    "GRU_A": (_GRU_KEYS + ["out_dense.weights", "out_dense.bias"], []),
    "GRU_B": (["pre_conv.kernels", "pre_conv.bias", "pre_bn.gamma", "pre_bn.beta"]
              + _GRU_KEYS + ["out_dense.weights", "out_dense.bias"],
              ["pre_bn.running_mean", "pre_bn.running_var"]),
    "TCN_A": (_TCN_KEYS, _TCN_STATE),
    "TCN_B": (["pre_conv.kernels", "pre_conv.bias"] + _TCN_KEYS, _TCN_STATE),
    "GRU_TCN": (_GRU_KEYS + ["gru_dense.weights", "gru_dense.bias"] + _TCN_KEYS, _TCN_STATE),
}


class TestModelKeyCensus:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_param_and_state_keys_in_order(self, topology):
        net = build_network(small_spec(topology), RngStream(0))
        params, state = MODEL_KEYS[topology]
        assert [key for key, _ in net.param_items()] == params
        assert [key for key, _ in net.state_items()] == state


class TestCacheLifetime:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_eval_forward_keeps_no_cache(self, topology):
        net = build_network(small_spec(topology), RngStream(8))
        x = np.asarray(RngStream(9).uniform((3, 5)))
        net.forward(x, train=True, rng=RngStream(10))
        net.forward(x)
        assert all(layer.cache is None for layer in net.layers)
        with pytest.raises(CacheError):
            net.backward(np.ones((3, 3)))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_backward_releases_every_cache(self, topology):
        net = build_network(small_spec(topology), RngStream(11))
        x = np.asarray(RngStream(12).uniform((3, 5)))
        scores = net.forward(x, train=True, rng=RngStream(13))
        assert all(layer.cache is not None for layer in net.layers)
        net.backward(np.ones_like(scores))
        assert all(layer.cache is None for layer in net.layers)
        with pytest.raises(CacheError):
            net.backward(np.ones_like(scores))

    def test_zero_probability_dropout_backward(self):
        layer = Dropout("dropout", 0.0)
        x = np.arange(6.0).reshape(1, 3, 2)
        npt.assert_array_equal(layer.forward(x, train=True, rng=RngStream(0)), x)
        npt.assert_array_equal(layer.backward(x), x)
        with pytest.raises(CacheError):
            layer.backward(x)


class TestChunkedScoring:
    """``EnsembleModel.predict_scores`` forwards and fuses ``SCORE_ROWS``
    rows at a time. Its scores must be the bits of the oracle's forward of
    each chunk, no array outside the call may change, and a row's score
    depends on its chunk alone, not on the rest of the file."""

    D = 7

    @classmethod
    def _net(cls, topology, encoding, seed):
        # Three blocks reach dilation 4 at T = 7.
        spec = small_spec(topology, tcn_blocks=3, tcn_filters=cls.D, pre_conv_filters=cls.D,
                          input_encoding=encoding, input_dim=cls.D)
        return build_network(spec, RngStream(seed))

    @classmethod
    def _ensemble(cls, seed):
        return EnsembleModel([cls._net(t, "sequence-of-scalars", seed + i)
                              for i, t in enumerate(("GRU_A", "GRU_B", "TCN_A"))])

    @classmethod
    def _rows(cls, n, seed):
        return np.asarray(RngStream(seed).uniform((n, cls.D))) - 0.5

    @pytest.mark.parametrize("b", [1, 2, SCORE_ROWS, 2 * SCORE_ROWS + 7])
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_bitwise_equal_to_oracle_per_chunk(self, topology, encoding, b):
        net = self._net(topology, encoding, 40)
        x = self._rows(b, 41)
        expected = np.concatenate([oracles.network_forward(net, x[i:i + SCORE_ROWS])
                                   for i in range(0, b, SCORE_ROWS)])
        scores = EnsembleModel([net]).predict_scores(x)
        assert scores.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_features_and_earlier_scores_unchanged(self, topology, encoding):
        model = EnsembleModel([self._net(topology, encoding, 42)])
        x = self._rows(SCORE_ROWS + 6, 43)
        x_bits = x.tobytes()
        first = model.predict_scores(x)
        first_bits = first.tobytes()
        second = model.predict_scores(x)
        assert x.tobytes() == x_bits
        assert first.tobytes() == first_bits == second.tobytes()
        assert not np.shares_memory(first, second)

    def test_file_scores_are_its_chunks_scores(self):
        model = self._ensemble(50)
        x = self._rows(3 * SCORE_ROWS + 11, 51)
        chunks = [model.predict_scores(x[i:i + SCORE_ROWS]) for i in range(0, len(x), SCORE_ROWS)]
        assert model.predict_scores(x).tobytes() == np.concatenate(chunks).tobytes()

    def test_aligned_chunk_scores_equal_in_two_files(self):
        model = self._ensemble(52)
        chunk = self._rows(SCORE_ROWS, 53)
        short = np.concatenate([chunk, self._rows(4, 54)])
        long = np.concatenate([self._rows(SCORE_ROWS, 55), chunk, self._rows(2 * SCORE_ROWS, 56)])
        in_short = model.predict_scores(short)[:SCORE_ROWS]
        in_long = model.predict_scores(long)[SCORE_ROWS:2 * SCORE_ROWS]
        assert in_short.tobytes() == in_long.tobytes()

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_eval_between_train_forward_and_backward(self, topology):
        # An eval forward drops the layers' references to their caches (the
        # cache rule), so they are kept and put back: what is checked is
        # that it writes into no array that a pending train-mode forward
        # holds, with the training workspaces installed as in train_network.
        x = self._rows(5, 44)
        upstream = np.asarray(RngStream(45).uniform((5, 3))) - 0.5

        def grad_vectors(eval_between):
            net = self._net(topology, "sequence-of-scalars", 46)
            with reused_buffers(net.layers):
                net.forward(x, train=True, rng=RngStream(47))
                if eval_between:
                    caches = [layer.cache for layer in net.layers]
                    net.forward(x)
                    for layer, cache in zip(net.layers, caches):
                        layer.cache = cache
                net.backward(upstream)
            return [layer.grad_vector.tobytes() for layer in net.trainable_layers()]

        assert grad_vectors(True) == grad_vectors(False)

    def test_peak_memory_does_not_grow_with_rows(self):
        # Scoring 4 chunks holds one chunk's forward plus the score matrix.
        net = build_network(NetworkSpec(topology="TCN_A", n_labels=14), RngStream(48))
        model = EnsembleModel([net])
        x = np.asarray(RngStream(49).uniform((4 * SCORE_ROWS, 64)))

        def peak(rows):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                model.predict_scores(rows)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one_chunk = peak(x[:SCORE_ROWS])
        output = x.shape[0] * 14 * 8
        assert peak(x) < one_chunk + output + 64 * 1024, (peak(x), one_chunk)


class TestSpecValidation:
    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            NetworkSpec(topology="LSTM", n_labels=3)

    @pytest.mark.parametrize("field", ["hidden_units", "tcn_filters", "tcn_blocks"])
    def test_shared_checks_name_the_run_config_field(self, field):
        with pytest.raises(ConfigError, match=f"field {field}: must be >= 1"):
            NetworkSpec(topology="GRU_A", n_labels=3, **{field: 0})
        with pytest.raises(ConfigError, match=f"field {field}: must be >= 1"):
            RunConfig(dataset="d", **{field: 0})

    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            NetworkSpec(topology="GRU_A", n_labels=3, dropout_p=1.0)

    def test_defaults_match_protocol(self):
        spec = NetworkSpec(topology="TCN_A", n_labels=5)
        assert spec.hidden_units == 50
        assert spec.tcn_filters == 175
        assert spec.tcn_blocks == 4
        assert spec.kernel_width == 3
        assert spec.dropout_p == 0.05
