import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mlenn.ensemble import (EnsembleModel, fuse_average, fuse_weighted_external,
                            fused_threshold, load_ensemble, normalize_enn,
                            save_ensemble, train_member)
from mlenn.harness import RunConfig, train_members
from mlenn.metrics import PredictionSet, average_precision
from mlenn.network import NetworkSpec
from mlenn.numerics import RngStream, ShapeError
from mlenn.training import TrainConfig

from synth import banded_task, noisy_teacher_task, separable_task


def small_spec(**kw):
    kw.setdefault("topology", "GRU_A")
    kw.setdefault("n_labels", 3)
    kw.setdefault("hidden_units", 4)
    return NetworkSpec(**kw)


def run_cfg(**kw):
    """A RunConfig for train_members, which never reads its dataset path."""
    kw.setdefault("hidden_units", 4)
    return RunConfig(dataset="unused.mlkit", **kw)


class TestFuseAverage:
    def test_single_member_identity(self):
        f = np.random.default_rng(0).uniform(size=(3, 2))
        npt.assert_array_equal(fuse_average([f]), f)

    def test_mean_of_two(self):
        npt.assert_array_equal(fuse_average([np.array([[0.2]]), np.array([[0.8]])]),
                               [[0.5]])

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        scores = [rng.uniform(size=(4, 3)) for _ in range(5)]
        npt.assert_array_equal(fuse_average(scores), fuse_average(scores[::-1]))

    def test_bounds_preserved(self):
        rng = np.random.default_rng(2)
        scores = [rng.uniform(size=(6, 4)) for _ in range(7)]
        fused = fuse_average(scores)
        assert fused.min() >= 0.0 and fused.max() <= 1.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            fuse_average([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fuse_average([np.zeros((2, 2)), np.zeros((2, 3))])


class TestNormalizeEnn:
    def test_hand_values(self):
        npt.assert_allclose(normalize_enn(np.array([[0.75]])), [[0.5]], atol=1e-15)
        npt.assert_allclose(normalize_enn(np.array([[0.5]])), [[0.0]], atol=1e-15)
        npt.assert_array_equal(normalize_enn(np.array([[0.0, 1.0]])), [[-1.0, 1.0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_enn(np.array([[1.2]]))


class TestFuseWeightedExternal:
    def test_zero_weight_degenerates_bitwise(self):
        rng = np.random.default_rng(3)
        enn = normalize_enn(rng.uniform(size=(4, 3)))
        ext = rng.uniform(size=(4, 3))
        npt.assert_array_equal(fuse_weighted_external(enn, ext, 0.0), enn)

    def test_hand_sum(self):
        out = fuse_weighted_external(np.array([[0.5]]), np.array([[0.6]]), 3.0)
        npt.assert_allclose(out, [[2.3]], atol=1e-15)

    def test_scaling_preserves_argmax(self):
        rng = np.random.default_rng(4)
        enn = normalize_enn(rng.uniform(size=(5, 4)))
        ext = rng.uniform(size=(5, 4))
        a = fuse_weighted_external(enn, ext, 1.0)
        b = fuse_weighted_external(2.0 * enn, 2.0 * ext, 1.0)
        npt.assert_array_equal(a.argmax(axis=1), b.argmax(axis=1))

    def test_threshold_rule(self):
        assert fused_threshold(0.0) == 0.5
        assert fused_threshold(1.0) == 1.0
        assert fused_threshold(3.0) == 2.0


class TestTrainMembers:
    def test_members_and_determinism(self):
        x, y = separable_task(5, n=45)
        cfg = run_cfg(epochs=2, members=2)
        a = train_members(cfg, x, y, RngStream(3))
        b = train_members(cfg, x, y, RngStream(3))
        assert len(a.members) == 2
        for ma, mb in zip(a.members, b.members):
            assert ma.optimizer_tags == mb.optimizer_tags
            for (ka, ta), (kb, tb) in zip(ma.param_items(),
                                          mb.param_items()):
                npt.assert_array_equal(ta, tb)

    def test_members_differ_from_each_other(self):
        x, y = separable_task(6, n=45)
        model = train_members(run_cfg(epochs=1, members=2), x, y, RngStream(4))
        first = dict(model.members[0].param_items())
        second = dict(model.members[1].param_items())
        assert any(not np.array_equal(first[k], second[k]) for k in first)

    def test_multiple_topologies(self):
        x, y = separable_task(7, n=45)
        cfg = run_cfg(topologies=("GRU_A", "TCN_A"), tcn_filters=4, tcn_blocks=1,
                      epochs=1, members=2)
        model = train_members(cfg, x, y, RngStream(5))
        assert len(model.members) == 4
        scores = model.predict_scores(x[:6])
        assert scores.shape == (6, 3)
        assert scores.min() > 0.0 and scores.max() < 1.0

    def test_trained_member_holds_no_gradient(self):
        # The last step's gradients go with the training scope; a trained member
        # keeps its parameters only.
        x, y = separable_task(9, n=45)
        member = train_member(small_spec(topology="TCN_A", tcn_filters=4, tcn_blocks=1), x, y,
                              TrainConfig(epochs=1), RngStream(9).child(0))
        for layer in member.layers:
            assert layer.grad_vector is None and layer.grads == {}, layer.name

    def test_fixed_policy(self):
        x, y = separable_task(8, n=45)
        member = train_member(small_spec(), x, y, TrainConfig(epochs=1, optimizer="adam"),
                              RngStream(6).child(0))
        assert all(v == "adam" for v in member.optimizer_tags.values())

    def test_label_count_consistency_enforced(self):
        x, y = separable_task(9, n=45)
        m1 = train_member(small_spec(), x, y, TrainConfig(epochs=0), RngStream(1).child(0))
        x2, y2 = separable_task(9, n=45, l=2)
        m2 = train_member(small_spec(n_labels=2), x2, y2, TrainConfig(epochs=0),
                          RngStream(1).child(0))
        with pytest.raises(ShapeError):
            EnsembleModel([m1, m2])


class TestSerialization:
    def _trained(self, epochs=1):
        x, y = separable_task(10, n=45)
        specs = [small_spec(), small_spec(topology="GRU_B", pre_conv_filters=3)]
        members = [train_member(spec, x, y, TrainConfig(epochs=epochs), RngStream(7).child(s))
                   for s, spec in enumerate(specs)]
        return EnsembleModel(members, master_seed=7), x

    def test_round_trip_preserves_parameters(self, tmp_path):
        model, x = self._trained()
        path = tmp_path / "model.json"
        save_ensemble(model, path)
        loaded, preprocess = load_ensemble(path)
        assert preprocess == []
        assert len(loaded.members) == len(model.members)
        for ma, mb in zip(model.members, loaded.members):
            assert ma.optimizer_tags == mb.optimizer_tags
            for (ka, ta), (kb, tb) in zip(ma.param_items(),
                                          mb.param_items()):
                assert ka == kb
                npt.assert_array_equal(ta, tb)
            for (ka, ta), (kb, tb) in zip(ma.state_items(),
                                          mb.state_items()):
                npt.assert_array_equal(ta, tb)

    def test_round_trip_preserves_predictions_bitwise(self, tmp_path):
        model, x = self._trained()
        path = tmp_path / "model.json"
        save_ensemble(model, path)
        loaded, _ = load_ensemble(path)
        npt.assert_array_equal(model.predict_scores(x[:8]), loaded.predict_scores(x[:8]))

    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch):
        # Every tensor comes from the file, so loading draws nothing.
        model, x = self._trained()
        path = tmp_path / "model.json"
        save_ensemble(model, path)

        def no_draw(self, size=None):
            raise AssertionError("load_ensemble drew initial weights")

        monkeypatch.setattr(RngStream, "uniform", no_draw)
        loaded, _ = load_ensemble(path)
        npt.assert_array_equal(model.predict_scores(x[:8]), loaded.predict_scores(x[:8]))

    def test_round_trip_is_bitwise_for_awkward_floats(self, tmp_path):
        # Every tensor gets values whose shortest repr needs 17 digits, spans
        # the exponent range, or is a signed zero or a subnormal; the loaded
        # tensors must carry the same bit patterns.
        model, _ = self._trained(epochs=0)
        rng = np.random.default_rng(5)
        special = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                            1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0])
        for member in model.members:
            for _, arr in member.param_items() + member.state_items():
                values = rng.standard_normal(arr.size) * 10.0 ** rng.integers(-300, 300, arr.size)
                values[:len(special)] = special[:arr.size]
                arr[...] = values.reshape(arr.shape)
        path = tmp_path / "model.json"
        save_ensemble(model, path)
        loaded, _ = load_ensemble(path)
        for ma, mb in zip(model.members, loaded.members):
            a = ma.param_items() + ma.state_items()
            b = mb.param_items() + mb.state_items()
            assert [k for k, _ in a] == [k for k, _ in b]
            for (key, ta), (_, tb) in zip(a, b):
                npt.assert_array_equal(ta.view(np.uint64), tb.view(np.uint64), err_msg=key)

    def test_save_is_byte_stable(self, tmp_path):
        model, _ = self._trained()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        block = [("lo", np.array([0.0, -1.5])), ("hi", np.array([1.0, 2.0]))]
        save_ensemble(model, p1, preprocess=block)
        loaded, preprocess = load_ensemble(p1)
        assert [name for name, _ in preprocess] == ["lo", "hi"]
        for (_, want), (_, got) in zip(block, preprocess, strict=True):
            npt.assert_array_equal(got, want)
            assert got.flags.writeable and got.flags.owndata
        save_ensemble(loaded, p2, preprocess=preprocess)
        assert p1.read_bytes() == p2.read_bytes()

    def test_container_is_self_describing(self, tmp_path):
        # After the header line come the members' tensors and then the
        # preprocess ones, in the order the header lists them, as their
        # C-order little-endian float64 bytes, and nothing else.
        model, _ = self._trained()
        block = [("lo", np.array([0.0, -1.5, 2.0])), ("m", np.arange(6.0).reshape(2, 3).T)]
        path = tmp_path / "model.json"
        save_ensemble(model, path, preprocess=block)
        line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        assert header["format"] == "mlenn-ensemble v4"
        assert header["master_seed"] == 7
        offset = 0
        for m, member in zip(model.members, header["members"], strict=True):
            tensors = m.param_items() + m.state_items()
            assert member["tensors"] == [[key, list(arr.shape)] for key, arr in tensors]
            for key, arr in tensors:
                assert payload[offset:offset + arr.nbytes] == arr.astype("<f8").tobytes(), key
                offset += arr.nbytes
        assert header["preprocess"] == [["lo", [3]], ["m", [3, 2]]]
        for key, arr in block:
            assert payload[offset:offset + arr.nbytes] == arr.astype("<f8").tobytes(), key
            offset += arr.nbytes
        assert offset == len(payload)

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format": "something-else", "members": []}\n')
        with pytest.raises(ValueError, match="^unsupported model format 'something-else'$"):
            load_ensemble(path)

    def test_first_line_is_json_dumps_of_the_header(self, tmp_path):
        # The header is sorted at every depth (the specs and the optimizer
        # tags are objects), and a non-ASCII tensor name is escaped.
        model, _ = self._trained()
        path = tmp_path / "model.json"
        save_ensemble(model, path, preprocess=[("x\u00e9", np.zeros((2, 1)))])
        line, _ = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        assert line == json.dumps(header, sort_keys=True).encode("ascii")
        assert sorted(header) == ["format", "master_seed", "members", "preprocess"]
        assert header["preprocess"] == [["x\u00e9", [2, 1]]]

    def test_save_copies_no_tensor(self, tmp_path):
        # Each tensor goes from the layer's own array straight to the file,
        # so the save allocates less than half of the largest tensor: little
        # more than the header line, whatever the tensors' size.
        x, y = separable_task(10, n=20)
        cfg = run_cfg(topologies=("TCN_A",), tcn_filters=128, tcn_blocks=3, epochs=0,
                      members=4)
        model = train_members(cfg, x, y, RngStream(7))
        largest = max(arr.nbytes for m in model.members for _, arr in m.param_items())
        tracemalloc.start()
        try:
            save_ensemble(model, tmp_path / "model.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < largest / 2

    def test_load_peak_is_near_the_tensor_bytes(self, tmp_path):
        # A GRU_A + TCN_A model at the yeast shape. The load holds the
        # file's bytes and the model's own arrays: a peak near twice the
        # tensor bytes, where a text container needs its text as well.
        x, y = banded_task(5, 20, 103, 14)
        cfg = RunConfig(dataset="unused.mlkit", topologies=("GRU_A", "TCN_A"), members=1,
                        epochs=0)
        path = tmp_path / "model.json"
        save_ensemble(train_members(cfg, x, y, RngStream(5)), path)
        tracemalloc.start()
        try:
            model, _ = load_ensemble(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tensor_bytes = sum(arr.nbytes for m in model.members
                           for _, arr in m.param_items() + m.state_items())
        assert peak < 2.5 * tensor_bytes


@pytest.mark.slow
class TestEnsembleVariance:
    def test_ensembling_shrinks_across_seed_spread(self):
        # Reduced-scale version of the seed-variance property: the fused
        # ensemble's average precision varies less across seeds than single
        # networks', and its mean is no worse. Under-training (3 epochs on a
        # noisy task) keeps the singles genuinely seed-sensitive.
        x, y, _ = noisy_teacher_task(909, n=200, d=16, l=5, noisy_rows=0.2)
        tr, te = slice(0, 133), slice(133, 200)
        cfg = run_cfg(hidden_units=8, epochs=3)
        single = run_cfg(hidden_units=8, epochs=3, members=1, optimizer="adam")
        singles, ensembles = [], []
        for seed in range(10):
            one = train_members(single, x[tr], y[tr], RngStream(100 + seed))
            ten = train_members(cfg, x[tr], y[tr], RngStream(500 + seed))
            singles.append(average_precision(
                PredictionSet.from_scores(y[te], one.predict_scores(x[te]))))
            ensembles.append(average_precision(
                PredictionSet.from_scores(y[te], ten.predict_scores(x[te]))))
        assert np.std(ensembles) < np.std(singles)
        assert np.mean(ensembles) >= np.mean(singles) - 0.005
