import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from mlenn.layers import (BatchNorm, Conv1d, Dense, Gru, Relu, ShapeError,
                          batchnorm_backward, batchnorm_forward, conv1d_backward,
                          conv1d_forward, dense_backward, dense_forward, dropout,
                          dropout_backward, gru_backward, gru_forward, maxpool_time,
                          maxpool_time_backward, relu, relu_backward, sigmoid,
                          sigmoid_backward)
from mlenn.numerics import RngStream

import oracles
from gradcheck import max_rel_error, numeric_gradient


def _zero_gru(hidden, channels):
    z = lambda *s: np.zeros(s)
    return Gru("gru", z(hidden, channels), z(hidden, hidden), z(hidden),
                     z(hidden, channels), z(hidden, hidden), z(hidden),
                     z(hidden, channels), z(hidden, hidden), z(hidden))


def _scalar_gru_oracle(p: Gru, x: np.ndarray) -> np.ndarray:
    """Straight-line per-element recurrence, no matrix ops."""
    b, t_steps, d = x.shape
    n = p.bz.shape[0]
    out = np.zeros((b, t_steps, n))
    for bi in range(b):
        h = [0.0] * n
        for t in range(t_steps):
            new_h = [0.0] * n
            for i in range(n):
                az = p.bz[i] + sum(p.wz[i, j] * x[bi, t, j] for j in range(d)) \
                    + sum(p.uz[i, j] * h[j] for j in range(n))
                z = 1.0 / (1.0 + math.exp(-az))
                r_full = [1.0 / (1.0 + math.exp(-(
                    p.br[k] + sum(p.wr[k, j] * x[bi, t, j] for j in range(d))
                    + sum(p.ur[k, j] * h[j] for j in range(n))))) for k in range(n)]
                ah = p.bh[i] + sum(p.wh[i, j] * x[bi, t, j] for j in range(d)) \
                    + sum(p.uh[i, j] * r_full[j] * h[j] for j in range(n))
                cand = math.tanh(ah)
                new_h[i] = (1.0 - z) * h[i] + z * cand
            h = new_h
            out[bi, t] = h
    return out


class TestGruForward:
    def test_all_zero_params(self):
        p = _zero_gru(3, 2)
        x = np.random.default_rng(0).normal(size=(2, 4, 2))
        h, cache = gru_forward(p, x)
        npt.assert_array_equal(h, 0.0)
        npt.assert_array_equal(cache.gates[:, 0], 0.5)  # z
        npt.assert_array_equal(cache.gates[:, 1], 0.5)  # r
        npt.assert_array_equal(cache.gates[:, 2], 0.0)  # candidate

    def test_saturated_update_gate(self):
        p = _zero_gru(1, 1)
        p.bz[:] = 100.0
        p.br[:] = 100.0
        x = np.ones((1, 3, 1))
        h, cache = gru_forward(p, x)
        assert np.all(cache.gates[:, 0] > 1.0 - 1e-10)
        npt.assert_allclose(h, 0.0, atol=1e-12)  # candidate is tanh(0) = 0

    def test_matches_scalar_oracle(self):
        rng = RngStream(21)
        p = Gru.glorot("gru", 3, 2, rng)
        x = np.asarray(rng.uniform((2, 4, 2))) - 0.5
        h, _ = gru_forward(p, x)
        npt.assert_allclose(h, _scalar_gru_oracle(p, x), atol=1e-12)

    def test_state_stays_in_unit_interval(self):
        rng = RngStream(33)
        for seed in range(5):
            p = Gru.glorot("gru", 4, 3, rng.child(seed))
            x = np.asarray(rng.uniform((3, 6, 3))) * 4.0 - 2.0
            h, _ = gru_forward(p, x)
            assert np.all(h > -1.0) and np.all(h < 1.0)

    def test_shape_validation(self):
        p = _zero_gru(2, 3)
        with pytest.raises(ShapeError):
            gru_forward(p, np.zeros((1, 4, 2)))


class TestGruBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = RngStream(5)
        p = Gru.glorot("gru", 2, 2, rng)
        x = np.asarray(rng.uniform((2, 3, 2)))
        _, cache = gru_forward(p, x)
        dx = gru_backward(p, cache, np.zeros((2, 3, 2)))
        for arr in p.grads.values():
            npt.assert_array_equal(arr, 0.0)
        npt.assert_array_equal(dx, 0.0)

    @pytest.mark.parametrize("dims,tol", [((1, 1, 1, 1), 1e-5), ((2, 3, 2, 3), 1e-4),
                                          ((3, 6, 4, 5), 1e-4)])
    def test_matches_finite_differences(self, dims, tol):
        b, t, d, n = dims
        rng = RngStream(100 + n)
        p = Gru.glorot("gru", n, d, rng)
        x = np.asarray(rng.uniform((b, t, d))) - 0.5
        upstream = np.asarray(rng.uniform((b, t, n))) - 0.5

        def loss():
            out, _ = gru_forward(p, x)
            return float(np.sum(out * upstream))

        _, cache = gru_forward(p, x)
        dx = gru_backward(p, cache, upstream)
        for name, arr in p.param_tensors().items():
            assert max_rel_error(p.grads[name], numeric_gradient(loss, arr)) < tol, name
        assert max_rel_error(dx, numeric_gradient(loss, x)) < tol


def _reference_gru(p: Gru, x, upstream):
    """Per-step forward and backpropagation through time, six matmuls per
    forward step and twelve per backward step; returns h and the gradients
    of sum(h * upstream) as (params dict, dx)."""
    b, t_steps, _ = x.shape
    n = p.hidden
    h, z, r, c = (np.empty((b, t_steps, n)) for _ in range(4))
    h_prev = np.zeros((b, n))
    for t in range(t_steps):
        xt = x[:, t, :]
        z[:, t] = sigmoid(xt @ p.wz.T + h_prev @ p.uz.T + p.bz)
        r[:, t] = sigmoid(xt @ p.wr.T + h_prev @ p.ur.T + p.br)
        c[:, t] = np.tanh(xt @ p.wh.T + (r[:, t] * h_prev) @ p.uh.T + p.bh)
        h_prev = (1.0 - z[:, t]) * h_prev + z[:, t] * c[:, t]
        h[:, t] = h_prev

    grads = {name: np.zeros_like(arr) for name, arr in p.param_tensors().items()}
    dx = np.empty_like(x)
    dh_next = np.zeros((b, n))
    for t in reversed(range(t_steps)):
        xt = x[:, t, :]
        h_prev = np.zeros((b, n)) if t == 0 else h[:, t - 1]
        z_t, r_t, c_t = z[:, t], r[:, t], c[:, t]
        dh = upstream[:, t] + dh_next
        dz = dh * (c_t - h_prev)
        dac = dh * z_t * (1.0 - c_t * c_t)
        dh_prev = dh * (1.0 - z_t)
        grads["wh"] += dac.T @ xt
        grads["uh"] += dac.T @ (r_t * h_prev)
        grads["bh"] += dac.sum(axis=0)
        d_rh = dac @ p.uh
        dr = d_rh * h_prev
        dh_prev += d_rh * r_t
        daz = dz * z_t * (1.0 - z_t)
        dar = dr * r_t * (1.0 - r_t)
        grads["wz"] += daz.T @ xt
        grads["uz"] += daz.T @ h_prev
        grads["bz"] += daz.sum(axis=0)
        grads["wr"] += dar.T @ xt
        grads["ur"] += dar.T @ h_prev
        grads["br"] += dar.sum(axis=0)
        dh_prev += daz @ p.uz + dar @ p.ur
        dx[:, t] = daz @ p.wz + dar @ p.wr + dac @ p.wh
        dh_next = dh_prev
    return h, grads, dx


def _random_gru(rng: RngStream, b, t, d, n):
    """A Glorot GRU with nonzero biases, an input and an upstream gradient."""
    p = Gru.glorot("gru", n, d, rng)
    for bias in (p.bz, p.br, p.bh):
        bias[:] = np.asarray(rng.uniform(n)) - 0.5
    x = np.asarray(rng.uniform((b, t, d))) * 2.0 - 1.0
    upstream = np.asarray(rng.uniform((b, t, n))) - 0.5
    return p, x, upstream


class TestGruOracle:
    @staticmethod
    def _check(p, x, upstream):
        h, cache = gru_forward(p, x)
        dx = gru_backward(p, cache, upstream)
        oh, ograds, odx = _reference_gru(p, x, upstream)
        npt.assert_allclose(h, oh, rtol=0, atol=1e-12)
        assert set(p.grads) == set(p.PARAMS)
        for name in p.PARAMS:
            assert p.grads[name].shape == getattr(p, name).shape, name
            npt.assert_allclose(p.grads[name], ograds[name], rtol=0, atol=1e-12, err_msg=name)
        assert dx.shape == x.shape
        npt.assert_allclose(dx, odx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b,t,d,n", list(itertools.product(
        (1, 3, 30), (1, 2, 17), (1, 5, 32), (1, 4, 50))))
    def test_matches_per_step_reference(self, b, t, d, n):
        rng = RngStream(1000 * b + 100 * t + 10 * d + n)
        self._check(*_random_gru(rng, b, t, d, n))

    @pytest.mark.parametrize("b,t,d,n", list(itertools.product(
        (1, 3, 30), (1, 2, 17), (1, 5, 32), (1, 4, 50))))
    def test_bitwise_equal_to_stacked_form(self, b, t, d, n):
        # The gate views and the step-0 shortcut give the floats of the
        # form that stacks fresh copies per call and runs step 0 in full
        # (== also holds for a zero whose sign the shortcut may flip).
        p, x, upstream = _random_gru(RngStream(7000 + 1000 * b + 100 * t + 10 * d + n), b, t, d, n)
        h, cache = gru_forward(p, x)
        dx = gru_backward(p, cache, upstream)
        oh, hs, gates = oracles.gru_forward(p, x)
        odx, ograds = oracles.gru_backward(p, x, hs, gates, upstream)
        npt.assert_array_equal(h, oh)
        npt.assert_array_equal(cache.gates, gates)
        npt.assert_array_equal(dx, odx)
        for name in p.PARAMS:
            npt.assert_array_equal(p.grads[name], ograds[name], err_msg=name)

    def test_vectors_hold_the_tensors_in_params_order(self):
        # The parameter and gradient vectors hold the nine tensors end to
        # end in PARAMS order, and the gate views read them in place.
        p, x, upstream = _random_gru(RngStream(79), 2, 3, 4, 5)
        npt.assert_array_equal(p.param_vector,
                               np.concatenate([getattr(p, key).ravel() for key in p.PARAMS]))
        w, u, bias = p.gate_params
        for gate, (wk, uk, bk) in enumerate((("wz", "uz", "bz"), ("wr", "ur", "br"),
                                             ("wh", "uh", "bh"))):
            for views, key in ((w, wk), (u, uk), (bias, bk)):
                assert np.shares_memory(views[gate], p.param_vector), key
                npt.assert_array_equal(views[gate], getattr(p, key), err_msg=key)
        _, cache = gru_forward(p, x)
        gru_backward(p, cache, upstream)
        npt.assert_array_equal(p.grad_vector,
                               np.concatenate([p.grads[key].ravel() for key in p.PARAMS]))

    def test_non_contiguous_input_and_upstream(self):
        rng = RngStream(77)
        p, _, _ = _random_gru(rng, 3, 7, 5, 4)
        x = (np.asarray(rng.uniform((3, 14, 10))) - 0.5)[:, ::2, 1::2]
        upstream = (np.asarray(rng.uniform((3, 14, 8))) - 0.5)[:, 7:, ::2]
        assert not x.flags.c_contiguous and not upstream.flags.c_contiguous
        self._check(p, x, upstream)

    @pytest.mark.parametrize("b,t,d,n", list(itertools.product(
        (1, 3, 30), (1, 2, 17), (1, 5, 32), (1, 4, 50))))
    def test_eval_output_equals_train_output_bitwise(self, b, t, d, n):
        # Train and eval run one projection and one loop; only where their
        # buffers come from differs. Same loop, same bits.
        p, x, _ = _random_gru(RngStream(8000 + 1000 * b + 100 * t + 10 * d + n), b, t, d, n)
        h_train = p.forward(x, train=True)
        assert p.cache is not None
        h_eval = p.forward(x, train=False)
        assert p.cache is None
        npt.assert_array_equal(h_eval, h_train)
        h_kernel, cache = gru_forward(p, x, train=False)
        assert cache is None
        npt.assert_array_equal(h_kernel, h_train)

    def test_train_forward_outside_training_returns_fresh_arrays(self):
        # Buffers are reused only inside train_network; elsewhere a held
        # train-mode output survives the next call.
        p, x, _ = _random_gru(RngStream(82), 3, 5, 2, 4)
        h1 = p.forward(x, train=True)
        kept = h1.copy()
        h2 = p.forward(x[::-1], train=True)
        assert not np.shares_memory(h1, h2)
        npt.assert_array_equal(h1, kept)

    def test_extreme_preactivations_saturate(self):
        # exp(-a) overflows for a < -709; the logistic must return the exact
        # limit 0 there (and 1 for a > 37) without a NaN.
        p = _zero_gru(2, 1)
        p.wz[:] = [[1.0], [-1.0]]
        x = np.array([[[800.0], [-800.0]]])
        h, cache = gru_forward(p, x)
        assert np.all(np.isfinite(h))
        npt.assert_array_equal(cache.gates[:, 0, 0], [[1.0, 0.0], [0.0, 1.0]])

    def test_backward_rejects_reshaped_upstream(self):
        p, x, _ = _random_gru(RngStream(80), 2, 6, 3, 4)
        _, cache = gru_forward(p, x)
        with pytest.raises(ShapeError):
            gru_backward(p, cache, np.zeros((3, 4, 4)))  # same size, wrong shape


class TestConv1d:
    def _params(self, kernel, dilation=1, bias=None):
        kernel = np.asarray(kernel, dtype=np.float64)[None, None, :]
        b = np.zeros(1) if bias is None else np.asarray([bias], dtype=np.float64)
        return Conv1d("conv", kernel, b, dilation)

    def test_identity_kernel(self):
        p = self._params([0.0, 1.0, 0.0])
        x = np.random.default_rng(0).normal(size=(2, 5, 1))
        y, _ = conv1d_forward(p, x)
        npt.assert_allclose(y, x, atol=1e-15)

    def test_hand_convolution(self):
        p = self._params([1.0, 1.0, 1.0])
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
        y, _ = conv1d_forward(p, x)
        npt.assert_allclose(y[0, :, 0], [3.0, 6.0, 9.0, 7.0])

    def test_hand_dilated_convolution(self):
        p = self._params([1.0, 1.0, 1.0], dilation=2)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
        y, _ = conv1d_forward(p, x)
        npt.assert_allclose(y[0, :, 0], [4.0, 6.0, 4.0, 6.0])

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_same_padding_preserves_length(self, dilation):
        rng = RngStream(dilation)
        p = Conv1d.glorot("conv", 3, 2, 3, dilation, rng)
        x = np.asarray(rng.uniform((2, 9, 2)))
        y, _ = conv1d_forward(p, x)
        assert y.shape == (2, 9, 3)

    def test_zero_upstream(self):
        rng = RngStream(2)
        p = Conv1d.glorot("conv", 2, 2, 3, 1, rng)
        x = np.asarray(rng.uniform((1, 4, 2)))
        _, cache = conv1d_forward(p, x)
        dx = conv1d_backward(p, cache, np.zeros((1, 4, 2)))
        npt.assert_array_equal(p.grads["kernels"], 0.0)
        npt.assert_array_equal(p.grads["bias"], 0.0)
        npt.assert_array_equal(dx, 0.0)

    @pytest.mark.parametrize("dilation,tol", [(1, 1e-5), (4, 1e-4)])
    def test_matches_finite_differences(self, dilation, tol):
        rng = RngStream(40 + dilation)
        p = Conv1d.glorot("conv", 2, 3, 3, dilation, rng)
        x = np.asarray(rng.uniform((2, 6, 3))) - 0.5
        upstream = np.asarray(rng.uniform((2, 6, 2))) - 0.5

        def loss():
            y, _ = conv1d_forward(p, x)
            return float(np.sum(y * upstream))

        _, cache = conv1d_forward(p, x)
        dx = conv1d_backward(p, cache, upstream)
        assert max_rel_error(p.grads["kernels"], numeric_gradient(loss, p.kernels)) < tol
        assert max_rel_error(p.grads["bias"], numeric_gradient(loss, p.bias)) < tol
        assert max_rel_error(dx, numeric_gradient(loss, x)) < tol

    def test_matches_finite_differences_at_dilation_8(self):
        # TCN block 4 dilation; T=19 so the outer taps reach real positions.
        rng = RngStream(48)
        p = Conv1d.glorot("conv", 2, 3, 3, 8, rng)
        x = np.asarray(rng.uniform((2, 19, 3))) - 0.5
        upstream = np.asarray(rng.uniform((2, 19, 2))) - 0.5

        def loss():
            y, _ = conv1d_forward(p, x)
            return float(np.sum(y * upstream))

        _, cache = conv1d_forward(p, x)
        dx = conv1d_backward(p, cache, upstream)
        assert max_rel_error(p.grads["kernels"], numeric_gradient(loss, p.kernels)) < 1e-4
        assert max_rel_error(p.grads["bias"], numeric_gradient(loss, p.bias)) < 1e-4
        assert max_rel_error(dx, numeric_gradient(loss, x)) < 1e-4

    def test_even_kernel_width_rejected(self):
        with pytest.raises(ShapeError):
            Conv1d("conv", np.zeros((1, 1, 4)), np.zeros(1), 1)

    def test_backward_rejects_reshaped_upstream(self):
        rng = RngStream(3)
        p = Conv1d.glorot("conv", 2, 2, 3, 1, rng)
        _, cache = conv1d_forward(p, np.asarray(rng.uniform((2, 6, 2))))
        with pytest.raises(ShapeError):
            conv1d_backward(p, cache, np.zeros((3, 4, 2)))  # same size, wrong shape


def _conv_oracle(kernels, bias, dilation, x, upstream):
    """Direct loops over y[b,t,f] = bias[f] + sum_{c,k} kernels[f,c,k] *
    x[b, t + d*(k - mid), c]; returns y and the gradients of sum(y * upstream)."""
    filters, channels, width = kernels.shape
    b_size, t_steps, _ = x.shape
    mid = width // 2
    y = np.zeros((b_size, t_steps, filters))
    dk = np.zeros_like(kernels)
    db = np.zeros_like(bias)
    dx = np.zeros_like(x)
    for b, t, f in itertools.product(range(b_size), range(t_steps), range(filters)):
        y[b, t, f] = bias[f]
        db[f] += upstream[b, t, f]
        for c, k in itertools.product(range(channels), range(width)):
            s = t + dilation * (k - mid)
            if 0 <= s < t_steps:
                y[b, t, f] += kernels[f, c, k] * x[b, s, c]
                dk[f, c, k] += upstream[b, t, f] * x[b, s, c]
                dx[b, s, c] += upstream[b, t, f] * kernels[f, c, k]
    return y, dk, db, dx


class TestConv1dOracle:
    @staticmethod
    def _check(p, x, upstream):
        y, cache = conv1d_forward(p, x)
        dx = conv1d_backward(p, cache, upstream)
        oy, odk, odb, odx = _conv_oracle(p.kernels, p.bias, p.dilation, x, upstream)
        npt.assert_allclose(y, oy, rtol=0, atol=1e-12)
        npt.assert_allclose(p.grads["kernels"], odk, rtol=0, atol=1e-12)
        npt.assert_allclose(p.grads["bias"], odb, rtol=0, atol=1e-12)
        npt.assert_allclose(dx, odx, rtol=0, atol=1e-12)

    # pad = d*(W-1)/2 reaches or exceeds T in many of these cases, e.g. TCN
    # block 4 (dilation 8) under single-step encoding (T=1).
    @pytest.mark.parametrize("width,dilation,t_steps,channels,batch", list(itertools.product(
        (1, 3, 5), (1, 2, 8), (1, 3, 9), (1, 4), (1, 3))))
    def test_matches_direct_loops(self, width, dilation, t_steps, channels, batch):
        rng = RngStream(1000 * width + 100 * dilation + 10 * t_steps + channels + batch)
        p = Conv1d.glorot("conv", 3, channels, width, dilation, rng)
        p.bias[:] = np.asarray(rng.uniform(3)) - 0.5
        x = np.asarray(rng.uniform((batch, t_steps, channels))) - 0.5
        upstream = np.asarray(rng.uniform((batch, t_steps, 3))) - 0.5
        self._check(p, x, upstream)

    # The kernels work on blocks of B // taps sequences: 7 sequences with 3
    # taps run as blocks of 2, 2, 2 and 1; with 5 taps, as 7 blocks of 1.
    @pytest.mark.parametrize("width,dilation", [(3, 1), (3, 4), (5, 1)])
    def test_uneven_sequence_blocks(self, width, dilation):
        rng = RngStream(70 + width + dilation)
        p = Conv1d.glorot("conv", 3, 2, width, dilation, rng)
        p.bias[:] = np.asarray(rng.uniform(3)) - 0.5
        x = np.asarray(rng.uniform((7, 6, 2))) - 0.5
        upstream = np.asarray(rng.uniform((7, 6, 3))) - 0.5
        self._check(p, x, upstream)

    @pytest.mark.parametrize("dilation", [1, 8])
    def test_non_contiguous_upstream(self, dilation):
        # A window of a padded gradient buffer is a strided view; the
        # (B*T, F) reshape must copy it, not read it as if it were dense.
        rng = RngStream(60 + dilation)
        p = Conv1d.glorot("conv", 4, 3, 3, dilation, rng)
        x = np.asarray(rng.uniform((3, 9, 3))) - 0.5
        padded = np.asarray(rng.uniform((3, 9 + 2 * dilation, 4))) - 0.5
        upstream = padded[:, dilation:dilation + 9]
        assert not upstream.flags.c_contiguous
        self._check(p, x, upstream)


class TestBatchNorm:
    def test_train_mode_standardizes(self):
        p = BatchNorm("bn", 3)
        x = np.random.default_rng(0).normal(loc=4.0, scale=3.0, size=(4, 7, 3))
        y, _ = batchnorm_forward(p, x, train=True)
        npt.assert_allclose(y.mean(axis=(0, 1)), 0.0, atol=1e-12)
        npt.assert_allclose(y.var(axis=(0, 1)), 1.0, atol=1e-4)  # eps shrinks variance

    def test_affine_parameters(self):
        p = BatchNorm("bn", 2)
        p.gamma[:] = 2.0
        p.beta[:] = 3.0
        x = np.random.default_rng(1).normal(size=(5, 6, 2))
        y, _ = batchnorm_forward(p, x, train=True)
        npt.assert_allclose(y.mean(axis=(0, 1)), 3.0, atol=1e-12)
        npt.assert_allclose(y.std(axis=(0, 1)), 2.0, atol=1e-3)

    def test_eval_mode_with_identity_stats(self):
        p = BatchNorm("bn", 2)
        x = np.random.default_rng(2).normal(size=(3, 4, 2))
        y, cache = batchnorm_forward(p, x, train=False)
        npt.assert_allclose(y, x / np.sqrt(1.0 + p.eps), atol=1e-12)
        assert cache is None  # eval mode has no backward

    def test_running_stats_update(self):
        p = BatchNorm("bn", 1)
        x = np.full((2, 3, 1), 10.0)
        x[0, 0, 0] = 4.0
        batchnorm_forward(p, x, train=True)
        npt.assert_allclose(p.running_mean, 0.9 * 0.0 + 0.1 * x.mean(), atol=1e-12)
        npt.assert_allclose(p.running_var, 0.9 * 1.0 + 0.1 * x.var(), atol=1e-12)

    def test_one_position_normalizes_to_beta(self):
        # A 1-row minibatch at T = 1: variance 0, so xhat = 0 and y = beta;
        # the input gradient is 0 and dbeta is the upstream row.
        p = BatchNorm("bn", 2)
        p.gamma[:] = [1.5, -2.0]
        p.beta[:] = [0.25, -0.5]
        y, cache = batchnorm_forward(p, np.array([[[3.0, -7.0]]]), train=True)
        npt.assert_array_equal(y, [[[0.25, -0.5]]])
        upstream = np.array([[[0.75, -1.25]]])
        dx = batchnorm_backward(p, cache, upstream)
        npt.assert_array_equal(dx, 0.0)
        npt.assert_array_equal(p.grads["beta"], [0.75, -1.25])
        npt.assert_array_equal(p.grads["gamma"], 0.0)

    def test_matches_finite_differences(self):
        rng = RngStream(7)
        p = BatchNorm("bn", 3)
        p.gamma[:] = np.asarray(rng.uniform(3)) + 0.5
        p.beta[:] = np.asarray(rng.uniform(3)) - 0.5
        x = np.asarray(rng.uniform((2, 4, 3))) * 2.0
        upstream = np.asarray(rng.uniform((2, 4, 3))) - 0.5

        def loss():
            y, _ = batchnorm_forward(p, x, train=True)
            return float(np.sum(y * upstream))

        _, cache = batchnorm_forward(p, x, train=True)
        dx = batchnorm_backward(p, cache, upstream)
        assert max_rel_error(p.grads["gamma"], numeric_gradient(loss, p.gamma)) < 1e-5
        assert max_rel_error(p.grads["beta"], numeric_gradient(loss, p.beta)) < 1e-5
        assert max_rel_error(dx, numeric_gradient(loss, x)) < 1e-4

    def test_backward_rejects_reshaped_upstream(self):
        p = BatchNorm("bn", 2)
        _, cache = batchnorm_forward(p, np.random.default_rng(3).normal(size=(2, 6, 2)),
                                     train=True)
        with pytest.raises(ShapeError):
            batchnorm_backward(p, cache, np.zeros((3, 4, 2)))  # same size, wrong shape


def _bn_oracle(p, x, upstream, train):
    """Textbook batchnorm: x.mean/x.var statistics, the explicit dxhat sums
    in the train-mode input gradient. Returns y, the gradients (None in
    eval mode, which has no backward) and the running statistics the
    forward leaves behind."""
    channels = x.shape[2]
    if train:
        mean, var = x.mean(axis=(0, 1)), x.var(axis=(0, 1))
        running = ((1.0 - p.momentum) * p.running_mean + p.momentum * mean,
                   (1.0 - p.momentum) * p.running_var + p.momentum * var)
    else:
        mean, var = p.running_mean, p.running_var
        running = (p.running_mean.copy(), p.running_var.copy())
    inv_std = 1.0 / np.sqrt(var + p.eps)
    xhat = (x - mean) * inv_std
    y = p.gamma * xhat + p.beta
    if not train:
        return y, None, running
    u = upstream.reshape(-1, channels)
    xh = xhat.reshape(-1, channels)
    dxhat = u * p.gamma
    n = u.shape[0]
    dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0) - xh * (dxhat * xh).sum(axis=0))
    return y, ((u * xh).sum(axis=0), u.sum(axis=0), dx.reshape(x.shape)), running


class TestBatchNormOracle:
    @staticmethod
    def _layer(rng, channels):
        p = BatchNorm("bn", channels)
        p.gamma[:] = np.asarray(rng.uniform(channels)) * 2.0 - 0.5
        p.beta[:] = np.asarray(rng.uniform(channels)) - 0.5
        p.running_mean[:] = np.asarray(rng.uniform(channels)) - 0.5
        p.running_var[:] = np.asarray(rng.uniform(channels)) + 0.1
        return p

    @staticmethod
    def _check(p, x, upstream, train):
        oy, ograds, (omean, ovar) = _bn_oracle(p, x, upstream, train)
        y, cache = batchnorm_forward(p, x, train=train)
        npt.assert_allclose(y, oy, rtol=0, atol=1e-12)
        npt.assert_allclose(p.running_mean, omean, rtol=0, atol=1e-12)
        npt.assert_allclose(p.running_var, ovar, rtol=0, atol=1e-12)
        if not train:
            assert cache is None
            return
        odgamma, odbeta, odx = ograds
        dx = batchnorm_backward(p, cache, upstream)
        npt.assert_allclose(p.grads["gamma"], odgamma, rtol=0, atol=1e-12)
        npt.assert_allclose(p.grads["beta"], odbeta, rtol=0, atol=1e-12)
        npt.assert_allclose(dx, odx, rtol=0, atol=1e-12)

    # (1, 2, C) and (2, 1, C) are the smallest train-mode batches: B*T = 2.
    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("shape", [(1, 2, 3), (2, 1, 4), (4, 7, 3), (3, 20, 6)])
    def test_matches_textbook(self, shape, train):
        rng = RngStream(300 + sum(shape) + train)
        p = self._layer(rng, shape[2])
        x = np.asarray(rng.uniform(shape)) * 3.0 - 1.0
        upstream = np.asarray(rng.uniform(shape)) - 0.5
        self._check(p, x, upstream, train)

    @pytest.mark.parametrize("train", [True, False])
    def test_non_contiguous_input_and_upstream(self, train):
        rng = RngStream(320 + train)
        p = self._layer(rng, 4)
        x = (np.asarray(rng.uniform((5, 12, 4))) * 2.0)[:, ::2]
        upstream = np.asarray(rng.uniform((6, 5, 4))).transpose(1, 0, 2) - 0.5
        assert not x.flags.c_contiguous and not upstream.flags.c_contiguous
        self._check(p, x, upstream, train)

    @pytest.mark.parametrize("train", [True, False])
    def test_constant_channel(self, train):
        # Channel 1 has zero batch variance, so inv_std = 1/sqrt(eps).
        rng = RngStream(330 + train)
        p = self._layer(rng, 3)
        x = np.asarray(rng.uniform((3, 5, 3))) - 0.5
        x[:, :, 1] = 0.3
        upstream = np.asarray(rng.uniform((3, 5, 3))) - 0.5
        self._check(p, x, upstream, train)


def _bits(a):
    return np.array(a, copy=True).view(np.uint8)


class TestKernelsLeaveInputsUnchanged:
    """Forward and backward must not write into the caller's input or
    upstream, although they work in place on buffers they allocate."""

    @staticmethod
    def _run_unchanged(forward, backward, x, upstream):
        x_bits, up_bits = _bits(x), _bits(upstream)
        out, cache = forward(x)
        backward(cache, upstream)
        npt.assert_array_equal(_bits(x), x_bits)
        npt.assert_array_equal(_bits(upstream), up_bits)
        return out

    @pytest.mark.parametrize("dilation", [1, 2, 8])
    def test_conv1d(self, dilation):
        rng = RngStream(340 + dilation)
        p = Conv1d.glorot("conv", 4, 3, 3, dilation, rng)
        x = np.asarray(rng.uniform((2, 9, 3))) - 0.5
        upstream = np.asarray(rng.uniform((2, 9, 4))) - 0.5
        self._run_unchanged(lambda a: conv1d_forward(p, a),
                            lambda c, u: conv1d_backward(p, c, u), x, upstream)

    @pytest.mark.parametrize("train", [True, False])
    def test_batchnorm(self, train):
        rng = RngStream(350 + train)
        p = BatchNorm("bn", 3)
        x = np.asarray(rng.uniform((2, 5, 3))) - 0.5
        upstream = np.asarray(rng.uniform((2, 5, 3))) - 0.5
        if train:
            self._run_unchanged(lambda a: batchnorm_forward(p, a, True),
                                lambda c, u: batchnorm_backward(p, c, u), x, upstream)
        else:  # eval mode has no backward
            x_bits = _bits(x)
            _, cache = batchnorm_forward(p, x, False)
            npt.assert_array_equal(_bits(x), x_bits)
            assert cache is None

    @pytest.mark.parametrize("cached", ["input", "mask"])
    def test_relu(self, cached):
        # relu_backward gets the float input or, as the Relu layer caches
        # it, the bool sign mask; both give the same bits.
        rng = RngStream(360)
        x = np.asarray(rng.uniform((2, 5, 3))) - 0.5
        upstream = np.asarray(rng.uniform((2, 5, 3))) - 0.5
        cache = (lambda a: a) if cached == "input" else (lambda a: a > 0.0)
        out = self._run_unchanged(lambda a: (relu(a), cache(a)), relu_backward, x, upstream)
        npt.assert_array_equal(_bits(relu_backward(cache(x), upstream)),
                               _bits(upstream * (x > 0.0)))
        assert out is not x

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_dropout(self, p):
        rng = RngStream(370)
        x = np.asarray(rng.uniform((2, 5, 3))) - 0.5
        upstream = np.asarray(rng.uniform((2, 5, 3))) - 0.5
        self._run_unchanged(lambda a: dropout(a, p, rng, True),
                            lambda mask, u: dropout_backward(mask, p, u), x, upstream)
        out, mask = dropout(x, 0.3, rng, True)
        npt.assert_array_equal(_bits(out), _bits(x * mask / 0.7))
        npt.assert_array_equal(_bits(dropout_backward(mask, 0.3, upstream)),
                               _bits(upstream * mask / 0.7))


class TestMaxPoolTime:
    def test_single_step_is_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 1, 4))
        y, cache = maxpool_time(x)
        npt.assert_array_equal(y, x[:, 0, :])
        npt.assert_array_equal(cache[0], 0)
        upstream = np.random.default_rng(1).normal(size=(3, 4))
        dx = maxpool_time_backward(cache, upstream)
        npt.assert_array_equal(dx, upstream[:, None, :])
        assert not np.shares_memory(dx, upstream)

    @pytest.mark.parametrize("layout", ["contiguous", "time-major", "strided"])
    def test_flat_index_matches_take_along_axis(self, layout):
        # The GRU's states reach the pool as a (B, T, C) view of a
        # time-major buffer; any other layout is gathered as a copy.
        rng = np.random.default_rng(2)
        if layout == "contiguous":
            x = rng.normal(size=(4, 6, 3))
        elif layout == "time-major":
            x = rng.normal(size=(6, 4, 3)).transpose(1, 0, 2)
        else:
            x = rng.normal(size=(4, 12, 5))[:, ::2, 1:4]
        x[1, 2:4, 0] = 7.0  # a tie: the first maximal step wins
        upstream = rng.normal(size=(4, 3))
        y, cache = maxpool_time(x)
        idx = x.argmax(axis=1)
        npt.assert_array_equal(y, np.take_along_axis(x, idx[:, None, :], axis=1)[:, 0])
        expected = np.zeros(x.shape)
        np.put_along_axis(expected, idx[:, None, :], upstream[:, None, :], axis=1)
        npt.assert_array_equal(maxpool_time_backward(cache, upstream), expected)

    def test_hand_max_and_gradient_routing(self):
        x = np.array([1.0, 3.0, 2.0]).reshape(1, 3, 1)
        y, cache = maxpool_time(x)
        assert y[0, 0] == 3.0
        dx = maxpool_time_backward(cache, np.array([[5.0]]))
        npt.assert_array_equal(dx[0, :, 0], [0.0, 5.0, 0.0])

    def test_tie_routes_to_first_index(self):
        x = np.array([5.0, 5.0]).reshape(1, 2, 1)
        _, cache = maxpool_time(x)
        dx = maxpool_time_backward(cache, np.array([[1.0]]))
        npt.assert_array_equal(dx[0, :, 0], [1.0, 0.0])

    def test_backward_rejects_reshaped_upstream(self):
        _, cache = maxpool_time(np.random.default_rng(0).normal(size=(2, 5, 3)))
        with pytest.raises(ShapeError):
            maxpool_time_backward(cache, np.zeros((3, 2)))  # same size, wrong shape


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        y, _ = dense_forward(Dense("dense", np.eye(3), np.zeros(3)), x)
        npt.assert_array_equal(y, x)

    def test_hand_affine(self):
        y, _ = dense_forward(Dense("dense", np.array([[1.0, 2.0]]), np.array([1.0])),
                             np.array([[3.0, 4.0]]))
        npt.assert_array_equal(y, [[12.0]])

    def test_tensors_are_views_into_the_layer_vector(self):
        # The constructor copies: the caller's arrays are not the layer's.
        w, b = np.ones((2, 3)), np.zeros(2)
        d = Dense("dense", w, b)
        d.param_vector[...] = np.arange(8.0)
        npt.assert_array_equal(d.weights, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        npt.assert_array_equal(d.bias, [6.0, 7.0])
        d.bias[...] = -1.0
        npt.assert_array_equal(d.param_vector[6:], -1.0)
        assert w.sum() == 6.0 and not b.any()
        dense_backward(d, dense_forward(d, np.ones((4, 3)))[1], np.ones((4, 2)))
        npt.assert_array_equal(d.grad_vector, [4.0] * 6 + [4.0, 4.0])
        assert np.shares_memory(d.grads["weights"], d.grad_vector)

    @pytest.mark.parametrize("shape", [(4, 3), (2, 5, 3)])
    def test_matches_finite_differences(self, shape):
        rng = RngStream(len(shape))
        w = np.asarray(rng.uniform((2, 3))) - 0.5
        b = np.asarray(rng.uniform(2)) - 0.5
        x = np.asarray(rng.uniform(shape)) - 0.5
        upstream = np.asarray(rng.uniform(shape[:-1] + (2,))) - 0.5
        d = Dense("dense", w, b)

        def loss():
            y, _ = dense_forward(d, x)
            return float(np.sum(y * upstream))

        _, cache = dense_forward(d, x)
        dx = dense_backward(d, cache, upstream)
        assert max_rel_error(d.grads["weights"], numeric_gradient(loss, d.weights)) < 1e-5
        assert max_rel_error(d.grads["bias"], numeric_gradient(loss, d.bias)) < 1e-5
        assert max_rel_error(dx, numeric_gradient(loss, x)) < 1e-5

    def test_backward_rejects_wrong_output_width(self):
        d = Dense("dense", np.zeros((2, 3)), np.zeros(2))
        _, cache = dense_forward(d, np.zeros((2, 5, 3)))
        with pytest.raises(ShapeError):
            dense_backward(d, cache, np.zeros((2, 5, 3)))


class TestActivations:
    def test_sigmoid_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_extremes_are_finite(self):
        y = sigmoid(np.array([-1000.0, 1000.0]))
        npt.assert_allclose(y, [0.0, 1.0], atol=1e-300)

    def test_relu(self):
        npt.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])

    def test_relu_layer_caches_sign_mask_in_train_mode_only(self):
        layer, x = Relu("relu"), np.array([[[-1.0], [0.0], [2.0]]])
        layer.forward(x, train=False)
        assert layer.cache is None
        layer.forward(x, train=True)
        assert layer.cache.dtype == np.bool_
        npt.assert_array_equal(layer.cache, x > 0.0)
        npt.assert_array_equal(layer.backward(np.ones_like(x)), [[[0.0], [0.0], [1.0]]])

    def test_relu_gradient_zero_at_kink(self):
        dx = relu_backward(np.array([-1.0, 0.0, 2.0]), np.ones(3))
        npt.assert_array_equal(dx, [0.0, 0.0, 1.0])

    def test_sigmoid_backward_matches_finite_differences(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        upstream = np.random.default_rng(1).normal(size=(3, 4))

        def loss():
            return float(np.sum(sigmoid(x) * upstream))

        dx = sigmoid_backward(sigmoid(x), upstream)
        assert max_rel_error(dx, numeric_gradient(loss, x)) < 1e-5


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        y, mask = dropout(x, 0.3, None, train=False)
        assert mask is None
        npt.assert_array_equal(y, x)

    def test_train_mean_matches_eval(self):
        x = np.abs(np.random.default_rng(0).normal(size=5)) + 0.5
        p = 0.3
        rng = RngStream(77)
        draws = 10_000
        acc = np.zeros_like(x)
        for _ in range(draws):
            y, _ = dropout(x, p, rng, train=True)
            acc += y
        mean = acc / draws
        # element std of x*B/(1-p) with B ~ Bernoulli(1-p)
        se = x * np.sqrt(p / (1.0 - p)) / np.sqrt(draws)
        assert np.all(np.abs(mean - x) <= 3.0 * se)

    def test_mask_gradient_consistency(self):
        rng = RngStream(3)
        x = np.asarray(rng.uniform((2, 3))) + 0.1
        upstream = np.asarray(rng.uniform((2, 3)))
        # A fresh copy of one stream per call draws the same mask every time.
        _, mask = dropout(x, 0.4, rng.child(1), True)

        def loss():
            return float(np.sum(dropout(x, 0.4, rng.child(1), True)[0] * upstream))

        dx = dropout_backward(mask, 0.4, upstream)
        assert max_rel_error(dx, numeric_gradient(loss, x)) < 1e-6

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            dropout(np.zeros(3), 1.0, RngStream(0), train=True)
