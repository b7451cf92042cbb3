import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mlenn.numerics import NonFiniteError, RngStream
from mlenn.optim import (STOCHASTIC_POOL, VARIANTS, OptimizerState, clip_gradients_l2,
                         cyclic_lr, modulation, optimizer_step)


def sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def make_state(variant, shape=(), seed=0, **kw):
    """A one-segment state over ``shape``."""
    kw = {"rho1": 0.9, "rho2": 0.999, "lr": 0.01, "streams": [RngStream(seed)], **kw}
    return OptimizerState.create(variant, shape, (math.prod(shape),), **kw)


class TestAdam:
    def test_scalar_first_step(self):
        s = make_state("adam", lr=0.01)
        theta = optimizer_step(s, np.asarray(0.0), np.asarray(1.0))
        expected = -0.01 * (1.0 / (1.0 + 1e-8))
        assert abs(float(theta) - expected) < 1e-9
        assert s.t == 1

    def test_zero_gradient_leaves_parameter(self):
        s = make_state("adam")
        theta = optimizer_step(s, np.asarray(3.0), np.asarray(0.0))
        assert float(theta) == 3.0

    def test_constant_gradient_steps_by_learning_rate(self):
        s = make_state("adam", lr=0.01)
        theta = np.asarray(0.0)
        previous = float(theta)
        for _ in range(100):
            theta = optimizer_step(s, theta, np.asarray(1.0))
            delta = float(theta) - previous
            previous = float(theta)
            assert abs(delta + 0.01) < 1e-3


class TestDiffGrad:
    def test_first_step_modulation(self):
        s = make_state("diffgrad", lr=0.01)
        theta = optimizer_step(s, np.asarray(0.0), np.asarray(1.0))
        expected = -0.01 * sig(1.0) * (1.0 / (1.0 + 1e-8))
        assert abs(float(theta) - expected) < 1e-9

    def test_constant_gradient_halves_modulation(self):
        s = make_state("diffgrad", lr=0.01)
        theta = optimizer_step(s, np.asarray(0.0), np.asarray(1.0))
        before = float(theta)
        theta = optimizer_step(s, theta, np.asarray(1.0))
        # xi = Sig(0) = 0.5 exactly once the gradient repeats
        m_hat_term = 1.0 / (math.sqrt(1.0) + 1e-8)
        assert abs((float(theta) - before) + 0.01 * 0.5 * m_hat_term) < 1e-6

    def test_modulation_strictly_inside_unit_interval(self):
        # Strict bounds hold wherever float64 can represent them; gradient
        # scale is kept below the sigmoid's saturation point (~37).
        s = make_state("diffgrad", shape=(4, 3))
        rng = np.random.default_rng(0)
        theta = rng.normal(size=(4, 3))
        for _ in range(200):
            g = rng.normal(size=(4, 3)) * 3.0
            xi = 1.0 / (1.0 + np.exp(-np.abs(s.prev_grad - g)))
            theta = optimizer_step(s, theta, g)
            assert np.all(xi > 0.0) and np.all(xi < 1.0)


class TestDGrad:
    def test_first_step_delta_is_gradient_magnitude(self):
        # xi = Sig(4 * d / max(d)) with d = |g| = [1, 2]
        s = make_state("dgrad", shape=(2,))
        npt.assert_allclose(modulation(s, np.array([1.0, -2.0])), [sig(2.0), sig(4.0)],
                            atol=1e-12)

    def test_known_delta_vector(self):
        s = make_state("dgrad", shape=(2,))
        xi = modulation(s, np.array([1.0, 2.0]))
        npt.assert_allclose(xi, [sig(2.0), sig(4.0)], atol=1e-12)

    def test_max_element_hits_sigmoid_four(self):
        s = make_state("dgrad", shape=(3,))
        xi = modulation(s, np.array([0.3, -0.9, 0.1]))
        assert abs(xi[1] - sig(4.0)) < 1e-9

    def test_element_at_average_gets_half(self):
        s = make_state("dgrad", shape=(2,))
        xi = modulation(s, np.array([0.0, 5.0]))
        assert xi[0] == 0.5

    def test_all_zero_delta_gives_half_everywhere(self):
        s = make_state("dgrad", shape=(3,))
        xi = modulation(s, np.zeros(3))
        npt.assert_array_equal(xi, 0.5)

    def test_range_over_random_steps(self):
        s = make_state("dgrad", shape=(6,))
        rng = np.random.default_rng(1)
        for _ in range(500):
            g = rng.normal(size=6) * rng.uniform(0.01, 10.0)
            xi = modulation(s, g)
            s.t += 1  # modulation leaves the step counter to optimizer_step
            assert np.all(xi >= 0.5) and np.all(xi <= sig(4.0) + 1e-15)


class TestCos1:
    def test_quarter_period_is_exactly_two(self):
        assert cyclic_lr(15) == 2.0

    def test_full_period_value(self):
        assert abs(cyclic_lr(30) - 1.0099502) < 1e-6

    def test_exact_periodicity(self):
        for t in range(0, 200):
            assert cyclic_lr(t) == cyclic_lr(t + 30)

    def test_multiplier_range(self):
        values = [cyclic_lr(t) for t in range(1000)]
        assert all(1.0 < v <= 2.0 for v in values)

    def test_xi_uses_upcoming_step_counter(self):
        s = make_state("cos1", shape=(1,))
        s.t = 14  # next update is step 15, where the multiplier is exactly 2
        xi = modulation(s, np.array([3.0]))
        assert abs(float(xi[0]) - sig(8.0)) < 1e-12

    def test_range_over_random_steps(self):
        s = make_state("cos1", shape=(4,))
        rng = np.random.default_rng(2)
        theta = rng.normal(size=4)
        for _ in range(300):
            g = rng.normal(size=4)
            theta = optimizer_step(s, theta, g)
        assert s.t == 300


class TestExp:
    def test_hand_evaluated_pair(self):
        s = make_state("exp", shape=(2,))  # first step: delta equals |g|
        xi = modulation(s, np.array([0.1, 0.5]))
        expected0 = 1.5 * (0.1 * math.exp(-0.2)) / (0.5 * math.exp(-1.0))
        npt.assert_allclose(xi, [expected0, 1.5], atol=1e-12)
        assert abs(expected0 - 0.6676622785477403) < 1e-12

    def test_single_element_self_normalizes(self):
        s = make_state("exp", shape=(1,))
        xi = modulation(s, np.array([0.37]))
        assert float(xi[0]) == 1.5

    def test_zero_delta_gives_zero(self):
        s = make_state("exp", shape=(4,))
        npt.assert_array_equal(modulation(s, np.zeros(4)), 0.0)

    def test_range_over_random_steps(self):
        s = make_state("exp", shape=(5,))
        rng = np.random.default_rng(3)
        for _ in range(500):
            g = rng.normal(size=5) * rng.uniform(0.01, 5.0)
            xi = modulation(s, g)
            s.t += 1
            assert np.all(xi >= 0.0) and np.all(xi <= 1.5 + 1e-15)


class _MidpointStream:
    """A stream whose uniform draws are all 0.5."""

    def uniform(self, size=None):
        return np.full(size, 0.5)


class TestSto:
    def test_forced_midpoint_matches_exp_with_k_four(self):
        g = np.array([0.3, 1.2, -0.7])
        s_sto = make_state("sto", shape=(3,), streams=[_MidpointStream()])
        s_exp = oracles.AdamState.create("exp", (3,), rho1=0.9, rho2=0.999, lr=0.01,
                                         k_exp=4.0)
        npt.assert_array_equal(modulation(s_sto, g), oracles.exp_xi(s_exp, g))  # bitwise

    def test_multiplier_range(self):
        s = make_state("sto", shape=(1000,), seed=5)
        (stream,) = s.streams
        u = stream.uniform(1000)
        mult = u + 0.5
        assert mult.min() >= 0.5 and mult.max() < 1.5

    def test_same_seed_reproduces(self):
        g = np.array([0.4, 0.9])
        a = modulation(make_state("sto", shape=(2,), seed=11), g)
        b = modulation(make_state("sto", shape=(2,), seed=11), g)
        npt.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        g = np.array([0.4, 0.9, 1.3])
        a = modulation(make_state("sto", shape=(3,), seed=1), g)
        b = modulation(make_state("sto", shape=(3,), seed=2), g)
        assert not np.array_equal(a, b)

    def test_range_over_random_steps(self):
        s = make_state("sto", shape=(4,), seed=8)
        rng = np.random.default_rng(4)
        theta = rng.normal(size=4)
        for _ in range(300):
            g = rng.normal(size=4)
            theta = optimizer_step(s, theta, g)
        assert s.t == 300


DIFFGRAD_SMOKE_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="infeasible as stated: diffgrad's modulation settles at Sig(0)=0.5 "
           "on smooth trajectories, ~1.85x slower than adam (which needs 1396 "
           "steps here); measured 2574 steps to |theta|<0.01 vs a 2000 budget",
)


class TestSharedBehaviour:
    @pytest.mark.parametrize(
        "variant",
        [pytest.param(v, marks=DIFFGRAD_SMOKE_XFAIL) if v == "diffgrad"
         else v for v in VARIANTS],
    )
    def test_quadratic_convergence_smoke(self, variant):
        s = make_state(variant, lr=0.01, rho1=0.9, rho2=0.999, seed=3)
        theta = np.asarray(5.0)
        best = abs(float(theta))
        for _ in range(2000):
            theta = optimizer_step(s, theta, 2.0 * theta)
            best = min(best, abs(float(theta)))
            if best < 0.01:
                break
        assert best < 0.01, f"{variant} stalled at |theta|={best}"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_update_never_flips_against_momentum(self, variant):
        s = make_state(variant, shape=(3, 2), seed=6)
        rng = np.random.default_rng(7)
        theta = rng.normal(size=(3, 2))
        for _ in range(100):
            g = rng.normal(size=(3, 2))
            before = theta.copy()
            m_next = s.rho1 * s.m + (1.0 - s.rho1) * g
            m_hat = m_next / (1.0 - s.rho1 ** (s.t + 1))
            theta = optimizer_step(s, theta, g)
            moved = theta - before
            mask = m_hat != 0.0
            assert np.all(moved[mask] * np.sign(m_hat[mask]) <= 1e-18)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trajectory_determinism(self, variant):
        def run():
            s = make_state(variant, seed=13)
            rng = np.random.default_rng(99)
            theta = np.asarray(1.0)
            out = []
            for _ in range(50):
                theta = optimizer_step(s, theta, np.asarray(rng.normal()))
                out.append(float(theta))
            return out

        assert run() == run()

    def test_step_counter_increments(self):
        s = make_state("adam")
        theta = np.asarray(0.0)
        for expected in range(1, 6):
            theta = optimizer_step(s, theta, np.asarray(0.3))
            assert s.t == expected


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


# One step's gradient: random entries, all zeros (the max(.) == 0 branches)
# or the previous gradient again.
STEP_KINDS = st.sampled_from(["random", "zeros", "repeat"])


class TestMatchesReference:
    """``optimizer_step`` against the per-variant reference forms in
    ``oracles``, bit for bit, after every step."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(), (1,), (4,), (3, 2)]),
           rho1=st.sampled_from([0.5, 0.9]),
           seed=st.integers(0, 2**31 - 1),
           scale=st.floats(1e-3, 1e3),
           kinds=st.lists(STEP_KINDS, min_size=1, max_size=25))
    @example(shape=(), rho1=0.5, seed=1, scale=1.0, kinds=["zeros", "random", "repeat", "zeros"])
    def test_bitwise_equal_at_every_step(self, variant, shape, rho1, seed, scale, kinds):
        hyper = {"rho1": rho1, "rho2": 0.999, "lr": 0.01}
        lib = OptimizerState.create(variant, shape, (math.prod(shape),),
                                    streams=[RngStream(seed)], **hyper)
        ref = oracles.AdamState.create(variant, shape, rng=RngStream(seed), **hyper)
        draws = np.random.default_rng(seed)
        theta_lib = theta_ref = draws.normal(size=shape)
        g = np.zeros(shape)
        for kind in kinds:
            if kind == "random":
                g = draws.normal(size=shape) * scale
            elif kind == "zeros":
                g = np.zeros(shape)
            theta_lib = optimizer_step(lib, theta_lib, g)
            theta_ref = oracles.optimizer_step(ref, theta_ref, g)
            npt.assert_array_equal(_bits(theta_lib), _bits(theta_ref))
            npt.assert_array_equal(_bits(lib.m), _bits(ref.m))
            npt.assert_array_equal(_bits(lib.u), _bits(ref.u))
            assert lib.t == ref.t
            if variant == "diffgrad":
                npt.assert_array_equal(_bits(lib.prev_grad), _bits(ref.prev_grad))
            else:
                assert lib.prev_grad is None
            if variant in STOCHASTIC_POOL:
                npt.assert_array_equal(_bits(lib.avg), _bits(ref.avg))
            else:
                assert lib.avg is None

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fortran_ordered_arrays(self, variant):
        # A transposed parameter and gradient are stored in Fortran order;
        # the per-segment max normalization must still reach every element.
        hyper = {"rho1": 0.5, "rho2": 0.999, "lr": 0.01}
        lib = OptimizerState.create(variant, (3, 4), (12,), streams=[RngStream(4)], **hyper)
        ref = oracles.AdamState.create(variant, (3, 4), rng=RngStream(4), **hyper)
        draws = np.random.default_rng(4)
        theta_lib = theta_ref = draws.normal(size=(4, 3)).T
        for _ in range(5):
            g = draws.normal(size=(4, 3)).T
            assert g.flags.f_contiguous and not g.flags.c_contiguous
            theta_lib = optimizer_step(lib, theta_lib, g)
            theta_ref = oracles.optimizer_step(ref, theta_ref, g)
            npt.assert_array_equal(_bits(theta_lib), _bits(theta_ref))


class TestClipGradients:
    def test_three_four_five_triangle(self):
        out = clip_gradients_l2([np.array([3.0, 4.0])], 1.0)
        npt.assert_allclose(out[0], [0.6, 0.8], atol=1e-15)

    def test_below_threshold_unchanged(self):
        g = np.array([0.3, 0.4])
        out = clip_gradients_l2([g], 1.0)
        npt.assert_array_equal(out[0], g)

    def test_all_zero_unchanged(self):
        out = clip_gradients_l2([np.zeros(4), np.zeros((2, 2))], 1.0)
        for arr in out:
            npt.assert_array_equal(arr, 0.0)

    def test_norm_bound_over_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            grads = [rng.normal(size=s) * rng.uniform(0, 10)
                     for s in ((3,), (2, 2), (4, 1))]
            out = clip_gradients_l2(grads, 1.0)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in out))
            assert norm <= 1.0 + 1e-12

    def test_spans_multiple_tensors(self):
        out = clip_gradients_l2([np.array([3.0]), np.array([4.0])], 1.0)
        npt.assert_allclose([out[0][0], out[1][0]], [0.6, 0.8], atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            clip_gradients_l2([np.array([np.inf])], 1.0)

    def test_rejects_non_finite_gradient_in_a_layer_vector(self):
        # The clip is the one finiteness check before the optimizer steps.
        grads = [np.zeros(4), np.array([0.5, np.nan, 0.5])]
        with pytest.raises(NonFiniteError):
            clip_gradients_l2(grads, 1e9, [(1, 3), (2, 1)])

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            clip_gradients_l2([np.zeros(2)], 0.0)


def test_stochastic_pool_is_the_four_variants():
    assert STOCHASTIC_POOL == ("dgrad", "cos1", "exp", "sto")


SEGMENT_SHAPES = st.sampled_from([(), (1,), (3,), (2, 3), (4, 1), (3, 3, 2)])


def _state(variant, shape, sizes, streams):
    hyper = {"rho1": 0.5, "rho2": 0.999, "lr": 0.01}
    return OptimizerState.create(variant, shape, sizes, streams=streams, **hyper)


class TestSegmentedState:
    """One state over k segments, packed end to end, against k one-tensor
    states: the same bits in the parameters and in every field. A segment
    gets zero gradients before its wake step (``None``: at every step)."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=30, deadline=None)
    @given(segments=st.lists(st.tuples(SEGMENT_SHAPES, st.sampled_from([0, 4, 11, None])),
                             min_size=1, max_size=6),
           seed=st.integers(0, 2**31 - 1),
           scale=st.floats(1e-3, 1e3),
           steps=st.integers(30, 40))
    # The single-step GRU in PARAMS order: uz, ur, uh, wr and br get an
    # all-zero gradient at every step.
    @example(segments=[((3, 5), 0), ((3, 3), None), ((3,), 0), ((3, 5), None), ((3, 3), None),
                       ((3,), None), ((3, 5), 0), ((3, 3), None), ((3,), 0)],
             seed=2, scale=1.0, steps=30)
    def test_bitwise_equal_to_one_state_per_tensor(self, variant, segments, seed, scale, steps):
        shapes = [shape for shape, _ in segments]
        sizes = [math.prod(shape) for shape in shapes]
        layer = _state(variant, (sum(sizes),), sizes,
                       [RngStream(seed, i) for i in range(len(shapes))])
        singles = [_state(variant, shape, (n,), [RngStream(seed, i)])
                   for i, (shape, n) in enumerate(zip(shapes, sizes))]
        draws = np.random.default_rng(seed)
        thetas = [draws.normal(size=shape) for shape in shapes]
        vector = np.concatenate(thetas, axis=None)
        for step in range(steps):
            # Now and then every segment's gradient is zero at once.
            grads = [np.zeros(shape) if wake is None or step < wake or step % 7 == 3
                     else draws.normal(size=shape) * scale for shape, wake in segments]
            vector = optimizer_step(layer, vector, np.concatenate(grads, axis=None))
            thetas = [optimizer_step(s, th, g) for s, th, g in zip(singles, thetas, grads)]
            npt.assert_array_equal(_bits(vector), _bits(np.concatenate(thetas, axis=None)))
            for field in ("m", "u", "prev_grad", "avg"):
                if getattr(layer, field) is None:
                    assert all(getattr(s, field) is None for s in singles)
                else:
                    whole = np.concatenate([getattr(s, field) for s in singles], axis=None)
                    npt.assert_array_equal(_bits(getattr(layer, field)), _bits(whole))
            assert layer.t == singles[0].t == step + 1

    @settings(max_examples=60, deadline=None)
    @given(layers=st.lists(st.lists(SEGMENT_SHAPES, min_size=1, max_size=5),
                           min_size=1, max_size=4),
           data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           threshold=st.sampled_from([1e-3, 1.0, 1e300]))
    def test_non_finite_entry_in_any_segment_raises(self, layers, data, bad, threshold):
        # Per-layer vectors packed from segments, as train_network clips
        # them: a bad entry anywhere raises, whatever the threshold.
        sizes = [[math.prod(shape) for shape in shapes] for shapes in layers]
        grads = [np.ones(sum(n)) for n in sizes]
        g = grads[data.draw(st.integers(0, len(grads) - 1))]
        g[data.draw(st.integers(0, g.size - 1))] = bad
        with pytest.raises(NonFiniteError):
            clip_gradients_l2(grads, threshold, sizes)

    def test_sizes_must_split_the_vector(self):
        with pytest.raises(ValueError, match="do not split"):
            _state("adam", (5,), [2, 2], None)
        with pytest.raises(ValueError, match="one stream per segment"):
            _state("sto", (5,), [2, 3], [RngStream(0)])
        with pytest.raises(ValueError, match="one stream per segment"):
            _state("sto", (5,), [5], None)

    def test_clip_sums_one_dot_per_tensor(self):
        # The same norm, to the bit, as the tensors given one by one.
        rng = np.random.default_rng(5)
        tensors = [rng.normal(size=n) * 0.3 for n in (7, 1, 40, 3)]
        above = clip_gradients_l2(tensors, 0.5)
        packed = [np.concatenate(tensors[:3]), tensors[3]]
        sizes = [(7, 1, 40), (3,)]
        assert clip_gradients_l2(packed, 100.0, sizes)[0] is packed[0]
        clipped = clip_gradients_l2(packed, 0.5, sizes)
        npt.assert_array_equal(_bits(np.concatenate(clipped)), _bits(np.concatenate(above)))
        with pytest.raises(ValueError, match="do not split"):
            clip_gradients_l2(packed, 0.5, [(7, 1), (3,)])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_clip_lets_large_finite_entries_through(self):
        # 1e200 squared overflows the norm to inf; the entries are finite,
        # so the clip scales them to zero instead of raising.
        out = clip_gradients_l2([np.array([1e200, 1.0])], 1.0)
        npt.assert_array_equal(out[0], 0.0)
        with pytest.raises(NonFiniteError):
            clip_gradients_l2([np.array([1e200, np.inf])], 1.0)
