import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlenn.metrics import (METRIC_NAMES, PredictionSet, absolute_false, absolute_true,
                           accuracy_ml, aiming, average_precision, bce_loss,
                           UndefinedMetricError, compute_all, coverage, hamming_loss,
                           one_error, ranking_loss, recall)
from mlenn.numerics import ShapeError

import oracles
from mlenn import metrics
from gradcheck import max_rel_error, numeric_gradient


# ---------------------------------------------------------------------------
# Independent straight-line oracles (plain loops, no shared code paths)
# ---------------------------------------------------------------------------

def oracle_hamming(y, h):
    m, l = y.shape
    wrong = 0
    for i in range(m):
        for j in range(l):
            if y[i][j] != h[i][j]:
                wrong += 1
    return wrong / (m * l)


def oracle_one_error(y, f):
    m, l = y.shape
    errors = 0
    for i in range(m):
        best = 0
        for j in range(1, l):
            if f[i][j] > f[i][best]:
                best = j
        if y[i][best] != 1:
            errors += 1
    return errors / m


def oracle_ranking_loss(y, f):
    m, l = y.shape
    total, counted = 0.0, 0
    for i in range(m):
        rel = [j for j in range(l) if y[i][j] == 1]
        irr = [j for j in range(l) if y[i][j] == 0]
        if not rel or not irr:
            continue
        bad = 0.0
        for j in rel:
            for k in irr:
                if f[i][j] < f[i][k]:
                    bad += 1.0
                elif f[i][j] == f[i][k]:
                    bad += 0.5
        total += bad / (len(rel) * len(irr))
        counted += 1
    if counted == 0:
        raise ValueError("undefined")
    return total / counted


def oracle_coverage(y, f):
    m, l = y.shape
    total = 0.0
    for i in range(m):
        rel = [j for j in range(l) if y[i][j] == 1]
        if not rel:
            continue
        deepest = 0
        for j in rel:
            rank = sum(1 for k in range(l) if f[i][k] >= f[i][j])
            deepest = max(deepest, rank)
        total += deepest - 1
    return total / m


def _rank_order_by_permutations(frow):
    """The descending, stable-by-index ordering, derived by enumerating all
    permutations and keeping the lexicographically-smallest sorted one."""
    l = len(frow)
    valid = [p for p in itertools.permutations(range(l))
             if all(frow[p[a]] >= frow[p[a + 1]] for a in range(l - 1))]
    return min(valid)


def oracle_average_precision(y, f):
    m, l = y.shape
    total, counted = 0.0, 0
    for i in range(m):
        rel = [j for j in range(l) if y[i][j] == 1]
        if not rel:
            continue
        order = _rank_order_by_permutations(f[i])
        rank = {label: pos + 1 for pos, label in enumerate(order)}
        acc = 0.0
        for j in rel:
            higher = sum(1 for k in rel if rank[k] <= rank[j])
            acc += higher / rank[j]
        total += acc / len(rel)
        counted += 1
    if counted == 0:
        raise ValueError("undefined")
    return total / counted


def oracle_set_metrics(y, h):
    m, l = y.shape
    aim = rec = acc = atrue = afalse = 0.0
    for i in range(m):
        inter = sum(1 for j in range(l) if y[i][j] == 1 and h[i][j] == 1)
        union = sum(1 for j in range(l) if y[i][j] == 1 or h[i][j] == 1)
        hs = sum(1 for j in range(l) if h[i][j] == 1)
        ys = sum(1 for j in range(l) if y[i][j] == 1)
        aim += inter / hs if hs else 0.0
        rec += inter / ys if ys else 0.0
        acc += inter / union if union else 0.0
        atrue += 1.0 if all(y[i][j] == h[i][j] for j in range(l)) else 0.0
        afalse += (union - inter) / l
    return {"aiming": aim / m, "recall": rec / m, "accuracy": acc / m,
            "absolute_true": atrue / m, "absolute_false": afalse / m}


def random_prediction_set(rng, m=None, l=None):
    m = m or int(rng.integers(1, 9))
    l = l or int(rng.integers(2, 7))
    y = (rng.uniform(size=(m, l)) < 0.45).astype(float)
    f = rng.uniform(size=(m, l))
    if rng.uniform() < 0.5:
        f = np.round(f, 1)  # inject ties
    h = (f >= 0.5).astype(float)
    return PredictionSet(y, h, f)


# ---------------------------------------------------------------------------
# Hand-computed cases
# ---------------------------------------------------------------------------

class TestHammingLoss:
    def test_perfect(self):
        ps = PredictionSet([[1, 0, 1]], [[1, 0, 1]], [[0.9, 0.1, 0.8]])
        assert hamming_loss(ps) == 0.0

    def test_single_miss(self):
        ps = PredictionSet([[1, 0, 1]], [[1, 1, 1]], [[0.9, 0.6, 0.8]])
        npt.assert_allclose(hamming_loss(ps), 1.0 / 3.0)

    def test_complement(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        ps = PredictionSet(y, 1.0 - y, 1.0 - y)
        assert hamming_loss(ps) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = (rng.uniform(size=(4, 5)) < 0.5).astype(float)
            b = (rng.uniform(size=(4, 5)) < 0.5).astype(float)
            f = rng.uniform(size=(4, 5))
            assert hamming_loss(PredictionSet(a, b, f)) == hamming_loss(PredictionSet(b, a, f))


class TestOneError:
    def test_top_label_relevant(self):
        ps = PredictionSet([[1, 0]], [[1, 0]], [[0.9, 0.1]])
        assert one_error(ps) == 0.0

    def test_top_label_irrelevant(self):
        ps = PredictionSet([[1, 0]], [[0, 1]], [[0.2, 0.8]])
        assert one_error(ps) == 1.0

    def test_average_of_two_rows(self):
        ps = PredictionSet([[1, 0], [1, 0]], [[1, 0], [0, 1]],
                           [[0.9, 0.1], [0.2, 0.8]])
        assert one_error(ps) == 0.5

    def test_tie_breaks_to_lowest_index(self):
        ps = PredictionSet([[0, 1]], [[1, 1]], [[0.5, 0.5]])
        assert one_error(ps) == 1.0  # index 0 wins the tie and is irrelevant


class TestRankingLoss:
    def test_reversed_pair(self):
        ps = PredictionSet([[1, 0]], [[0, 1]], [[0.3, 0.7]])
        assert ranking_loss(ps) == 1.0

    def test_ordered_pair(self):
        ps = PredictionSet([[1, 0]], [[1, 0]], [[0.7, 0.3]])
        assert ranking_loss(ps) == 0.0

    def test_tied_pair_counts_half(self):
        ps = PredictionSet([[1, 0]], [[1, 1]], [[0.5, 0.5]])
        assert ranking_loss(ps) == 0.5

    def test_degenerate_rows_are_skipped(self):
        ps = PredictionSet([[1, 1], [1, 0]], [[1, 1], [1, 0]],
                           [[0.5, 0.5], [0.9, 0.2]])
        assert ranking_loss(ps) == 0.0

    def test_all_rows_degenerate_raises(self):
        ps = PredictionSet([[1, 1]], [[1, 1]], [[0.5, 0.5]])
        with pytest.raises(UndefinedMetricError, match="^ranking_loss is undefined"):
            ranking_loss(ps)


class TestCoverage:
    def test_relevant_on_top(self):
        ps = PredictionSet([[1, 0, 0]], [[1, 0, 0]], [[0.9, 0.5, 0.1]])
        assert coverage(ps) == 0.0

    def test_relevant_at_bottom(self):
        ps = PredictionSet([[0, 0, 1]], [[1, 0, 0]], [[0.9, 0.5, 0.1]])
        assert coverage(ps) == 2.0

    def test_all_relevant_needs_full_list(self):
        ps = PredictionSet([[1, 1, 1]], [[1, 1, 1]], [[0.3, 0.9, 0.5]])
        assert coverage(ps) == 2.0

    def test_tie_takes_worst_rank(self):
        ps = PredictionSet([[1, 0]], [[1, 1]], [[0.5, 0.5]])
        assert coverage(ps) == 1.0


class TestAveragePrecision:
    def test_hand_rank_computation(self):
        ps = PredictionSet([[1, 0, 1]], [[1, 1, 1]], [[0.9, 0.8, 0.7]])
        npt.assert_allclose(average_precision(ps), (1.0 + 2.0 / 3.0) / 2.0)

    def test_perfect_ranking(self):
        ps = PredictionSet([[1, 1, 0, 0]], [[1, 1, 0, 0]], [[0.9, 0.8, 0.2, 0.1]])
        assert average_precision(ps) == 1.0

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            ps = random_prediction_set(rng, l=int(rng.integers(2, 6)))
            try:
                expected = oracle_average_precision(ps.y, ps.f)
            except ValueError:
                with pytest.raises(ValueError):
                    average_precision(ps)
                continue
            npt.assert_allclose(average_precision(ps), expected, atol=1e-12)

    def test_no_relevant_rows_raises(self):
        ps = PredictionSet([[0, 0]], [[1, 0]], [[0.8, 0.1]])
        with pytest.raises(UndefinedMetricError, match="^average_precision is undefined"):
            average_precision(ps)


class TestSetIndicators:
    def test_hand_case(self):
        ps = PredictionSet([[1, 0]], [[1, 1]], [[0.9, 0.8]])
        assert aiming(ps) == 0.5
        assert recall(ps) == 1.0
        assert accuracy_ml(ps) == 0.5
        assert absolute_true(ps) == 0.0
        assert absolute_false(ps) == 0.5

    def test_perfect_prediction(self):
        y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        ps = PredictionSet(y, y, y)
        assert aiming(ps) == recall(ps) == accuracy_ml(ps) == absolute_true(ps) == 1.0
        assert absolute_false(ps) == 0.0

    def test_empty_prediction_recall_zero(self):
        ps = PredictionSet([[1, 1]], [[0, 0]], [[0.1, 0.2]])
        assert recall(ps) == 0.0
        assert aiming(ps) == 0.0  # empty row contributes zero


class TestOracleEquivalence:
    def test_hundred_random_prediction_sets(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(100):
            ps = random_prediction_set(rng)
            assert abs(hamming_loss(ps) - oracle_hamming(ps.y, ps.h)) < 1e-12
            assert abs(one_error(ps) - oracle_one_error(ps.y, ps.f)) < 1e-12
            assert abs(coverage(ps) - oracle_coverage(ps.y, ps.f)) < 1e-12
            sets = oracle_set_metrics(ps.y, ps.h)
            assert abs(aiming(ps) - sets["aiming"]) < 1e-12
            assert abs(recall(ps) - sets["recall"]) < 1e-12
            assert abs(accuracy_ml(ps) - sets["accuracy"]) < 1e-12
            assert abs(absolute_true(ps) - sets["absolute_true"]) < 1e-12
            assert abs(absolute_false(ps) - sets["absolute_false"]) < 1e-12
            try:
                expected_rl = oracle_ranking_loss(ps.y, ps.f)
            except ValueError:
                continue
            assert abs(ranking_loss(ps) - expected_rl) < 1e-12
            assert abs(average_precision(ps) - oracle_average_precision(ps.y, ps.f)) < 1e-12
            checked += 1
        assert checked > 50

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ps = random_prediction_set(rng)
            g = 2.0 * ps.f ** 3 + ps.f + 1.0  # strictly increasing
            ps2 = PredictionSet(ps.y, ps.h, g)
            assert one_error(ps) == one_error(ps2)
            assert coverage(ps) == coverage(ps2)
            try:
                assert ranking_loss(ps) == ranking_loss(ps2)
                assert average_precision(ps) == average_precision(ps2)
            except ValueError:
                pass

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ps = random_prediction_set(rng)
            values = {}
            for name, fn in (("hamming_loss", hamming_loss), ("one_error", one_error),
                             ("aiming", aiming), ("recall", recall),
                             ("accuracy", accuracy_ml), ("absolute_true", absolute_true),
                             ("absolute_false", absolute_false)):
                values[name] = fn(ps)
            for name, v in values.items():
                assert 0.0 <= v <= 1.0, name
            assert 0.0 <= coverage(ps) <= ps.n_labels - 1


# Scores that collide once rounded: 0.1 + 0.2 != 0.3, but 0.5 + 1e-17 == 0.5,
# 1 - 2**-54 == 1.0 and (1/3) * 3 == 1.0; signed zeros, a subnormal and NaN.
_SCORE_POOL = (0.0, -0.0, 5e-324, 0.1, 0.2, 0.3, 0.1 + 0.2, 0.5, 0.5 + 1e-17,
               0.7, 1.0, 1.0 - 2.0 ** -54, (1.0 / 3.0) * 3.0, float("nan"))


@st.composite
def prediction_sets(draw):
    n = draw(st.integers(1, 24))
    l = draw(st.integers(1, 9))
    # each row: random labels, every label relevant, or none
    kinds = draw(st.lists(st.sampled_from(("mixed", "all", "none")), min_size=n, max_size=n))
    bits = draw(st.lists(st.booleans(), min_size=n * l, max_size=n * l))
    y = np.array(bits, dtype=np.float64).reshape(n, l)
    for i, kind in enumerate(kinds):
        if kind != "mixed":
            y[i] = 1.0 if kind == "all" else 0.0
    score = st.one_of(st.sampled_from(_SCORE_POOL), st.floats(0.0, 1.0))
    f = np.array(draw(st.lists(score, min_size=n * l, max_size=n * l))).reshape(n, l)
    return PredictionSet(y, (f >= 0.5).astype(np.float64), f)


def _same_outcome(fn, reference, ps):
    """Both raise ValueError, or both return the same float bits."""
    try:
        expected = reference(ps)
    except ValueError:
        with pytest.raises(ValueError):
            fn(ps)
        return
    assert float(fn(ps)).hex() == float(expected).hex()


class TestMatchesLoopOracles:
    """The block-vectorised ranking indicators return the bits of the
    per-row loops in tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(prediction_sets())
    def test_bitwise(self, ps):
        _same_outcome(ranking_loss, oracles.ranking_loss, ps)
        _same_outcome(coverage, oracles.coverage, ps)
        _same_outcome(average_precision, oracles.average_precision, ps)

    @pytest.mark.parametrize("l", [1, 3, 14])
    def test_rows_span_several_blocks(self, l, monkeypatch):
        # shrunken blocks, so that 50 rows with rounding ties fill several
        monkeypatch.setattr(metrics, "_BLOCK_ELEMS", 64)
        rng = np.random.default_rng(l)
        n = 50
        y = (rng.uniform(size=(n, l)) < 0.4).astype(np.float64)
        f = np.round(rng.uniform(size=(n, l)), 2) + 1e-17
        ps = PredictionSet.from_scores(y, f)
        _same_outcome(ranking_loss, oracles.ranking_loss, ps)
        _same_outcome(coverage, oracles.coverage, ps)
        _same_outcome(average_precision, oracles.average_precision, ps)


class TestPredictionSet:
    def test_from_scores_threshold(self):
        ps = PredictionSet.from_scores([[1, 0]], [[0.5, 0.49]])
        npt.assert_array_equal(ps.h, [[1.0, 0.0]])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            PredictionSet([[2, 0]], [[1, 0]], [[0.5, 0.5]])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            PredictionSet([[1, 0]], [[1, 0, 0]], [[0.5, 0.5]])


class TestBceLoss:
    def test_log_two(self):
        loss, _ = bce_loss([[1.0]], [[0.5]])
        npt.assert_allclose(loss, math.log(2.0), atol=1e-12)

    def test_near_perfect_prediction(self):
        y = np.array([[1.0, 0.0]])
        loss, _ = bce_loss(y, np.clip(y, 1e-12, 1 - 1e-12))
        assert loss <= 2 * abs(math.log(1 - 1e-12)) + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        y = (rng.uniform(size=(3, 4)) < 0.5).astype(float)
        p = rng.uniform(0.1, 0.9, size=(3, 4))

        def loss():
            return bce_loss(y, p)[0]

        _, grad = bce_loss(y, p)
        assert max_rel_error(grad, numeric_gradient(loss, p)) < 1e-6

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bitwise_equal_to_reference(self, weighted):
        # Binary and soft targets; predictions at and beyond the clamp.
        rng = np.random.default_rng(7)
        y = np.vstack([(rng.uniform(size=(20, 6)) < 0.3).astype(float),
                       rng.uniform(size=(10, 6))])
        p = rng.uniform(size=(30, 6))
        p[0, :4] = [0.0, 1.0, 1e-15, 1.0 - 1e-15]
        w = rng.uniform(0.0, 3.0, size=30) if weighted else None
        loss, grad = bce_loss(y, p, weights=w)
        ref_loss, ref_grad = oracles.bce_loss_reference(y, p, weights=w)
        assert np.float64(loss).view(np.uint64) == np.float64(ref_loss).view(np.uint64)
        npt.assert_array_equal(grad.view(np.uint64), ref_grad.view(np.uint64))

    def test_weighted_rows_and_row_mean(self):
        rng = np.random.default_rng(1)
        y = (rng.uniform(size=(4, 3)) < 0.5).astype(float)
        p = rng.uniform(0.2, 0.8, size=(4, 3))
        base, _ = bce_loss(y, p)
        stacked, _ = bce_loss(np.vstack([y, y]), np.vstack([p, p]), weights=np.ones(8))
        npt.assert_allclose(stacked, base, atol=1e-12)
        doubled, _ = bce_loss(y, p, weights=np.full(4, 2.0))
        npt.assert_allclose(doubled, 2.0 * base, atol=1e-12)

    def test_zero_weight_rows_do_not_contribute(self):
        # A zero-weight row adds nothing to the sum but still counts in the
        # row mean, and it gets no gradient.
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.7, 0.3], [0.2, 0.6]])
        full, grad = bce_loss(y, p, weights=np.array([1.0, 0.0]))
        only_first, grad_first = bce_loss(y[:1], p[:1])
        npt.assert_allclose(full, only_first / 2.0, atol=1e-15)
        npt.assert_allclose(grad[0], grad_first[0] / 2.0, atol=1e-15)
        npt.assert_array_equal(grad[1], 0.0)

    def test_soft_target_half(self):
        loss, _ = bce_loss([[0.5]], [[0.5]])
        npt.assert_allclose(loss, math.log(2.0), atol=1e-12)


class TestComputeAll:
    def test_compute_all_has_every_indicator(self):
        rng = np.random.default_rng(5)
        ps = random_prediction_set(rng, m=6, l=4)
        values = compute_all(ps)
        assert tuple(values) == METRIC_NAMES
