"""Unit tests for loss functions (values and gradients)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.nn.losses import BinaryCrossEntropy, DiceLoss, combined_bce_dice


def numeric_gradient(loss, predictions, targets, eps=1e-6):
    grad = np.zeros_like(predictions)
    flat_p = predictions.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_p.size):
        orig = flat_p[i]
        flat_p[i] = orig + eps
        plus = loss.forward(predictions, targets)
        flat_p[i] = orig - eps
        minus = loss.forward(predictions, targets)
        flat_p[i] = orig
        flat_g[i] = (plus - minus) / (2 * eps)
    return grad


class TestBinaryCrossEntropy:
    def test_low_loss_for_confident_correct(self):
        loss = BinaryCrossEntropy()
        value = loss.forward(np.array([0.99, 0.01]), np.array([1.0, 0.0]))
        assert value < 0.05

    def test_high_loss_for_confident_wrong(self):
        loss = BinaryCrossEntropy()
        value = loss.forward(np.array([0.01]), np.array([1.0]))
        assert value > 2.0

    def test_handles_extreme_probabilities(self):
        loss = BinaryCrossEntropy()
        value = loss.forward(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(value)

    def test_gradient(self):
        loss = BinaryCrossEntropy()
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, size=(5, 2))
        t = rng.integers(0, 2, size=(5, 2)).astype(float)
        assert np.allclose(loss.backward(p, t), numeric_gradient(loss, p.copy(), t), atol=1e-4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BinaryCrossEntropy().forward(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            BinaryCrossEntropy().backward(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_known_value_at_half(self):
        loss = BinaryCrossEntropy()
        value = loss.forward(np.full((3, 2), 0.5), np.array([[0.0, 1.0]] * 3))
        assert np.isclose(value, np.log(2.0))

    def test_gradient_finite_at_extremes(self):
        grad = BinaryCrossEntropy().backward(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(grad).all()
        assert grad[0] < 0.0 < grad[1]

    def test_mean_over_all_elements(self):
        loss = BinaryCrossEntropy()
        rng = np.random.default_rng(5)
        p = rng.uniform(0.1, 0.9, size=(2, 3))
        t = rng.integers(0, 2, size=(2, 3)).astype(float)
        doubled = loss.forward(np.vstack([p, p]), np.vstack([t, t]))
        assert np.isclose(doubled, loss.forward(p, t))


class TestDiceLoss:
    def test_zero_for_identical_masks(self):
        loss = DiceLoss()
        mask = np.ones((2, 4, 4, 1))
        assert loss.forward(mask, mask) < 1e-5

    def test_high_for_disjoint_masks(self):
        # Large masks, so the smoothing term (1) is small against the overlap.
        loss = DiceLoss()
        pred = np.zeros((1, 20, 20, 1))
        pred[0, :10] = 1.0
        target = np.zeros((1, 20, 20, 1))
        target[0, 10:] = 1.0
        assert loss.forward(pred, target) > 0.99

    def test_known_half_overlap_value(self):
        # 2 * 2 overlapping pixels out of 4 + 4: dice (4 + 1) / (8 + 1).
        pred = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
        target = np.array([[0.0, 0.0, 1.0, 1.0, 1.0, 1.0]])
        assert np.isclose(DiceLoss().forward(pred, target), 1.0 - 5.0 / 9.0)

    def test_empty_masks_have_zero_loss(self):
        empty = np.zeros((2, 3, 3, 1))
        assert DiceLoss().forward(empty, empty) == 0.0

    def test_mean_of_per_sample_losses(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.0, 1.0, size=(3, 4, 4, 1))
        t = rng.integers(0, 2, size=(3, 4, 4, 1)).astype(float)
        loss = DiceLoss()
        per_sample = [loss.forward(p[i : i + 1], t[i : i + 1]) for i in range(3)]
        assert np.isclose(loss.forward(p, t), np.mean(per_sample))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiceLoss().forward(np.zeros((1, 4)), np.zeros((1, 5)))

    def test_gradient(self):
        loss = DiceLoss()
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 0.9, size=(2, 3, 3, 1))
        t = rng.integers(0, 2, size=(2, 3, 3, 1)).astype(float)
        assert np.allclose(loss.backward(p, t), numeric_gradient(loss, p.copy(), t), atol=1e-4)

    @given(
        masks=npst.arrays(
            dtype=np.float64,
            shape=(2, 3, 3),
            elements=st.floats(0.0, 1.0),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_loss_bounded_between_zero_and_one(self, masks):
        loss = DiceLoss()
        targets = (masks > 0.5).astype(float)
        value = loss.forward(masks, targets)
        assert -1e-9 <= value <= 1.0 + 1e-9


class TestCombinedLoss:
    def test_is_weighted_sum(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.1, 0.9, size=(2, 4))
        t = rng.integers(0, 2, size=(2, 4)).astype(float)
        combined = combined_bce_dice(bce_weight=0.3, dice_weight=0.7)
        expected = 0.3 * BinaryCrossEntropy().forward(p, t) + 0.7 * DiceLoss().forward(p, t)
        assert np.isclose(combined.forward(p, t), expected)

    def test_gradient(self):
        combined = combined_bce_dice()
        rng = np.random.default_rng(4)
        p = rng.uniform(0.2, 0.8, size=(3, 4))
        t = rng.integers(0, 2, size=(3, 4)).astype(float)
        assert np.allclose(
            combined.backward(p, t), numeric_gradient(combined, p.copy(), t), atol=1e-4
        )

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            combined_bce_dice(bce_weight=0.0, dice_weight=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            combined_bce_dice(bce_weight=-0.1, dice_weight=1.0)

    def test_single_term_equals_that_loss(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.1, 0.9, size=(2, 5))
        t = rng.integers(0, 2, size=(2, 5)).astype(float)
        bce_only = combined_bce_dice(bce_weight=1.0, dice_weight=0.0)
        assert bce_only.forward(p, t) == BinaryCrossEntropy().forward(p, t)
        assert np.array_equal(bce_only.backward(p, t), BinaryCrossEntropy().backward(p, t))
