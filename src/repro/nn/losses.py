"""Loss functions used to train the DL2Fence CNNs.

The detector (binary classification of "attack frame" vs "benign frame") is
trained with binary cross-entropy; the localizer (per-pixel segmentation of
the attacking route) is trained with a Dice loss — the paper explicitly names
"dice accuracy" as the feedback signal for the segmentation model — blended
evenly with BCE for smoother gradients early in training.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Loss", "BinaryCrossEntropy", "DiceLoss", "combined_bce_dice"]

_EPS = 1e-7
#: Dice smoothing term: keeps the ratio defined (and 1) for empty masks.
_SMOOTH = 1.0


class Loss(ABC):
    """A loss maps ``(predictions, targets)`` to a scalar and a gradient."""

    @abstractmethod
    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Scalar loss value averaged over the batch."""

    @abstractmethod
    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the loss with respect to ``predictions``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _validate(predictions: np.ndarray, targets: np.ndarray) -> None:
    if predictions.shape != targets.shape:
        raise ValueError(
            f"prediction shape {predictions.shape} != target shape {targets.shape}"
        )


class BinaryCrossEntropy(Loss):
    """Binary cross-entropy on sigmoid outputs (expects values in (0, 1))."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        _validate(predictions, targets)
        p = np.clip(predictions, _EPS, 1.0 - _EPS)
        return float(np.mean(-(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))))

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        _validate(predictions, targets)
        p = np.clip(predictions, _EPS, 1.0 - _EPS)
        return (p - targets) / (p * (1.0 - p)) / predictions.size


class DiceLoss(Loss):
    """Soft Dice loss (``1 - dice coefficient``) computed per sample.

    Dice is the metric the paper reports for the segmentation localizer; the
    soft version keeps the loss differentiable on sigmoid probabilities.
    """

    def _per_sample(self, predictions: np.ndarray, targets: np.ndarray):
        flat_p = predictions.reshape(predictions.shape[0], -1)
        flat_t = targets.reshape(targets.shape[0], -1)
        intersection = np.sum(flat_p * flat_t, axis=1)
        denom = np.sum(flat_p, axis=1) + np.sum(flat_t, axis=1)
        dice = (2.0 * intersection + _SMOOTH) / (denom + _SMOOTH)
        return flat_p, flat_t, intersection, denom, dice

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        _validate(predictions, targets)
        _, _, _, _, dice = self._per_sample(predictions, targets)
        return float(np.mean(1.0 - dice))

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        _validate(predictions, targets)
        flat_p, flat_t, intersection, denom, _ = self._per_sample(predictions, targets)
        batch = predictions.shape[0]
        # d(dice)/dp = (2*t*(denom+s) - (2*I+s)) / (denom+s)^2
        numerator = 2.0 * flat_t * (denom + _SMOOTH)[:, None] - (
            2.0 * intersection + _SMOOTH
        )[:, None]
        grad_dice = numerator / (denom + _SMOOTH)[:, None] ** 2
        grad = -grad_dice / batch
        return grad.reshape(predictions.shape)


class combined_bce_dice(Loss):
    """Weighted sum of BCE and Dice, a common recipe for thin-structure masks."""

    def __init__(self, bce_weight: float = 0.5, dice_weight: float = 0.5) -> None:
        if bce_weight < 0 or dice_weight < 0:
            raise ValueError("weights must be non-negative")
        if bce_weight + dice_weight == 0:
            raise ValueError("at least one weight must be positive")
        self.bce_weight = float(bce_weight)
        self.dice_weight = float(dice_weight)
        self._bce = BinaryCrossEntropy()
        self._dice = DiceLoss()

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.bce_weight * self._bce.forward(
            predictions, targets
        ) + self.dice_weight * self._dice.forward(predictions, targets)

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self.bce_weight * self._bce.backward(
            predictions, targets
        ) + self.dice_weight * self._dice.backward(predictions, targets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"combined_bce_dice(bce={self.bce_weight}, dice={self.dice_weight})"

