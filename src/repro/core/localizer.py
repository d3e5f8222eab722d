"""DoS Profile Localizer: CNN segmentation over abnormal feature frames.

The localizer (Figure 2, middle) is a small fully-convolutional segmentation
model: a stack of 'same'-padded convolutional layers (two in the paper, each
with 8 kernels) followed by a 1-channel sigmoid output layer.  Given one
directional BOC frame it produces a per-pixel probability that the
corresponding router's input port carries flooding traffic — the "DoS
profile" whose fusion reconstructs the attacking route.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import DL2FenceConfig
from repro.monitor.dataset import LocalizationDataset
from repro.monitor.frames import to_canonical
from repro.nn import (
    Adam,
    ClassificationReport,
    Conv2D,
    EarlyStopping,
    ReLU,
    Sequential,
    Sigmoid,
    Trainer,
    combined_bce_dice,
    dice_coefficient,
    load_model,
    save_model,
    segmentation_report,
)
from repro.noc.topology import Direction

__all__ = ["build_localizer_model", "DoSProfileLocalizer"]

#: Training hyper-parameters of the localizer (Adam on BCE + Dice).
_BATCH_SIZE = 16
_LEARNING_RATE = 0.01
_PATIENCE = 20


def build_localizer_model(
    input_shape: tuple[int, int, int],
    filters: int = 8,
    kernel_size: int = 3,
    conv_layers: int = 2,
    seed: int = 0,
) -> Sequential:
    """Build the CNN segmentation model of Figure 2.

    ``conv_layers`` counts the hidden convolutional layers before the
    1-channel output convolution; the paper uses two and notes that adding
    more improves dice accuracy at a hardware cost (see the ablation bench).
    """
    if len(input_shape) != 3:
        raise ValueError("localizer input must be (height, width, channels)")
    if conv_layers < 1:
        raise ValueError("conv_layers must be >= 1")
    layers = []
    for _ in range(conv_layers):
        layers.append(Conv2D(filters=filters, kernel_size=kernel_size, padding="same"))
        layers.append(ReLU())
    layers.append(Conv2D(filters=1, kernel_size=kernel_size, padding="same"))
    layers.append(Sigmoid())
    model = Sequential(layers, seed=seed)
    model.build(input_shape)
    return model


@dataclass
class LocalizerTrainingSummary:
    """Outcome of a localizer training run."""

    epochs: int
    final_loss: float
    final_dice: float


class DoSProfileLocalizer:
    """Per-direction segmentation of the flooding route."""

    def __init__(
        self,
        input_shape: tuple[int, int, int],
        config: DL2FenceConfig | None = None,
        model: Sequential | None = None,
    ) -> None:
        self.config = config or DL2FenceConfig()
        self.input_shape = tuple(int(d) for d in input_shape)
        self.model = model or build_localizer_model(
            self.input_shape,
            filters=self.config.localizer_filters,
            kernel_size=self.config.localizer_kernel_size,
            conv_layers=self.config.localizer_conv_layers,
            seed=self.config.seed,
        )
        self.trained = model is not None

    # -- training ------------------------------------------------------------
    def fit(
        self, dataset: LocalizationDataset, epochs: int = 80
    ) -> LocalizerTrainingSummary:
        """Train the localizer on a :class:`LocalizationDataset`."""
        trainer = Trainer(
            self.model,
            combined_bce_dice(bce_weight=0.5, dice_weight=0.5),
            Adam(learning_rate=_LEARNING_RATE),
            dice_coefficient,
            seed=self.config.seed,
        )
        history = trainer.fit(
            dataset.inputs,
            dataset.masks,
            epochs=epochs,
            batch_size=_BATCH_SIZE,
            early_stopping=EarlyStopping(patience=_PATIENCE),
        )
        self.trained = True
        return LocalizerTrainingSummary(
            epochs=history.epochs,
            final_loss=history.loss[-1],
            final_dice=history.final_metric,
        )

    # -- inference -------------------------------------------------------------
    def predict_masks(self, inputs: np.ndarray) -> np.ndarray:
        """Per-pixel probabilities for a batch of (H, W, 1) directional frames."""
        inputs = np.asarray(inputs, dtype=self.model.dtype)
        if inputs.ndim == 3:
            inputs = inputs[None, ...]
        return self.model.predict(inputs)

    def segment_frame(self, frame: np.ndarray, direction: Direction) -> np.ndarray:
        """Online API: segment one directional frame given in natural orientation.

        Returns the probability mask in the *canonical* orientation used by
        the fusion stage (the caller un-rotates when padding).
        """
        canonical = to_canonical(np.asarray(frame, dtype=np.float64), direction)
        return self.predict_masks(canonical[..., None])[0, ..., 0]

    def segment_frames(
        self, frames: dict[Direction, np.ndarray]
    ) -> dict[Direction, np.ndarray]:
        """Segment several directional frames in one batched forward pass.

        Equivalent to calling :meth:`segment_frame` per direction but runs a
        single CNN inference over the stacked canonical frames — the fast
        path the online pipeline uses every sampling window, where one call
        amortises the convolution setup across all four directions.
        """
        if not frames:
            return {}
        directions = list(frames)
        batch = np.stack(
            [
                to_canonical(np.asarray(frames[direction], dtype=np.float64), direction)
                for direction in directions
            ],
            axis=0,
        )[..., None]
        masks = self.predict_masks(batch)
        return {
            direction: masks[index, ..., 0]
            for index, direction in enumerate(directions)
        }

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, dataset: LocalizationDataset) -> ClassificationReport:
        """Per-pixel segmentation metrics (accuracy/precision/recall/F1 + dice)."""
        predictions = self.predict_masks(dataset.inputs)
        return segmentation_report(
            dataset.masks,
            predictions,
            threshold=self.config.segmentation_threshold,
        )

    def dice(self, dataset: LocalizationDataset) -> float:
        """Dice coefficient over the whole dataset."""
        predictions = self.predict_masks(dataset.inputs)
        return dice_coefficient(
            dataset.masks, predictions, threshold=self.config.segmentation_threshold
        )

    # -- persistence --------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist the trained model to ``path`` (``.npz``)."""
        return save_model(self.model, path)

    @classmethod
    def load(
        cls, path: str | Path, config: DL2FenceConfig | None = None
    ) -> "DoSProfileLocalizer":
        """Load a previously saved localizer."""
        model = load_model(path)
        localizer = cls(model.input_shape, config=config, model=model)
        localizer.trained = True
        return localizer

    @property
    def num_parameters(self) -> int:
        """Trainable parameter count (input to the hardware area model)."""
        return self.model.num_parameters
