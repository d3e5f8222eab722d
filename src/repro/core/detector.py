"""DoS Detector: CNN classification over four-direction feature frames.

The detector (Figure 2, left) is a deliberately lightweight CNN: one
convolutional layer of 8 kernels with ReLU, one max-pooling layer, a flatten
layer and a single sigmoid dense unit.  It consumes the E, N, W, S feature
frames of one sampling instant as a 4-channel image and outputs the
probability that a flooding attack is in progress anywhere on the NoC.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import DL2FenceConfig
from repro.monitor.dataset import DetectionDataset
from repro.monitor.frames import FrameSet
from repro.nn import (
    Adam,
    BinaryCrossEntropy,
    ClassificationReport,
    Conv2D,
    Dense,
    EarlyStopping,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Trainer,
    accuracy_score,
    load_model,
    save_model,
)

__all__ = ["effective_pool_size", "build_detector_model", "DoSDetector"]

#: Training hyper-parameters of the detector (Adam on BCE).
_BATCH_SIZE = 16
_LEARNING_RATE = 0.005
_PATIENCE = 15


def effective_pool_size(
    input_shape: tuple[int, int, int], kernel_size: int, pool_size: int
) -> int:
    """Largest pooling window (<= ``pool_size``) that fits after the convolution.

    Small meshes (e.g. the 4x4 point of the hardware sweep) leave a post-conv
    feature map too small for the default 2x2 pooling; this shrinks the pool
    window down to 1 instead of failing.
    """
    height, width, _ = input_shape
    conv_h = height - kernel_size + 1
    conv_w = width - kernel_size + 1
    if conv_h < 1 or conv_w < 1:
        raise ValueError(
            f"mesh too small for a {kernel_size}x{kernel_size} kernel: {input_shape}"
        )
    return max(1, min(pool_size, conv_h, conv_w))


def build_detector_model(
    input_shape: tuple[int, int, int],
    filters: int = 8,
    kernel_size: int = 3,
    pool_size: int = 2,
    seed: int = 0,
) -> Sequential:
    """Build the CNN classification model of Figure 2.

    ``input_shape`` is ``(rows, rows - 1, 4)`` on a square mesh: the four
    directional frames stacked as channels.
    """
    if len(input_shape) != 3:
        raise ValueError("detector input must be (height, width, channels)")
    pool_size = effective_pool_size(tuple(input_shape), kernel_size, pool_size)
    model = Sequential(
        [
            Conv2D(filters=filters, kernel_size=kernel_size, padding="valid"),
            ReLU(),
            MaxPool2D(pool_size=pool_size),
            Flatten(),
            Dense(1),
            Sigmoid(),
        ],
        seed=seed,
    )
    model.build(input_shape)
    return model


@dataclass
class DetectorTrainingSummary:
    """Outcome of a detector training run."""

    epochs: int
    final_loss: float
    final_accuracy: float


class DoSDetector:
    """Frame-level flooding-attack detector."""

    def __init__(
        self,
        input_shape: tuple[int, int, int],
        config: DL2FenceConfig | None = None,
        model: Sequential | None = None,
    ) -> None:
        self.config = config or DL2FenceConfig()
        self.input_shape = tuple(int(d) for d in input_shape)
        self.model = model or build_detector_model(
            self.input_shape,
            filters=self.config.detector_filters,
            kernel_size=self.config.detector_kernel_size,
            pool_size=self.config.detector_pool_size,
            seed=self.config.seed,
        )
        self.trained = model is not None
        #: 95th percentile of the detector's probability on *benign* training
        #: samples — its resting operating point.  Consumers (the evidence
        #: accumulator's stealth floor) use it to tell "slightly elevated"
        #: from "this detector always hums at 0.35": absolute probability
        #: levels are an artifact of the trained model and mesh scale.
        self.benign_calibration: float | None = None

    # -- training ------------------------------------------------------------
    def fit(self, dataset: DetectionDataset, epochs: int = 60) -> DetectorTrainingSummary:
        """Train the detector on a :class:`DetectionDataset`."""
        trainer = Trainer(
            self.model,
            BinaryCrossEntropy(),
            Adam(learning_rate=_LEARNING_RATE),
            accuracy_score,
            seed=self.config.seed,
        )
        history = trainer.fit(
            dataset.inputs,
            dataset.labels,
            epochs=epochs,
            batch_size=_BATCH_SIZE,
            early_stopping=EarlyStopping(patience=_PATIENCE),
        )
        self.trained = True
        benign = dataset.inputs[dataset.labels.reshape(-1) < 0.5]
        if benign.shape[0]:
            self.benign_calibration = float(
                np.percentile(self.predict_proba(benign), 95)
            )
            self.model.release_scratch()
        return DetectorTrainingSummary(
            epochs=history.epochs,
            final_loss=history.loss[-1],
            final_accuracy=history.final_metric,
        )

    # -- inference -------------------------------------------------------------
    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Attack probability for a batch of (H, W, 4) frame stacks."""
        inputs = np.asarray(inputs, dtype=self.model.dtype)
        if inputs.ndim == 3:
            inputs = inputs[None, ...]
        return self.model.predict(inputs).reshape(-1)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Binary attack decision for a batch of frame stacks."""
        return (self.predict_proba(inputs) >= self.config.detection_threshold).astype(
            np.int64
        )

    def detect(self, frame_set: FrameSet) -> tuple[bool, float]:
        """Online API: decide on a single :class:`FrameSet` sample."""
        stacked = frame_set.as_detector_input(
            normalize=self.config.detection_normalization
        )
        probability = float(self.predict_proba(stacked)[0])
        return probability >= self.config.detection_threshold, probability

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, dataset: DetectionDataset) -> ClassificationReport:
        """Frame-level detection metrics (accuracy/precision/recall/F1)."""
        probabilities = self.predict_proba(dataset.inputs)
        return ClassificationReport.from_predictions(
            dataset.labels.reshape(-1),
            probabilities,
            threshold=self.config.detection_threshold,
        )

    # -- persistence --------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist the trained model (``.npz``) plus its calibration sidecar."""
        saved = save_model(self.model, path)
        sidecar = self._calibration_path(saved)
        if self.benign_calibration is not None:
            sidecar.write_text(
                json.dumps({"benign_calibration": self.benign_calibration})
            )
        else:
            # An uncalibrated model must not inherit a previous occupant's
            # sidecar at the same path — stale calibration would silently
            # misplace the evidence accumulator's stealth floor.
            sidecar.unlink(missing_ok=True)
        return saved

    @classmethod
    def load(
        cls, path: str | Path, config: DL2FenceConfig | None = None
    ) -> "DoSDetector":
        """Load a previously saved detector (calibration sidecar optional)."""
        model = load_model(path)
        detector = cls(model.input_shape, config=config, model=model)
        detector.trained = True
        sidecar = cls._calibration_path(Path(path))
        if sidecar.exists():
            detector.benign_calibration = float(
                json.loads(sidecar.read_text())["benign_calibration"]
            )
        return detector

    @staticmethod
    def _calibration_path(model_path: Path) -> Path:
        return Path(model_path).with_suffix(".calibration.json")

    @property
    def num_parameters(self) -> int:
        """Trainable parameter count (input to the hardware area model)."""
        return self.model.num_parameters
