"""NumPy deep-learning substrate used to train the DL2Fence CNN models.

The paper trains its detector and localizer with TensorFlow 2.0.  This
reproduction runs fully offline, so a deliberately small deep-learning
framework for the two CNNs is provided here.  It has the layer types they
need (2-D convolution, max pooling, dense layers, ReLU/Sigmoid activations),
binary cross-entropy and Dice losses, the Adam optimizer, and a training loop
with early stopping.

Everything operates on ``numpy.ndarray`` batches in NHWC layout
(``(batch, height, width, channels)``), which matches how the feature frames
of Section 3 are naturally expressed.
"""

from repro.nn.activations import ReLU, Sigmoid
from repro.nn.dtype import default_dtype, resolve_dtype, set_default_dtype, use_dtype
from repro.nn.initializers import GlorotUniform, HeNormal, Initializer, Zeros
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D
from repro.nn.losses import BinaryCrossEntropy, DiceLoss, Loss, combined_bce_dice
from repro.nn.metrics import (
    ClassificationReport,
    accuracy_score,
    confusion_counts,
    dice_coefficient,
    f1_score,
    iou_score,
    precision_score,
    recall_score,
    segmentation_report,
)
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.serialization import load_model, save_model
from repro.nn.training import EarlyStopping, History, Trainer

__all__ = [
    "Adam",
    "BinaryCrossEntropy",
    "ClassificationReport",
    "Conv2D",
    "Dense",
    "DiceLoss",
    "EarlyStopping",
    "Flatten",
    "GlorotUniform",
    "HeNormal",
    "History",
    "Initializer",
    "Layer",
    "Loss",
    "MaxPool2D",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Trainer",
    "Zeros",
    "accuracy_score",
    "combined_bce_dice",
    "confusion_counts",
    "default_dtype",
    "dice_coefficient",
    "f1_score",
    "iou_score",
    "load_model",
    "precision_score",
    "recall_score",
    "resolve_dtype",
    "save_model",
    "segmentation_report",
    "set_default_dtype",
    "use_dtype",
]
