"""Weight initializers for the NumPy neural-network substrate.

The tiny CNNs of DL2Fence (eight 3x3 kernels per convolutional layer) are
sensitive to initial weight scale because the feature frames are small
(R x (R-1) pixels) and the training sets are modest.  Dense layers draw
Glorot-uniform kernels and Conv2D layers He-normal ones; biases start at zero.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = ["Initializer", "Zeros", "GlorotUniform", "HeNormal"]


def _fan_in_fan_out(shape: Sequence[int]) -> tuple[int, int]:
    """Compute the fan-in / fan-out of a weight tensor.

    Dense kernels are ``(fan_in, fan_out)``; convolution kernels are
    ``(kh, kw, in_channels, out_channels)``.
    """
    if len(shape) < 1:
        raise ValueError("weight shape must have at least one dimension")
    if len(shape) == 1:
        return int(shape[0]), int(shape[0])
    if len(shape) == 2:
        return int(shape[0]), int(shape[1])
    receptive_field = 1
    for dim in shape[:-2]:
        receptive_field *= int(dim)
    fan_in = receptive_field * int(shape[-2])
    fan_out = receptive_field * int(shape[-1])
    return fan_in, fan_out


class Initializer(ABC):
    """Base class: an initializer maps a shape to a weight array."""

    @abstractmethod
    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Return a freshly initialised array of ``shape``."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class Zeros(Initializer):
    """All-zeros initializer, used for biases."""

    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        return np.zeros(shape, dtype=np.float64)


class GlorotUniform(Initializer):
    """Glorot / Xavier uniform initializer (Dense kernels)."""

    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        fan_in, fan_out = _fan_in_fan_out(shape)
        limit = math.sqrt(6.0 / max(1, fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(np.float64)


class HeNormal(Initializer):
    """He normal initializer (Conv2D kernels)."""

    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        fan_in, _ = _fan_in_fan_out(shape)
        stddev = math.sqrt(2.0 / max(1, fan_in))
        return rng.normal(0.0, stddev, size=shape).astype(np.float64)

