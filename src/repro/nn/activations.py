"""Activation layers for the NumPy neural-network substrate.

Each activation is a stateless :class:`repro.nn.layers.Layer` so it can be
placed anywhere inside a :class:`repro.nn.model.Sequential` stack.  The
DL2Fence detector uses ReLU after its convolution and a Sigmoid on the final
dense unit; the localizer uses ReLU between convolutions and a Sigmoid on the
per-pixel segmentation output.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer

__all__ = ["ReLU", "Sigmoid"]


class ReLU(Layer):
    """Rectified linear unit: ``max(x, 0)``."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._mask = inputs > 0
        return np.where(self._mask, inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._mask


class Sigmoid(Layer):
    """Logistic sigmoid, numerically stabilised for large magnitude inputs."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not np.issubdtype(np.asarray(inputs).dtype, np.floating):
            inputs = np.asarray(inputs, dtype=np.float64)
        out = np.empty_like(inputs)
        positive = inputs >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-inputs[positive]))
        exp_x = np.exp(inputs[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._output * (1.0 - self._output)

