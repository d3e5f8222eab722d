"""The Adam optimizer that trains both DL2Fence CNNs."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.layers import Layer

__all__ = ["Adam"]

_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


class Adam:
    """Adam (Kingma & Ba) with the usual betas (0.9, 0.999) and epsilon 1e-8."""

    def __init__(self, learning_rate: float = 0.001) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self._m: dict[tuple, np.ndarray] = {}
        self._v: dict[tuple, np.ndarray] = {}
        self._t: dict[tuple, int] = {}

    def step(self, layers: Iterable[Layer]) -> None:
        """Apply one update using the gradients currently stored on layers."""
        for layer_index, layer in enumerate(layers):
            for name, param in layer.params.items():
                grad = layer.grads.get(name)
                if grad is not None:
                    self._update((layer_index, name), param, grad)

    def _update(self, key: tuple, param: np.ndarray, grad: np.ndarray) -> None:
        """Update ``param`` in place."""
        m = self._m.get(key)
        v = self._v.get(key)
        if m is None:
            m = np.zeros_like(param)
            v = np.zeros_like(param)
        t = self._t.get(key, 0) + 1
        m = _BETA1 * m + (1.0 - _BETA1) * grad
        v = _BETA2 * v + (1.0 - _BETA2) * grad**2
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)
        self._m[key] = m
        self._v[key] = v
        self._t[key] = t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Adam(lr={self.learning_rate})"
