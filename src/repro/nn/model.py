"""Sequential model container for the NumPy neural-network substrate."""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro.nn.dtype import default_dtype
from repro.nn.layers import Layer
from repro.obs.metrics import METRICS, nn_forward_histogram

__all__ = ["Sequential"]


class Sequential:
    """A linear stack of layers with forward/backward propagation.

    The two DL2Fence CNNs (detector and localizer, Figure 2 of the paper) are
    both expressible as `Sequential` stacks, which keeps serialization and
    hardware-cost accounting straightforward.
    """

    def __init__(self, layers: Iterable[Layer] | None = None, seed: int = 0) -> None:
        self.layers: list[Layer] = list(layers) if layers is not None else []
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.input_shape: tuple[int, ...] | None = None
        self.dtype: np.dtype = default_dtype()

    # -- construction ---------------------------------------------------
    def add(self, layer: Layer) -> "Sequential":
        """Append a layer; returns self for chaining."""
        if self.input_shape is not None:
            raise RuntimeError("cannot add layers after the model has been built")
        self.layers.append(layer)
        return self

    def build(self, input_shape: Sequence[int]) -> "Sequential":
        """Allocate all layer parameters for a per-sample ``input_shape``."""
        shape = tuple(int(d) for d in input_shape)
        self.input_shape = shape
        # Parameters are allocated in the process-wide default dtype; the
        # model keeps computing in that dtype even if the default changes.
        self.dtype = default_dtype()
        for layer in self.layers:
            layer.build(shape, self._rng)
            shape = layer.output_shape(shape)
        self.output_shape = shape
        return self

    def _ensure_built(self, batch: np.ndarray) -> None:
        if self.input_shape is None:
            self.build(batch.shape[1:])
        elif tuple(batch.shape[1:]) != self.input_shape:
            raise ValueError(
                f"model built for per-sample shape {self.input_shape}, "
                f"got batch of per-sample shape {tuple(batch.shape[1:])}"
            )

    # -- computation ----------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a forward pass over a batch (in the model's build-time dtype)."""
        inputs = np.asarray(inputs)
        self._ensure_built(inputs)
        inputs = inputs.astype(self.dtype, copy=False)
        if METRICS.active:
            start = perf_counter()
            out = inputs
            for layer in self.layers:
                out = layer.forward(out, training=training)
            nn_forward_histogram().observe(
                perf_counter() - start, mode="train" if training else "infer"
            )
            return out
        out = inputs
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate a gradient through the stack (after a forward pass)."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference-mode forward pass, processed in mini-batches."""
        inputs = np.asarray(inputs)
        if inputs.shape[0] == 0:
            self._ensure_built(inputs)
            return np.zeros((0,) + tuple(self.output_shape), dtype=self.dtype)
        chunks = [
            self.forward(inputs[start : start + batch_size], training=False)
            for start in range(0, inputs.shape[0], batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs, training=False)

    def release_scratch(self) -> None:
        """Drop every layer's forward/backward scratch state."""
        for layer in self.layers:
            layer.release_scratch()

    # -- bookkeeping ------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Total trainable parameter count (used by the hardware area model)."""
        return int(sum(layer.num_parameters for layer in self.layers))

    def summary(self) -> str:
        """Human-readable architecture summary."""
        if self.input_shape is None:
            raise RuntimeError("build the model (or run a forward pass) before summary()")
        lines = [f"Sequential: input {self.input_shape}"]
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            lines.append(
                f"  {type(layer).__name__:<12} -> {shape}  params={layer.num_parameters}"
            )
        lines.append(f"Total parameters: {self.num_parameters}")
        return "\n".join(lines)

    def get_weights(self) -> list[dict[str, np.ndarray]]:
        """Copy of every layer's parameter dictionary."""
        return [{k: v.copy() for k, v in layer.params.items()} for layer in self.layers]

    def set_weights(self, weights: list[dict[str, np.ndarray]]) -> None:
        """Load parameters previously produced by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ValueError(
                f"expected weights for {len(self.layers)} layers, got {len(weights)}"
            )
        for layer, layer_weights in zip(self.layers, weights):
            for name, value in layer_weights.items():
                if name not in layer.params:
                    raise KeyError(
                        f"layer {type(layer).__name__} has no parameter {name!r}"
                    )
                if layer.params[name].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {type(layer).__name__}.{name}: "
                        f"{layer.params[name].shape} vs {value.shape}"
                    )
                layer.params[name] = np.asarray(value, dtype=self.dtype).copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(layers={len(self.layers)}, params={self.num_parameters})"
