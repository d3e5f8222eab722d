"""Sequential model container for the NumPy neural-network substrate."""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro.nn.dtype import default_dtype
from repro.nn.layers import Layer
from repro.obs.metrics import METRICS, nn_forward_histogram

__all__ = ["Sequential"]

#: Samples per forward pass in :meth:`Sequential.predict`.  Every Conv2D
#: keeps an im2col patch matrix sized by the chunk: one 199-sample pass of
#: the 16x16 localizer held 29.2 MB of them, chunks of 32 hold 4.7 MB.
#: BLAS picks its GEMM kernel by matrix size, so the chunk size can move
#: outputs in the last bits.  With OpenBLAS 0.3.31 (Haswell kernels, x86-64,
#: one thread), chunks of 32 over whole chunks matched one forward bit for
#: bit for both CNNs at 8x8, 16x16 and 32x32 frame shapes, while chunks of
#: 16 or fewer diverged for the 16x16 detector and the 8x8 localizer.
_PREDICT_BATCH = 32


class Sequential:
    """A linear stack of layers with forward/backward propagation.

    The two DL2Fence CNNs (detector and localizer, Figure 2 of the paper) are
    both expressible as `Sequential` stacks, which keeps serialization and
    hardware-cost accounting straightforward.
    """

    def __init__(self, layers: Iterable[Layer], seed: int = 0) -> None:
        self.layers: list[Layer] = list(layers)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.input_shape: tuple[int, ...] | None = None
        self.dtype: np.dtype = default_dtype()

    # -- construction ---------------------------------------------------
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
        """Run a forward pass over a batch (in the model's build-time dtype).

        ``training`` only labels the pass in the forward-time metric.
        """
        inputs = np.asarray(inputs)
        self._ensure_built(inputs)
        inputs = inputs.astype(self.dtype, copy=False)
        if METRICS.active:
            start = perf_counter()
            out = inputs
            for layer in self.layers:
                out = layer.forward(out)
            nn_forward_histogram().observe(
                perf_counter() - start, mode="train" if training else "infer"
            )
            return out
        out = inputs
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate a gradient through the stack (after a forward pass)."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass, processed in mini-batches."""
        inputs = np.asarray(inputs)
        if inputs.shape[0] == 0:
            self._ensure_built(inputs)
            return np.zeros((0,) + tuple(self.output_shape), dtype=self.dtype)
        chunks = [
            self.forward(inputs[start : start + _PREDICT_BATCH])
            for start in range(0, inputs.shape[0], _PREDICT_BATCH)
        ]
        return np.concatenate(chunks, axis=0)

    def release_scratch(self) -> None:
        """Drop every layer's forward/backward scratch state."""
        for layer in self.layers:
            layer.release_scratch()

    # -- bookkeeping ------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Total trainable parameter count (used by the hardware area model)."""
        return int(sum(layer.num_parameters for layer in self.layers))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(layers={len(self.layers)}, params={self.num_parameters})"
