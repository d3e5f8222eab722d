"""Trainable and structural layers for the NumPy neural-network substrate.

Layers operate on NHWC batches (``(batch, height, width, channels)``) for the
convolutional stages and on ``(batch, features)`` matrices for the dense
stages.  Convolution is implemented with an im2col transformation so that
forward and backward passes reduce to matrix multiplications, which keeps the
training of the small DL2Fence models (15x16 input frames, 8 kernels) fast
enough to run inside the test suite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.dtype import default_dtype
from repro.nn.initializers import GlorotUniform, HeNormal, Zeros

__all__ = ["Layer", "Dense", "Conv2D", "MaxPool2D", "Flatten"]


#: Scratch attributes produced by forward/backward passes (cached input
#: batches, im2col buffers, pooling argmax maps, ...).  They are dropped when
#: a layer is pickled and when training ends: workers, artifacts and trained
#: models only need parameters and configuration, not stale activations.
_TRANSIENT_STATE = frozenset(
    {
        "_argmax",
        "_cache",
        "_col_buffer",
        "_grad_buffer",
        "_inputs",
        "_input_shape",
        "_mask",
        "_out_dims",
        "_output",
    }
)


class Layer:
    """Base class for every layer.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Trainable
    layers expose ``params`` and ``grads`` dictionaries keyed by parameter
    name; the optimizer updates ``params`` in place using ``grads``.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False

    def __getstate__(self) -> dict:
        """Pickle without forward-pass scratch state (see _TRANSIENT_STATE)."""
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in _TRANSIENT_STATE
        }

    def release_scratch(self) -> None:
        """Drop forward/backward scratch state (the next pass rebuilds it)."""
        self.__dict__ = self.__getstate__()

    # -- lifecycle -----------------------------------------------------
    def build(self, input_shape: Sequence[int], rng: np.random.Generator) -> None:
        """Allocate parameters given the per-sample input shape."""
        self.built = True

    def output_shape(self, input_shape: Sequence[int]) -> tuple[int, ...]:
        """Per-sample output shape for a per-sample ``input_shape``."""
        return tuple(input_shape)

    # -- computation ---------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- bookkeeping ---------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def get_config(self) -> dict:
        """JSON-serialisable configuration used by model serialization."""
        return {"type": type(self).__name__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(params={self.num_parameters})"


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W + b``."""

    def __init__(self, units: int, use_bias: bool = True) -> None:
        super().__init__()
        if units <= 0:
            raise ValueError("units must be positive")
        self.units = int(units)
        self.use_bias = bool(use_bias)

    def build(self, input_shape: Sequence[int], rng: np.random.Generator) -> None:
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat per-sample inputs, got shape {tuple(input_shape)}"
            )
        in_features = int(input_shape[0])
        dtype = default_dtype()
        self.params["W"] = GlorotUniform()((in_features, self.units), rng).astype(
            dtype, copy=False
        )
        if self.use_bias:
            self.params["b"] = Zeros()((self.units,), rng).astype(dtype, copy=False)
        super().build(input_shape, rng)

    def output_shape(self, input_shape: Sequence[int]) -> tuple[int, ...]:
        return (self.units,)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._inputs = inputs
        out = inputs @ self.params["W"]
        if self.use_bias:
            out = out + self.params["b"]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.grads["W"] = self._inputs.T @ grad_output
        if self.use_bias:
            self.grads["b"] = grad_output.sum(axis=0)
        return grad_output @ self.params["W"].T

    def get_config(self) -> dict:
        config = super().get_config()
        config.update({"units": self.units, "use_bias": self.use_bias})
        return config


def _pad_input(inputs: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NHWC batch by ``pad`` on each side."""
    if pad == 0:
        return inputs
    batch, height, width, channels = inputs.shape
    padded = np.zeros(
        (batch, height + 2 * pad, width + 2 * pad, channels), dtype=inputs.dtype
    )
    padded[:, pad:-pad, pad:-pad, :] = inputs
    return padded


def _im2col(
    inputs: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    buffer: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int, np.ndarray]:
    """Extract sliding patches from an NHWC batch into a contiguous GEMM matrix.

    Returns ``(cols, out_h, out_w, buffer)`` where ``cols`` has shape
    ``(batch * out_h * out_w, kh * kw * channels)``.  ``cols`` is a view into
    ``buffer``, a flat scratch array that callers keep and pass back in so the
    (large) patch matrix is allocated once and reused across minibatches
    instead of reallocated every forward pass.
    """
    batch, height, width, channels = inputs.shape
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) does not fit input ({height}x{width}) with stride {stride}"
        )
    strides = inputs.strides
    patch_view = np.lib.stride_tricks.as_strided(
        inputs,
        shape=(batch, out_h, out_w, kh, kw, channels),
        strides=(
            strides[0],
            strides[1] * stride,
            strides[2] * stride,
            strides[1],
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    size = batch * out_h * out_w * kh * kw * channels
    if buffer is None or buffer.size < size or buffer.dtype != inputs.dtype:
        buffer = np.empty(size, dtype=inputs.dtype)
    cols6 = buffer[:size].reshape(batch, out_h, out_w, kh, kw, channels)
    np.copyto(cols6, patch_view)
    cols = cols6.reshape(batch * out_h * out_w, kh * kw * channels)
    return cols, out_h, out_w, buffer


def _col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    out_h: int,
    out_w: int,
    buffer: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter-add column gradients back to the (padded) input layout.

    Returns ``(grad_input, buffer)``.  The column gradient is first copied
    (kh, kw)-major into ``buffer``, a flat scratch array that callers keep and
    pass back in (as with :func:`_im2col`), so each of the ``kh * kw`` shifted
    adds reads one contiguous block instead of a strided slice.  The adds run
    in the same ``(i, j)`` order either way, so every element receives the
    same float additions in the same sequence.
    """
    batch, height, width, channels = input_shape
    if buffer is None or buffer.size < cols.size or buffer.dtype != cols.dtype:
        buffer = np.empty(cols.size, dtype=cols.dtype)
    shifted = buffer[: cols.size].reshape(kh, kw, batch, out_h, out_w, channels)
    np.copyto(
        shifted,
        cols.reshape(batch, out_h, out_w, kh, kw, channels).transpose(3, 4, 0, 1, 2, 5),
    )
    grad_input = np.zeros(input_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            grad_input[:, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :] += (
                shifted[i, j]
            )
    return grad_input, buffer


class Conv2D(Layer):
    """2-D convolution over NHWC inputs.

    Parameters mirror the layers shown in Figure 2 of the paper: the detector
    uses a single ``Conv2D(filters=8, kernel_size=3)`` stage and the localizer
    stacks two of them with 'same' padding so the segmentation output keeps
    the frame geometry.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int | tuple[int, int] = 3,
        stride: int = 1,
        padding: str = "valid",
        use_bias: bool = True,
    ) -> None:
        super().__init__()
        if filters <= 0:
            raise ValueError("filters must be positive")
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        if kernel_size[0] <= 0 or kernel_size[1] <= 0:
            raise ValueError("kernel_size dims must be positive")
        if stride <= 0:
            raise ValueError("stride must be positive")
        if padding not in ("valid", "same"):
            raise ValueError("padding must be 'valid' or 'same'")
        if padding == "same" and stride != 1:
            raise ValueError("'same' padding requires stride 1")
        self.filters = int(filters)
        self.kernel_size = (int(kernel_size[0]), int(kernel_size[1]))
        self.stride = int(stride)
        self.padding = padding
        self.use_bias = bool(use_bias)

    def _pad_amount(self) -> int:
        if self.padding == "valid":
            return 0
        # 'same' with stride 1 and odd kernels keeps spatial dims.
        return (self.kernel_size[0] - 1) // 2

    def build(self, input_shape: Sequence[int], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ValueError(
                f"Conv2D expects (H, W, C) per-sample inputs, got {tuple(input_shape)}"
            )
        channels = int(input_shape[2])
        kh, kw = self.kernel_size
        dtype = default_dtype()
        self.params["W"] = HeNormal()((kh, kw, channels, self.filters), rng).astype(
            dtype, copy=False
        )
        if self.use_bias:
            self.params["b"] = Zeros()((self.filters,), rng).astype(dtype, copy=False)
        super().build(input_shape, rng)

    def output_shape(self, input_shape: Sequence[int]) -> tuple[int, ...]:
        height, width, _ = input_shape
        kh, kw = self.kernel_size
        pad = self._pad_amount()
        out_h = (height + 2 * pad - kh) // self.stride + 1
        out_w = (width + 2 * pad - kw) // self.stride + 1
        return (out_h, out_w, self.filters)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        pad = self._pad_amount()
        padded = _pad_input(inputs, pad)
        kh, kw = self.kernel_size
        cols, out_h, out_w, self._col_buffer = _im2col(
            padded, kh, kw, self.stride, getattr(self, "_col_buffer", None)
        )
        weights = self.params["W"].reshape(kh * kw * padded.shape[3], self.filters)
        out = cols @ weights
        if self.use_bias:
            out = out + self.params["b"]
        self._cache = (cols, padded.shape, inputs.shape, out_h, out_w)
        return out.reshape(inputs.shape[0], out_h, out_w, self.filters)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        cols, padded_shape, input_shape, out_h, out_w = self._cache
        kh, kw = self.kernel_size
        channels = padded_shape[3]
        grad_flat = grad_output.reshape(-1, self.filters)
        self.grads["W"] = (cols.T @ grad_flat).reshape(kh, kw, channels, self.filters)
        if self.use_bias:
            self.grads["b"] = grad_flat.sum(axis=0)
        weights = self.params["W"].reshape(kh * kw * channels, self.filters)
        grad_cols = grad_flat @ weights.T
        grad_padded, self._grad_buffer = _col2im(
            grad_cols,
            padded_shape,
            kh,
            kw,
            self.stride,
            out_h,
            out_w,
            getattr(self, "_grad_buffer", None),
        )
        pad = self._pad_amount()
        if pad:
            grad_padded = grad_padded[:, pad:-pad, pad:-pad, :]
        return grad_padded.reshape(input_shape)

    def get_config(self) -> dict:
        config = super().get_config()
        config.update(
            {
                "filters": self.filters,
                "kernel_size": list(self.kernel_size),
                "stride": self.stride,
                "padding": self.padding,
                "use_bias": self.use_bias,
            }
        )
        return config


class MaxPool2D(Layer):
    """Max pooling over non-overlapping (or strided) windows of NHWC inputs."""

    def __init__(self, pool_size: int | tuple[int, int] = 2, stride: int | None = None) -> None:
        super().__init__()
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        if pool_size[0] <= 0 or pool_size[1] <= 0:
            raise ValueError("pool_size dims must be positive")
        self.pool_size = (int(pool_size[0]), int(pool_size[1]))
        self.stride = int(stride) if stride is not None else int(pool_size[0])
        if self.stride <= 0:
            raise ValueError("stride must be positive")

    def output_shape(self, input_shape: Sequence[int]) -> tuple[int, ...]:
        height, width, channels = input_shape
        ph, pw = self.pool_size
        out_h = (height - ph) // self.stride + 1
        out_w = (width - pw) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"pool {self.pool_size} does not fit input ({height}x{width})"
            )
        return (out_h, out_w, channels)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        batch, height, width, channels = inputs.shape
        ph, pw = self.pool_size
        out_h = (height - ph) // self.stride + 1
        out_w = (width - pw) // self.stride + 1
        strides = inputs.strides
        windows = np.lib.stride_tricks.as_strided(
            inputs,
            shape=(batch, out_h, out_w, ph, pw, channels),
            strides=(
                strides[0],
                strides[1] * self.stride,
                strides[2] * self.stride,
                strides[1],
                strides[2],
                strides[3],
            ),
            writeable=False,
        )
        flat = windows.reshape(batch, out_h, out_w, ph * pw, channels)
        self._argmax = flat.argmax(axis=3)
        self._input_shape = inputs.shape
        self._out_dims = (out_h, out_w)
        return flat.max(axis=3)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        batch, height, width, channels = self._input_shape
        ph, pw = self.pool_size
        out_h, out_w = self._out_dims
        grad_input = np.zeros(self._input_shape, dtype=grad_output.dtype)
        # Decompose flat argmax indices back into window coordinates.
        win_rows, win_cols = np.divmod(self._argmax, pw)
        b_idx, oh_idx, ow_idx, c_idx = np.meshgrid(
            np.arange(batch),
            np.arange(out_h),
            np.arange(out_w),
            np.arange(channels),
            indexing="ij",
        )
        rows = oh_idx * self.stride + win_rows
        cols = ow_idx * self.stride + win_cols
        np.add.at(grad_input, (b_idx, rows, cols, c_idx), grad_output)
        return grad_input

    def get_config(self) -> dict:
        config = super().get_config()
        config.update({"pool_size": list(self.pool_size), "stride": self.stride})
        return config


class Flatten(Layer):
    """Flatten all per-sample dimensions into a single feature vector."""

    def output_shape(self, input_shape: Sequence[int]) -> tuple[int, ...]:
        size = 1
        for dim in input_shape:
            size *= int(dim)
        return (size,)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._input_shape)

