"""Floating-point precision control for the NumPy neural-network substrate.

The DL2Fence CNNs are tiny (a few thousand parameters) but their im2col
matrix multiplications dominate the wall-clock of both training and the
guard's online batched forward pass.  Running them in ``float32`` halves the
memory traffic of every GEMM and measurably speeds up the whole experiment
suite, while the models' *decisions* (thresholded detector probabilities,
binarized segmentation masks) are unchanged on the test fixtures — the
documented tolerance is ~1e-5 on raw probabilities for weight-equivalent
models.

The default dtype is ``float32`` and can be overridden with the
``REPRO_NN_DTYPE`` environment variable (``float32`` / ``float64``) or at
runtime with :func:`set_default_dtype` / the :func:`use_dtype` context
manager.  A :class:`~repro.nn.model.Sequential` model captures the default at
build time and keeps computing in that dtype afterwards, so changing the
global default never silently re-types an existing model.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["default_dtype", "set_default_dtype", "use_dtype", "resolve_dtype"]

_SUPPORTED = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}


def resolve_dtype(spec: str | np.dtype | type) -> np.dtype:
    """Normalise a dtype spec (name, dtype or scalar type) to a supported dtype."""
    name = np.dtype(spec).name
    if name not in _SUPPORTED:
        raise ValueError(
            f"unsupported NN dtype {name!r}; supported: {sorted(_SUPPORTED)}"
        )
    return _SUPPORTED[name]


def _from_environment() -> np.dtype:
    """``REPRO_NN_DTYPE`` (unset or empty: ``float32``); raises on any other name."""
    raw = os.environ.get("REPRO_NN_DTYPE", "").strip().lower()
    if not raw:
        return _SUPPORTED["float32"]
    if raw not in _SUPPORTED:
        raise ValueError(
            f"unsupported REPRO_NN_DTYPE {raw!r}; supported: {sorted(_SUPPORTED)}"
        )
    return _SUPPORTED[raw]


_default: np.dtype = _from_environment()


def default_dtype() -> np.dtype:
    """The dtype new models are built with (env-seeded, runtime-overridable)."""
    return _default


def set_default_dtype(spec: str | np.dtype | type) -> np.dtype:
    """Set the process-wide default NN dtype; returns the resolved dtype."""
    global _default
    _default = resolve_dtype(spec)
    return _default


@contextmanager
def use_dtype(spec: str | np.dtype | type) -> Iterator[np.dtype]:
    """Temporarily switch the default NN dtype (used by model loading/tests)."""
    previous = default_dtype()
    resolved = set_default_dtype(spec)
    try:
        yield resolved
    finally:
        set_default_dtype(previous)
