"""Save and load :class:`~repro.nn.model.Sequential` models.

Models are stored as a single ``.npz`` archive containing a JSON architecture
description plus every parameter array.  This keeps trained DL2Fence
detectors/localizers reusable between the dataset-generation step and the
benchmark harness without requiring pickle.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.nn.activations import ReLU, Sigmoid
from repro.nn.dtype import use_dtype
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D
from repro.nn.model import Sequential

__all__ = ["save_model", "load_model"]

_LAYER_CLASSES = {
    cls.__name__: cls for cls in (Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sigmoid)
}


def _layer_from_config(config: dict) -> Layer:
    config = dict(config)
    layer_type = config.pop("type")
    if layer_type not in _LAYER_CLASSES:
        raise KeyError(f"unknown layer type {layer_type!r} in saved model")
    cls = _LAYER_CLASSES[layer_type]
    kwargs = {}
    for key, value in config.items():
        if key in ("kernel_size", "pool_size"):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def save_model(model: Sequential, path: str | Path) -> Path:
    """Serialise architecture + weights to ``path`` (``.npz``)."""
    if model.input_shape is None:
        raise ValueError("model must be built before saving")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    architecture = {
        "input_shape": list(model.input_shape),
        "seed": model.seed,
        "dtype": np.dtype(model.dtype).name,
        "layers": [layer.get_config() for layer in model.layers],
    }
    arrays: dict[str, np.ndarray] = {
        "architecture": np.frombuffer(
            json.dumps(architecture).encode("utf-8"), dtype=np.uint8
        )
    }
    for index, layer in enumerate(model.layers):
        for name, value in layer.params.items():
            arrays[f"layer{index}__{name}"] = value
    np.savez(path, **arrays)
    # np.savez appends .npz only when missing; normalise the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_model(path: str | Path) -> Sequential:
    """Load a model previously written by :func:`save_model`."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as archive:
        architecture = json.loads(bytes(archive["architecture"]).decode("utf-8"))
        model = Sequential(
            [_layer_from_config(cfg) for cfg in architecture["layers"]],
            seed=architecture.get("seed", 0),
        )
        # Models saved before the dtype-parameterized substrate were float64.
        with use_dtype(architecture.get("dtype", "float64")):
            model.build(architecture["input_shape"])
        for index, layer in enumerate(model.layers):
            for name in list(layer.params):
                key = f"layer{index}__{name}"
                if key not in archive:
                    raise KeyError(f"missing weight {key!r} in {path}")
                layer.params[name] = archive[key].astype(model.dtype)
    return model
