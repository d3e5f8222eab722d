"""Unit tests for model save/load."""

import json

import numpy as np
import pytest

from repro.core.detector import build_detector_model
from repro.core.localizer import build_localizer_model
from repro.nn.activations import ReLU, Sigmoid
from repro.nn.dtype import use_dtype
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.model import Sequential
from repro.nn.serialization import load_model, save_model


def build_model(seed=0):
    model = Sequential(
        [
            Conv2D(filters=4, kernel_size=3, padding="same"),
            ReLU(),
            MaxPool2D(pool_size=2),
            Flatten(),
            Dense(1),
            Sigmoid(),
        ],
        seed=seed,
    )
    model.build((6, 6, 2))
    return model


class TestSaveLoad:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = build_model()
        x = np.random.default_rng(0).normal(size=(3, 6, 6, 2))
        expected = model.predict(x)
        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path)
        assert np.allclose(restored.predict(x), expected)

    def test_round_trip_preserves_architecture(self, tmp_path):
        model = build_model()
        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path)
        assert [type(l).__name__ for l in restored.layers] == [
            type(l).__name__ for l in model.layers
        ]
        assert restored.num_parameters == model.num_parameters
        assert restored.input_shape == model.input_shape

    def test_save_appends_npz_suffix(self, tmp_path):
        model = build_model()
        path = save_model(model, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_load_accepts_path_without_suffix(self, tmp_path):
        model = build_model()
        save_model(model, tmp_path / "model")
        restored = load_model(tmp_path / "model")
        assert restored.num_parameters == model.num_parameters

    def test_save_unbuilt_model_rejected(self, tmp_path):
        model = Sequential([Dense(1)])
        with pytest.raises(ValueError):
            save_model(model, tmp_path / "model.npz")

    def test_creates_parent_directories(self, tmp_path):
        model = build_model()
        path = save_model(model, tmp_path / "nested" / "dir" / "model.npz")
        assert path.exists()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "does_not_exist.npz")

    def test_round_trip_preserves_seed_and_dtype(self, tmp_path):
        model = Sequential([Flatten(), Dense(2)], seed=9)
        with use_dtype("float64"):
            model.build((3, 2))
        restored = load_model(save_model(model, tmp_path / "model.npz"))
        assert restored.seed == 9
        assert restored.dtype == np.float64

    def test_round_trip_keeps_non_default_options(self, tmp_path):
        model = Sequential(
            [
                Conv2D(filters=2, kernel_size=(3, 2), stride=2, use_bias=False),
                MaxPool2D(pool_size=2, stride=1),
                Flatten(),
                Dense(1, use_bias=False),
            ]
        )
        model.build((9, 8, 1))
        restored = load_model(save_model(model, tmp_path / "model.npz"))
        assert [layer.get_config() for layer in restored.layers] == [
            layer.get_config() for layer in model.layers
        ]
        x = np.random.default_rng(1).normal(size=(2, 9, 8, 1))
        assert np.array_equal(restored.predict(x), model.predict(x))

    @pytest.mark.parametrize(
        "build, shape",
        [(build_detector_model, (16, 15, 4)), (build_localizer_model, (16, 15, 1))],
        ids=["detector", "localizer"],
    )
    def test_dl2fence_models_predict_bit_identically(self, tmp_path, build, shape):
        model = build(shape)
        model.build(shape)
        x = np.random.default_rng(2).random((4,) + shape)
        restored = load_model(save_model(model, tmp_path / "model.npz"))
        assert restored.predict(x).tobytes() == model.predict(x).tobytes()


def conv_config(filters, padding):
    return {
        "type": "Conv2D",
        "filters": filters,
        "kernel_size": [3, 3],
        "stride": 1,
        "padding": padding,
        "use_bias": True,
    }


class TestSavedFormat:
    """The layer configs are the on-disk model format the artifact cache holds."""

    def test_detector_config_pinned(self):
        model = build_detector_model((16, 15, 4))
        assert [layer.get_config() for layer in model.layers] == [
            conv_config(8, "valid"),
            {"type": "ReLU"},
            {"type": "MaxPool2D", "pool_size": [2, 2], "stride": 2},
            {"type": "Flatten"},
            {"type": "Dense", "units": 1, "use_bias": True},
            {"type": "Sigmoid"},
        ]

    def test_localizer_config_pinned(self):
        model = build_localizer_model((16, 15, 1))
        assert [layer.get_config() for layer in model.layers] == [
            conv_config(8, "same"),
            {"type": "ReLU"},
            conv_config(8, "same"),
            {"type": "ReLU"},
            conv_config(1, "same"),
            {"type": "Sigmoid"},
        ]

    def test_unknown_layer_type_rejected(self, tmp_path):
        path = save_model(build_model(), tmp_path / "model.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        architecture = json.loads(bytes(arrays["architecture"]).decode("utf-8"))
        architecture["layers"].insert(1, {"type": "BatchNorm", "momentum": 0.9, "epsilon": 1e-5})
        arrays["architecture"] = np.frombuffer(
            json.dumps(architecture).encode("utf-8"), dtype=np.uint8
        )
        stale = tmp_path / "stale.npz"
        np.savez(stale, **arrays)
        with pytest.raises(KeyError, match="BatchNorm"):
            load_model(stale)

    def _rewrite(self, tmp_path, edit):
        """Save a small model, apply ``edit`` to its arrays and write a copy."""
        path = save_model(build_model(), tmp_path / "model.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        architecture = json.loads(bytes(arrays["architecture"]).decode("utf-8"))
        edit(arrays, architecture)
        arrays["architecture"] = np.frombuffer(
            json.dumps(architecture).encode("utf-8"), dtype=np.uint8
        )
        edited = tmp_path / "edited.npz"
        np.savez(edited, **arrays)
        return edited

    def test_missing_weight_rejected(self, tmp_path):
        def drop_dense_bias(arrays, architecture):
            del arrays["layer4__b"]

        with pytest.raises(KeyError, match="layer4__b"):
            load_model(self._rewrite(tmp_path, drop_dense_bias))

    def test_archive_without_dtype_loads_as_float64(self, tmp_path):
        def drop_dtype(arrays, architecture):
            del architecture["dtype"]

        restored = load_model(self._rewrite(tmp_path, drop_dtype))
        assert restored.dtype == np.float64
        for layer in restored.layers:
            for value in layer.params.values():
                assert value.dtype == np.float64
