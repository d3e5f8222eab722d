"""The float32 fast path: dtype plumbing and decision equivalence.

The documented tolerance of the float32 substrate: raw probabilities of a
weight-equivalent model agree with the float64 reference to ~1e-5, and every
*decision* (thresholded detector output, binarized segmentation mask) is
bit-identical on the test fixtures.
"""

import numpy as np
import pytest

from repro.core.detector import build_detector_model
from repro.core.localizer import build_localizer_model
from repro.nn.dtype import (
    _from_environment,
    default_dtype,
    resolve_dtype,
    set_default_dtype,
    use_dtype,
)
from repro.nn.layers import Conv2D
from repro.nn.losses import BinaryCrossEntropy
from repro.nn.metrics import accuracy_score
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.serialization import load_model, save_model
from repro.nn.training import EarlyStopping, Trainer


def train(model, x, y, epochs, batch_size, seed):
    """Train on BCE with Adam (lr 0.005) for exactly ``epochs`` epochs."""
    trainer = Trainer(
        model, BinaryCrossEntropy(), Adam(learning_rate=0.005), accuracy_score, seed=seed
    )
    trainer.fit(x, y, epochs, batch_size, EarlyStopping(patience=epochs))


def copy_weights(source, target):
    """Copy ``source``'s parameters into ``target``, cast to its dtype."""
    for src, dst in zip(source.layers, target.layers):
        for name, value in src.params.items():
            dst.params[name] = value.astype(target.dtype)


class TestDtypeControls:
    def test_default_is_float32(self):
        assert default_dtype() == np.float32

    def test_use_dtype_restores(self):
        before = default_dtype()
        with use_dtype("float64") as dtype:
            assert dtype == np.float64
            assert default_dtype() == np.float64
        assert default_dtype() == before

    def test_set_and_resolve(self):
        previous = default_dtype()
        try:
            assert set_default_dtype(np.float64) == np.float64
            assert default_dtype() == np.float64
        finally:
            set_default_dtype(previous)

    def test_resolve_rejects_unsupported(self):
        with pytest.raises(ValueError):
            resolve_dtype("float16")
        with pytest.raises(ValueError):
            resolve_dtype(np.int32)

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("", np.float32),
            ("  ", np.float32),
            ("float64", np.float64),
            (" Float32 ", np.float32),
        ],
    )
    def test_environment_names(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_NN_DTYPE", value)
        assert _from_environment() == expected

    @pytest.mark.parametrize("value", ["fp64", "float16", "double", "f8"])
    def test_environment_rejects_unknown_name(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NN_DTYPE", value)
        supported = r"REPRO_NN_DTYPE.*\['float32', 'float64'\]"
        with pytest.raises(ValueError, match=supported):
            _from_environment()

    def test_use_dtype_restores_on_exception(self):
        before = default_dtype()
        with pytest.raises(RuntimeError):
            with use_dtype("float64"):
                raise RuntimeError("boom")
        assert default_dtype() == before


class TestModelDtype:
    def test_build_captures_default(self):
        with use_dtype("float32"):
            model = build_detector_model((8, 7, 4), seed=0)
        assert model.dtype == np.float32
        for layer in model.layers:
            for value in layer.params.values():
                assert value.dtype == np.float32

    def test_forward_output_dtype_follows_model(self):
        x = np.random.default_rng(0).random((3, 8, 7, 4))  # float64 input
        with use_dtype("float32"):
            model = build_detector_model((8, 7, 4), seed=0)
        assert model.predict(x).dtype == np.float32
        with use_dtype("float64"):
            model64 = build_detector_model((8, 7, 4), seed=0)
        assert model64.predict(x).dtype == np.float64

    def test_model_dtype_survives_global_change(self):
        with use_dtype("float32"):
            model = build_detector_model((8, 7, 4), seed=0)
        with use_dtype("float64"):
            out = model.predict(np.zeros((1, 8, 7, 4)))
        assert out.dtype == np.float32

    def test_serialization_round_trips_dtype(self, tmp_path):
        with use_dtype("float32"):
            model = build_detector_model((8, 7, 4), seed=0)
        path = save_model(model, tmp_path / "model.npz")
        loaded = load_model(path)
        assert loaded.dtype == np.float32
        for la, lb in zip(model.layers, loaded.layers):
            for name in la.params:
                assert la.params[name].dtype == lb.params[name].dtype
                assert np.array_equal(la.params[name], lb.params[name])


def _weight_equivalent_pair(builder, shape):
    """The same architecture in float64 and float32 with identical weights."""
    with use_dtype("float64"):
        reference = builder(shape, seed=5)
    with use_dtype("float32"):
        fast = builder(shape, seed=5)
    copy_weights(reference, fast)  # cast float64 -> float32
    return reference, fast


class TestDecisionEquivalence:
    def test_detector_decisions_bit_identical(self, small_detection_dataset):
        shape = small_detection_dataset.inputs.shape[1:]
        reference, fast = _weight_equivalent_pair(build_detector_model, shape)
        # Train the float64 reference briefly so weights are non-trivial...
        train(
            reference,
            small_detection_dataset.inputs,
            small_detection_dataset.labels,
            epochs=5,
            batch_size=16,
            seed=0,
        )
        copy_weights(reference, fast)
        p64 = reference.predict(small_detection_dataset.inputs).reshape(-1)
        p32 = fast.predict(small_detection_dataset.inputs).reshape(-1)
        assert np.allclose(p64, p32, atol=1e-5)
        assert np.array_equal(p64 >= 0.5, p32 >= 0.5)

    def test_localizer_masks_bit_identical(self, small_localization_dataset):
        shape = small_localization_dataset.inputs.shape[1:]
        reference, fast = _weight_equivalent_pair(build_localizer_model, shape)
        m64 = reference.predict(small_localization_dataset.inputs)
        m32 = fast.predict(small_localization_dataset.inputs)
        assert np.allclose(m64, m32, atol=1e-5)
        assert np.array_equal(m64 >= 0.5, m32 >= 0.5)


class TestIm2colBufferReuse:
    def test_buffer_reused_across_same_shape_batches(self):
        layer = Conv2D(filters=4, kernel_size=3)
        with use_dtype("float32"):
            layer.build((8, 7, 2), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.random((16, 8, 7, 2), dtype=np.float32)
        layer.forward(x)
        first_buffer = layer._col_buffer
        layer.forward(rng.random((16, 8, 7, 2), dtype=np.float32))
        assert layer._col_buffer is first_buffer

    def test_varying_batch_sizes_stay_correct(self):
        """A shrinking last minibatch reuses the larger buffer correctly."""
        with use_dtype("float32"):
            reused = Conv2D(filters=3, kernel_size=3)
            reused.build((6, 5, 2), np.random.default_rng(0))
        rng = np.random.default_rng(2)
        big = rng.random((8, 6, 5, 2), dtype=np.float32)
        small = rng.random((3, 6, 5, 2), dtype=np.float32)
        out_big_first = reused.forward(big).copy()
        out_small = reused.forward(small).copy()

        with use_dtype("float32"):
            fresh = Conv2D(filters=3, kernel_size=3)
            fresh.build((6, 5, 2), np.random.default_rng(0))
        assert np.array_equal(out_small, fresh.forward(small))
        assert np.array_equal(out_big_first, fresh.forward(big))

    def test_training_predictions_match_across_dtypes_loosely(self):
        """Sanity: float32 training stays numerically close to float64."""
        rng = np.random.default_rng(0)
        x = rng.random((32, 6, 5, 2))
        y = (rng.random((32, 1)) > 0.5).astype(float)

        def trained_predictions(dtype):
            with use_dtype(dtype):
                from repro.nn.activations import ReLU, Sigmoid
                from repro.nn.layers import Dense, Flatten

                model = Sequential(
                    [Conv2D(4, 3), ReLU(), Flatten(), Dense(1), Sigmoid()], seed=7
                )
                model.build((6, 5, 2))
            train(model, x, y, epochs=3, batch_size=8, seed=7)
            return model.predict(x).reshape(-1)

        p64 = trained_predictions("float64")
        p32 = trained_predictions("float32")
        assert np.allclose(p64, p32, atol=1e-3)
