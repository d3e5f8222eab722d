"""Unit tests for the Sequential model container."""

import numpy as np
import pytest

from repro.core.detector import build_detector_model
from repro.core.localizer import build_localizer_model
from repro.nn.dtype import use_dtype
from repro.nn.layers import _TRANSIENT_STATE, Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.activations import ReLU, Sigmoid
from repro.nn.model import _PREDICT_BATCH, Sequential
from repro.obs.metrics import METRICS, nn_forward_histogram


def detector_like_model(seed=0):
    """The DL2Fence detector architecture at a small frame size."""
    return Sequential(
        [
            Conv2D(filters=8, kernel_size=3),
            ReLU(),
            MaxPool2D(pool_size=2),
            Flatten(),
            Dense(1),
            Sigmoid(),
        ],
        seed=seed,
    )


class TestBuild:
    def test_build_propagates_shapes(self):
        model = detector_like_model().build((8, 7, 4))
        assert model.output_shape == (1,)

    def test_forward_auto_builds(self):
        model = detector_like_model()
        out = model.forward(np.zeros((2, 8, 7, 4)))
        assert out.shape == (2, 1)
        assert model.input_shape == (8, 7, 4)

    def test_shape_mismatch_rejected(self):
        model = detector_like_model().build((8, 7, 4))
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 6, 5, 4)))


def localizer_like_model(seed=0):
    """The DL2Fence localizer architecture: 'same' convs ending in a sigmoid mask."""
    return Sequential(
        [
            Conv2D(filters=4, kernel_size=3, padding="same"),
            ReLU(),
            Conv2D(filters=1, kernel_size=3, padding="same"),
            Sigmoid(),
        ],
        seed=seed,
    )


class TestForwardBackward:
    def test_output_in_sigmoid_range(self):
        model = detector_like_model().build((8, 7, 4))
        out = model.forward(np.random.default_rng(0).normal(size=(4, 8, 7, 4)))
        assert np.all((out > 0.0) & (out < 1.0))

    def test_backward_populates_gradients(self):
        model = detector_like_model().build((8, 7, 4))
        x = np.random.default_rng(0).normal(size=(3, 8, 7, 4))
        out = model.forward(x, training=True)
        model.backward(np.ones_like(out))
        dense = model.layers[4]
        assert "W" in dense.grads
        assert dense.grads["W"].shape == dense.params["W"].shape

    def test_determinism_same_seed(self):
        x = np.random.default_rng(1).normal(size=(2, 8, 7, 4))
        out_a = detector_like_model(seed=5).build((8, 7, 4)).forward(x)
        out_b = detector_like_model(seed=5).build((8, 7, 4)).forward(x)
        assert np.allclose(out_a, out_b)

    def test_different_seeds_differ(self):
        x = np.random.default_rng(1).normal(size=(2, 8, 7, 4))
        out_a = detector_like_model(seed=1).build((8, 7, 4)).forward(x)
        out_b = detector_like_model(seed=2).build((8, 7, 4)).forward(x)
        assert not np.allclose(out_a, out_b)


    def test_input_cast_to_model_dtype(self):
        model = detector_like_model().build((8, 7, 4))
        assert model.dtype == np.float32
        out = model.forward(np.random.default_rng(3).normal(size=(2, 8, 7, 4)))
        assert out.dtype == np.float32

    def test_training_flag_leaves_output_unchanged(self):
        model = detector_like_model().build((8, 7, 4))
        x = np.random.default_rng(4).normal(size=(3, 8, 7, 4))
        assert np.array_equal(model.forward(x, training=True), model.forward(x))

    def test_input_gradient_matches_numeric(self):
        with use_dtype("float64"):
            model = localizer_like_model(seed=2).build((4, 3, 2))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 3, 2))
        grad_out = rng.normal(size=(2, 4, 3, 1))
        model.forward(x)
        analytic = model.backward(grad_out)
        numeric = np.zeros_like(x)
        eps = 1e-6
        for index in np.ndindex(x.shape):
            original = x[index]
            x[index] = original + eps
            plus = float(np.sum(model.forward(x) * grad_out))
            x[index] = original - eps
            minus = float(np.sum(model.forward(x) * grad_out))
            x[index] = original
            numeric[index] = (plus - minus) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_release_scratch_drops_every_layer_scratch(self):
        model = detector_like_model().build((8, 7, 4))
        x = np.random.default_rng(6).normal(size=(2, 8, 7, 4))
        expected = model.forward(x, training=True)
        model.backward(np.ones_like(expected))
        model.release_scratch()
        for layer in model.layers:
            assert not _TRANSIENT_STATE & set(vars(layer))
        assert np.array_equal(model.forward(x), expected)


class TestForwardMetric:
    def test_mode_label_follows_training_flag(self):
        model = detector_like_model().build((8, 7, 4))
        x = np.zeros((2, 8, 7, 4))
        METRICS.reset()
        METRICS.enable()
        try:
            model.forward(x, training=True)
            model.forward(x)
            model.forward(x)
            hist = nn_forward_histogram()
            assert hist.count(mode="train") == 1
            assert hist.count(mode="infer") == 2
        finally:
            METRICS.disable()
            METRICS.reset()

    def test_nothing_recorded_when_inactive(self):
        model = detector_like_model().build((8, 7, 4))
        METRICS.reset()
        model.forward(np.zeros((1, 8, 7, 4)))
        assert nn_forward_histogram().count(mode="infer") == 0


class TestPredict:
    def test_batched_predict_matches_forward(self):
        model = detector_like_model().build((8, 7, 4))
        # Several predict chunks, the last one short.
        x = np.random.default_rng(2).normal(size=(300, 8, 7, 4))
        assert 300 > 2 * _PREDICT_BATCH and 300 % _PREDICT_BATCH
        assert np.allclose(model.predict(x), model.forward(x))

    @pytest.mark.parametrize("rows", [8, 16])
    @pytest.mark.parametrize(
        "builder, channels",
        [(build_detector_model, 4), (build_localizer_model, 1)],
        ids=["detector", "localizer"],
    )
    def test_chunked_predict_equals_one_forward(self, builder, channels, rows):
        """Both DL2Fence CNNs: three whole chunks give one forward's bits."""
        model = builder((rows, rows - 1, channels), seed=rows)
        x = np.random.default_rng(rows).random(
            (3 * _PREDICT_BATCH, rows, rows - 1, channels)
        )
        whole = model.forward(x)
        chunk_sizes = []
        forward = model.forward

        def counting_forward(inputs, training=False):
            chunk_sizes.append(len(inputs))
            return forward(inputs, training)

        model.forward = counting_forward
        chunked = model.predict(x)
        assert chunk_sizes == [_PREDICT_BATCH] * 3
        assert chunked.dtype == whole.dtype
        assert chunked.tobytes() == whole.tobytes()

    def test_patch_matrices_hold_one_chunk(self):
        """The im2col scratch of a predict spans one chunk, not the input."""
        model = build_localizer_model((16, 15, 1))
        model.predict(np.random.default_rng(3).random((199, 16, 15, 1)))
        convs = [layer for layer in model.layers if isinstance(layer, Conv2D)]
        assert len(convs) == 3
        for layer in convs:
            patch_width = int(np.prod(layer.params["W"].shape[:3]))
            assert layer._col_buffer.size == _PREDICT_BATCH * 16 * 15 * patch_width

    def test_localizer_mask_keeps_frame_geometry(self):
        model = localizer_like_model().build((8, 7, 1))
        out = model.predict(np.random.default_rng(7).random((5, 8, 7, 1)))
        assert out.shape == (5, 8, 7, 1)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_empty_batch(self):
        model = detector_like_model().build((8, 7, 4))
        out = model.predict(np.zeros((0, 8, 7, 4)))
        assert out.shape == (0, 1)


class TestIntrospection:
    def test_num_parameters(self):
        model = detector_like_model().build((8, 7, 4))
        conv_params = 3 * 3 * 4 * 8 + 8
        dense_params = (3 * 2 * 8) * 1 + 1
        assert model.num_parameters == conv_params + dense_params

