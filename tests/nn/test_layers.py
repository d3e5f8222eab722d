"""Unit tests for trainable/structural layers, including gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.dtype import use_dtype
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    UpSample2D,
    _col2im,
    _pad_input,
)


def build(layer, shape, seed=0):
    # Finite-difference gradient checks need float64 parameter resolution;
    # float32-specific behaviour is covered by tests/nn/test_dtype.py.
    with use_dtype("float64"):
        layer.build(shape, np.random.default_rng(seed))
    return layer


def numeric_input_gradient(layer, x, grad_out, eps=1e-6):
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        plus = float(np.sum(layer.forward(x) * grad_out))
        flat_x[i] = original - eps
        minus = float(np.sum(layer.forward(x) * grad_out))
        flat_x[i] = original
        flat_g[i] = (plus - minus) / (2 * eps)
    return grad


def numeric_param_gradient(layer, name, x, grad_out, eps=1e-6):
    param = layer.params[name]
    grad = np.zeros_like(param)
    flat_p = param.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_p.size):
        original = flat_p[i]
        flat_p[i] = original + eps
        plus = float(np.sum(layer.forward(x) * grad_out))
        flat_p[i] = original - eps
        minus = float(np.sum(layer.forward(x) * grad_out))
        flat_p[i] = original
        flat_g[i] = (plus - minus) / (2 * eps)
    return grad


def reference_pad_input(inputs, pad):
    """The original ``np.pad`` padding, the reference for ``_pad_input``."""
    if pad == 0:
        return inputs
    return np.pad(inputs, ((0, 0), (pad, pad), (pad, pad), (0, 0)), mode="constant")


def reference_col2im(cols, input_shape, kh, kw, stride, out_h, out_w):
    """The original strided scatter-add, the reference for ``_col2im``."""
    batch, height, width, channels = input_shape
    grad_input = np.zeros(input_shape, dtype=cols.dtype)
    cols6 = cols.reshape(batch, out_h, out_w, kh, kw, channels)
    for i in range(kh):
        for j in range(kw):
            grad_input[:, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :] += (
                cols6[:, :, :, i, j, :]
            )
    return grad_input


def mixed_magnitudes(rng, shape, dtype):
    """Values spanning many orders of magnitude, so float addition order shows."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    return values.astype(dtype)


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestPickling:
    def test_scratch_state_dropped_but_behaviour_preserved(self):
        import pickle

        layer = build(Conv2D(filters=3, kernel_size=3), (6, 5, 2))
        x = np.random.default_rng(0).random((4, 6, 5, 2))
        expected = layer.forward(x)
        assert hasattr(layer, "_col_buffer")

        restored = pickle.loads(pickle.dumps(layer))
        assert not hasattr(restored, "_col_buffer"), "scratch must not ship"
        assert not hasattr(restored, "_cache")
        assert np.array_equal(restored.forward(x), expected)

    def test_pickled_size_excludes_activations(self):
        import pickle

        layer = build(Conv2D(filters=8, kernel_size=3), (16, 15, 4))
        bare = len(pickle.dumps(layer))
        layer.forward(np.random.default_rng(0).random((64, 16, 15, 4)))
        assert len(pickle.dumps(layer)) == bare

    def test_backward_scratch_buffer_not_pickled(self):
        layer = build(Conv2D(filters=2, kernel_size=3), (5, 4, 1))
        layer.forward(np.ones((2, 5, 4, 1)))
        layer.backward(np.ones((2, 3, 2, 2)))
        assert "_grad_buffer" in vars(layer)
        assert "_grad_buffer" not in layer.__getstate__()


class TestDense:
    def test_output_shape(self):
        layer = build(Dense(3), (5,))
        out = layer.forward(np.ones((2, 5)))
        assert out.shape == (2, 3)
        assert layer.output_shape((5,)) == (3,)

    def test_parameter_count(self):
        layer = build(Dense(4), (6,))
        assert layer.num_parameters == 6 * 4 + 4

    def test_no_bias(self):
        layer = build(Dense(4, use_bias=False), (6,))
        assert layer.num_parameters == 24

    def test_rejects_non_flat_input(self):
        with pytest.raises(ValueError):
            build(Dense(3), (4, 4))

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            Dense(0)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(0)
        layer = build(Dense(3), (4,))
        x = rng.normal(size=(5, 4))
        grad_out = rng.normal(size=(5, 3))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        assert np.allclose(grad_in, numeric_input_gradient(layer, x.copy(), grad_out), atol=1e-5)
        assert np.allclose(
            layer.grads["W"], numeric_param_gradient(layer, "W", x, grad_out), atol=1e-5
        )
        assert np.allclose(
            layer.grads["b"], numeric_param_gradient(layer, "b", x, grad_out), atol=1e-5
        )


class TestConv2D:
    def test_valid_output_shape(self):
        layer = build(Conv2D(filters=8, kernel_size=3), (8, 7, 4))
        assert layer.output_shape((8, 7, 4)) == (6, 5, 8)
        out = layer.forward(np.ones((2, 8, 7, 4)))
        assert out.shape == (2, 6, 5, 8)

    def test_same_padding_keeps_shape(self):
        layer = build(Conv2D(filters=2, kernel_size=3, padding="same"), (6, 5, 1))
        out = layer.forward(np.ones((1, 6, 5, 1)))
        assert out.shape == (1, 6, 5, 2)

    def test_parameter_count(self):
        layer = build(Conv2D(filters=8, kernel_size=3), (8, 7, 4))
        assert layer.num_parameters == 3 * 3 * 4 * 8 + 8

    def test_known_convolution_value(self):
        # A single 2x2 kernel of ones over a constant image sums 4 pixels.
        layer = Conv2D(filters=1, kernel_size=2, kernel_initializer="zeros", use_bias=False)
        build(layer, (3, 3, 1))
        layer.params["W"] = np.ones_like(layer.params["W"])
        out = layer.forward(np.full((1, 3, 3, 1), 2.0))
        assert np.allclose(out, 8.0)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            Conv2D(filters=0)
        with pytest.raises(ValueError):
            Conv2D(filters=2, padding="reflect")
        with pytest.raises(ValueError):
            Conv2D(filters=2, padding="same", stride=2)

    def test_gradients_match_numeric_valid(self):
        rng = np.random.default_rng(1)
        layer = build(Conv2D(filters=2, kernel_size=3), (5, 4, 2))
        x = rng.normal(size=(2, 5, 4, 2))
        grad_out = rng.normal(size=(2, 3, 2, 2))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        assert np.allclose(grad_in, numeric_input_gradient(layer, x.copy(), grad_out), atol=1e-4)
        assert np.allclose(
            layer.grads["W"], numeric_param_gradient(layer, "W", x, grad_out), atol=1e-4
        )
        assert np.allclose(
            layer.grads["b"], numeric_param_gradient(layer, "b", x, grad_out), atol=1e-4
        )

    def test_gradients_match_numeric_same_padding(self):
        rng = np.random.default_rng(2)
        layer = build(Conv2D(filters=2, kernel_size=3, padding="same"), (4, 4, 1))
        x = rng.normal(size=(1, 4, 4, 1))
        grad_out = rng.normal(size=(1, 4, 4, 2))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        assert np.allclose(grad_in, numeric_input_gradient(layer, x.copy(), grad_out), atol=1e-4)


class TestConvHelpers:
    """``_col2im`` and ``_pad_input`` are bit-for-bit equal to their references."""

    @given(
        batch=st.integers(1, 3),
        height=st.integers(1, 9),
        width=st.integers(1, 9),
        channels=st.integers(1, 4),
        kh=st.integers(1, 4),
        kw=st.integers(1, 4),
        stride=st.integers(1, 3),
        dtype=st.sampled_from(["float32", "float64"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_col2im_matches_strided_reference(
        self, batch, height, width, channels, kh, kw, stride, dtype, seed
    ):
        kh, kw = min(kh, height), min(kw, width)
        out_h = (height - kh) // stride + 1
        out_w = (width - kw) // stride + 1
        shape = (batch, height, width, channels)
        cols = mixed_magnitudes(
            np.random.default_rng(seed), (batch * out_h * out_w, kh * kw * channels), dtype
        )
        want = reference_col2im(cols, shape, kh, kw, stride, out_h, out_w)
        got, buffer = _col2im(cols, shape, kh, kw, stride, out_h, out_w)
        assert_bitwise_equal(got, want)
        # A reused scratch buffer, larger than needed and holding stale values.
        stale = np.full(cols.size + 7, np.nan, dtype=dtype)
        got, buffer = _col2im(cols, shape, kh, kw, stride, out_h, out_w, stale)
        assert buffer is stale
        assert_bitwise_equal(got, want)

    @given(
        batch=st.integers(1, 3),
        height=st.integers(1, 9),
        width=st.integers(1, 9),
        channels=st.integers(1, 4),
        pad=st.integers(0, 3),
        dtype=st.sampled_from(["float32", "float64"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_pad_input_matches_np_pad(self, batch, height, width, channels, pad, dtype, seed):
        inputs = mixed_magnitudes(
            np.random.default_rng(seed), (batch, height, width, channels), dtype
        )
        want = np.pad(inputs, ((0, 0), (pad, pad), (pad, pad), (0, 0)), mode="constant")
        assert_bitwise_equal(_pad_input(inputs, pad), want)


class TestMaxPool2D:
    def test_output_shape(self):
        layer = MaxPool2D(pool_size=2)
        assert layer.output_shape((6, 4, 3)) == (3, 2, 3)

    def test_selects_maximum(self):
        layer = MaxPool2D(pool_size=2)
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        assert np.allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        layer = MaxPool2D(pool_size=2)
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        layer.forward(x)
        grad = layer.backward(np.ones((1, 2, 2, 1)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        assert np.allclose(grad[0, :, :, 0], expected)

    def test_pool_too_large_rejected(self):
        layer = MaxPool2D(pool_size=5)
        with pytest.raises(ValueError):
            layer.output_shape((4, 4, 1))

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        layer = MaxPool2D(pool_size=2)
        x = rng.normal(size=(2, 4, 6, 3))
        grad_out = rng.normal(size=(2, 2, 3, 3))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        assert np.allclose(grad_in, numeric_input_gradient(layer, x.copy(), grad_out), atol=1e-4)


class TestUpSample2D:
    def test_repeats_pixels(self):
        layer = UpSample2D(factor=2)
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        out = layer.forward(x)
        assert out.shape == (1, 4, 4, 1)
        assert np.allclose(out[0, :2, :2, 0], 1.0)

    def test_backward_sums_contributions(self):
        layer = UpSample2D(factor=2)
        x = np.ones((1, 2, 2, 1))
        layer.forward(x)
        grad = layer.backward(np.ones((1, 4, 4, 1)))
        assert np.allclose(grad, 4.0)


class TestFlatten:
    def test_round_trip(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 4, 1)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert np.allclose(back, x)


class TestDropout:
    def test_inference_is_identity(self):
        layer = Dropout(0.5)
        x = np.ones((4, 10))
        assert np.allclose(layer.forward(x, training=False), x)

    def test_training_zeroes_some_units(self):
        layer = Dropout(0.5)
        layer.seed(0)
        out = layer.forward(np.ones((10, 100)), training=True)
        dropped = np.mean(out == 0.0)
        assert 0.3 < dropped < 0.7

    def test_expected_value_preserved(self):
        layer = Dropout(0.25)
        layer.seed(1)
        out = layer.forward(np.ones((50, 200)), training=True)
        assert 0.9 < out.mean() < 1.1

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def test_training_normalises(self):
        layer = build(BatchNorm(), (8,))
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(64, 8))
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_inference_uses_running_stats(self):
        layer = build(BatchNorm(momentum=0.0), (4,))
        rng = np.random.default_rng(1)
        x = rng.normal(2.0, 1.0, size=(128, 4))
        layer.forward(x, training=True)
        out = layer.forward(x, training=False)
        assert abs(out.mean()) < 0.2

    def test_gradient_matches_numeric(self):
        layer = build(BatchNorm(), (3,))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        grad_out = rng.normal(size=(6, 3))

        def forward_train(inputs):
            return layer.forward(inputs, training=True)

        layer.forward(x, training=True)
        grad_in = layer.backward(grad_out)

        eps = 1e-6
        numeric = np.zeros_like(x)
        flat_x = x.reshape(-1)
        flat_g = numeric.reshape(-1)
        for i in range(flat_x.size):
            orig = flat_x[i]
            flat_x[i] = orig + eps
            plus = float(np.sum(forward_train(x) * grad_out))
            flat_x[i] = orig - eps
            minus = float(np.sum(forward_train(x) * grad_out))
            flat_x[i] = orig
            flat_g[i] = (plus - minus) / (2 * eps)
        assert np.allclose(grad_in, numeric, atol=1e-4)
