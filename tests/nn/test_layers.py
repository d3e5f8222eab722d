"""Unit tests for trainable/structural layers, including gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.activations import ReLU, Sigmoid
from repro.nn.dtype import use_dtype
from repro.nn.layers import (
    _TRANSIENT_STATE,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
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


def reference_convolution(x, weights, bias, stride, pad):
    """Direct nested-loop cross-correlation over an NHWC batch."""
    x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    kh, kw, _, filters = weights.shape
    out_h = (x.shape[1] - kh) // stride + 1
    out_w = (x.shape[2] - kw) // stride + 1
    out = np.zeros((x.shape[0], out_h, out_w, filters))
    for r in range(out_h):
        for c in range(out_w):
            patch = x[:, r * stride : r * stride + kh, c * stride : c * stride + kw, :]
            out[:, r, c, :] = np.tensordot(patch, weights, axes=([1, 2, 3], [0, 1, 2]))
    if bias is not None:
        out += bias
    return out


def reference_max_pool(x, ph, pw, stride):
    """Direct nested-loop max pooling over an NHWC batch."""
    out_h = (x.shape[1] - ph) // stride + 1
    out_w = (x.shape[2] - pw) // stride + 1
    out = np.zeros((x.shape[0], out_h, out_w, x.shape[3]))
    for r in range(out_h):
        for c in range(out_w):
            window = x[:, r * stride : r * stride + ph, c * stride : c * stride + pw, :]
            out[:, r, c, :] = window.max(axis=(1, 2))
    return out


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

    def test_gradients_match_numeric_without_bias(self):
        rng = np.random.default_rng(4)
        layer = build(Dense(2, use_bias=False), (3,))
        x = rng.normal(size=(4, 3))
        grad_out = rng.normal(size=(4, 2))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        assert "b" not in layer.grads
        assert np.allclose(grad_in, numeric_input_gradient(layer, x.copy(), grad_out), atol=1e-5)
        assert np.allclose(
            layer.grads["W"], numeric_param_gradient(layer, "W", x, grad_out), atol=1e-5
        )

    def test_get_config(self):
        assert Dense(3, use_bias=False).get_config() == {
            "type": "Dense",
            "units": 3,
            "use_bias": False,
        }

    def test_bias_starts_at_zero(self):
        layer = build(Dense(5), (4,))
        assert np.all(layer.params["b"] == 0.0)


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
        layer = Conv2D(filters=1, kernel_size=2, use_bias=False)
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

    @pytest.mark.parametrize(
        "kernel_size, stride, padding, use_bias",
        [
            (3, 1, "valid", True),
            (3, 1, "same", True),
            ((2, 3), 1, "valid", True),
            (1, 1, "valid", True),
            (3, 2, "valid", True),
            (3, 1, "same", False),
        ],
        ids=["3x3-valid", "3x3-same", "2x3-valid", "1x1", "stride-2", "same-no-bias"],
    )
    def test_forward_matches_direct_convolution(self, kernel_size, stride, padding, use_bias):
        rng = np.random.default_rng(5)
        layer = Conv2D(
            filters=3, kernel_size=kernel_size, stride=stride, padding=padding, use_bias=use_bias
        )
        build(layer, (7, 6, 2))
        if use_bias:
            layer.params["b"] = rng.normal(size=3)
        x = rng.normal(size=(2, 7, 6, 2))
        want = reference_convolution(
            x, layer.params["W"], layer.params.get("b"), stride, layer._pad_amount()
        )
        got = layer.forward(x)
        assert got.shape == (2,) + layer.output_shape((7, 6, 2))
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize(
        "kernel_size, stride, use_bias, shape",
        [
            (3, 2, True, (7, 6, 2)),
            ((2, 3), 1, True, (4, 5, 2)),
            (1, 1, True, (3, 4, 3)),
            (3, 1, False, (5, 4, 2)),
        ],
        ids=["stride-2", "2x3-kernel", "1x1", "no-bias"],
    )
    def test_gradients_match_numeric(self, kernel_size, stride, use_bias, shape):
        rng = np.random.default_rng(6)
        layer = build(
            Conv2D(filters=2, kernel_size=kernel_size, stride=stride, use_bias=use_bias), shape
        )
        x = rng.normal(size=(2,) + shape)
        grad_out = rng.normal(size=(2,) + layer.output_shape(shape))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        assert np.allclose(grad_in, numeric_input_gradient(layer, x.copy(), grad_out), atol=1e-4)
        assert np.allclose(
            layer.grads["W"], numeric_param_gradient(layer, "W", x, grad_out), atol=1e-4
        )
        assert ("b" in layer.grads) == use_bias

    def test_invalid_kernel_size(self):
        with pytest.raises(ValueError):
            Conv2D(filters=2, kernel_size=0)
        with pytest.raises(ValueError):
            Conv2D(filters=2, kernel_size=(3, 0))

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            Conv2D(filters=2, stride=0)

    def test_build_rejects_flat_input(self):
        with pytest.raises(ValueError):
            build(Conv2D(filters=2), (12,))

    def test_kernel_too_large_rejected(self):
        layer = build(Conv2D(filters=1, kernel_size=5), (4, 4, 1))
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 4, 4, 1)))

    def test_get_config(self):
        layer = Conv2D(filters=4, kernel_size=(3, 2), stride=2, use_bias=False)
        assert layer.get_config() == {
            "type": "Conv2D",
            "filters": 4,
            "kernel_size": [3, 2],
            "stride": 2,
            "padding": "valid",
            "use_bias": False,
        }


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

    def test_overlapping_windows_match_reference(self):
        rng = np.random.default_rng(7)
        layer = MaxPool2D(pool_size=2, stride=1)
        x = rng.normal(size=(2, 5, 4, 3))
        assert layer.output_shape((5, 4, 3)) == (4, 3, 3)
        assert np.array_equal(layer.forward(x), reference_max_pool(x, 2, 2, 1))

    def test_non_square_pool_matches_reference(self):
        rng = np.random.default_rng(8)
        layer = MaxPool2D(pool_size=(2, 3))
        x = rng.normal(size=(2, 6, 7, 2))
        # The stride defaults to the pool height.
        assert layer.stride == 2
        assert np.array_equal(layer.forward(x), reference_max_pool(x, 2, 3, 2))

    def test_odd_input_drops_trailing_rows_and_columns(self):
        layer = MaxPool2D(pool_size=2)
        x = np.arange(25, dtype=float).reshape(1, 5, 5, 1)
        assert layer.output_shape((5, 5, 1)) == (2, 2, 1)
        assert np.array_equal(layer.forward(x)[0, :, :, 0], [[6, 8], [16, 18]])

    def test_gradient_matches_numeric_overlapping(self):
        # Overlapping windows send several gradients to one input pixel.
        rng = np.random.default_rng(9)
        layer = MaxPool2D(pool_size=2, stride=1)
        x = rng.normal(size=(2, 4, 4, 2))
        grad_out = rng.normal(size=(2, 3, 3, 2))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        assert np.allclose(grad_in, numeric_input_gradient(layer, x.copy(), grad_out), atol=1e-4)
        assert np.isclose(grad_in.sum(), grad_out.sum())

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            MaxPool2D(pool_size=0)
        with pytest.raises(ValueError):
            MaxPool2D(pool_size=(2, 0))

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            MaxPool2D(pool_size=2, stride=0)

    def test_get_config(self):
        assert MaxPool2D(pool_size=(2, 3)).get_config() == {
            "type": "MaxPool2D",
            "pool_size": [2, 3],
            "stride": 2,
        }


class TestFlatten:
    def test_round_trip(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 4, 1)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert np.allclose(back, x)

    def test_output_shape(self):
        assert Flatten().output_shape((3, 4, 5)) == (60,)


def _dense():
    return Dense(3), (4,)


def _conv():
    return Conv2D(filters=2, kernel_size=3, padding="same"), (5, 4, 2)


def _pool():
    return MaxPool2D(pool_size=2), (4, 4, 2)


def _flatten():
    return Flatten(), (3, 2, 2)


def _relu():
    return ReLU(), (6,)


def _sigmoid():
    return Sigmoid(), (6,)


class TestReleaseScratch:
    """Dropping scratch keeps parameters and configuration, and the next pass rebuilds it."""

    @pytest.mark.parametrize(
        "make",
        [_dense, _conv, _pool, _flatten, _relu, _sigmoid],
        ids=["dense", "conv", "pool", "flatten", "relu", "sigmoid"],
    )
    def test_release_then_forward_backward_again(self, make):
        layer, shape = make()
        build(layer, shape)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3,) + shape)
        out = layer.forward(x)
        grad_out = rng.normal(size=out.shape)
        grad_in = layer.backward(grad_out)
        params = {name: value.copy() for name, value in layer.params.items()}
        config = layer.get_config()

        layer.release_scratch()
        assert not _TRANSIENT_STATE & set(vars(layer))
        assert layer.get_config() == config
        assert layer.params.keys() == params.keys()
        for name, value in params.items():
            assert np.array_equal(layer.params[name], value)

        assert np.array_equal(layer.forward(x), out)
        assert np.array_equal(layer.backward(grad_out), grad_in)
