"""Unit tests for activation layers (values and gradients)."""

import numpy as np

from repro.nn.activations import ReLU, Sigmoid


def numeric_gradient(layer, x, grad_out, eps=1e-6):
    """Central-difference gradient of sum(forward(x) * grad_out)."""
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


class TestReLU:
    def test_forward_clips_negative(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        assert np.allclose(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks_gradient(self):
        layer = ReLU()
        x = np.array([[-1.0, 3.0]])
        layer.forward(x)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.allclose(grad, [[0.0, 5.0]])

    def test_zero_input_passes_no_gradient(self):
        layer = ReLU()
        layer.forward(np.array([[0.0, 1e-12]]))
        assert np.array_equal(layer.backward(np.array([[4.0, 4.0]])), [[0.0, 4.0]])

    def test_gradient_matches_numeric(self):
        # Inputs kept away from the kink at zero, where the slope is undefined.
        rng = np.random.default_rng(2)
        x = rng.choice([-1.0, 1.0], size=(3, 4)) * rng.uniform(0.1, 2.0, size=(3, 4))
        grad_out = rng.normal(size=(3, 4))
        layer = ReLU()
        layer.forward(x)
        analytic = layer.backward(grad_out)
        assert np.allclose(analytic, numeric_gradient(layer, x.copy(), grad_out), atol=1e-6)

    def test_keeps_float32(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]], dtype=np.float32))
        assert out.dtype == np.float32


class TestSigmoid:
    def test_range(self):
        layer = Sigmoid()
        out = layer.forward(np.array([[-100.0, 0.0, 100.0]]))
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.isclose(out[0, 1], 0.5)

    def test_numerical_stability_extreme_inputs(self):
        layer = Sigmoid()
        out = layer.forward(np.array([[-1e6, 1e6]]))
        assert np.isfinite(out).all()

    def test_gradient_matches_numeric(self):
        layer = Sigmoid()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5))
        grad_out = rng.normal(size=(2, 5))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numeric_gradient(layer, x.copy(), grad_out)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_known_value(self):
        out = Sigmoid().forward(np.array([[np.log(3.0), -np.log(3.0)]]))
        assert np.allclose(out, [[0.75, 0.25]])

    def test_symmetry(self):
        x = np.random.default_rng(3).normal(scale=5.0, size=(4, 6))
        layer = Sigmoid()
        assert np.allclose(layer.forward(-x), 1.0 - layer.forward(x))

    def test_integer_input_promoted_to_float64(self):
        out = Sigmoid().forward(np.array([[-2, 0, 2]]))
        assert out.dtype == np.float64
        assert np.isclose(out[0, 1], 0.5)

    def test_keeps_float32(self):
        out = Sigmoid().forward(np.array([[-3.0, 3.0]], dtype=np.float32))
        assert out.dtype == np.float32
