"""Unit tests for optimizers."""

import numpy as np
import pytest

from repro.nn.layers import Dense, Layer
from repro.nn.optimizers import Adam


class QuadraticLayer(Layer):
    """Toy layer with loss (w - 3)^2 used to test convergence."""

    def __init__(self):
        super().__init__()
        self.params["w"] = np.array([10.0])
        self.grads["w"] = np.zeros(1)

    def compute_grad(self):
        self.grads["w"] = 2.0 * (self.params["w"] - 3.0)


class TestAdam:
    def test_converges_to_minimum(self):
        layer = QuadraticLayer()
        opt = Adam(learning_rate=0.3)
        for _ in range(300):
            layer.compute_grad()
            opt.step([layer])
        assert abs(layer.params["w"][0] - 3.0) < 1e-2

    def test_bias_correction_first_step(self):
        # With bias correction the very first Adam step is ~learning_rate.
        layer = QuadraticLayer()
        opt = Adam(learning_rate=0.1)
        layer.compute_grad()
        opt.step([layer])
        assert np.isclose(layer.params["w"][0], 10.0 - 0.1, atol=1e-6)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)
        with pytest.raises(ValueError):
            Adam(learning_rate=-0.01)

    def test_second_step_matches_reference(self):
        # Betas 0.9 / 0.999 and epsilon 1e-8, with bias correction.
        param = np.array([1.0, -2.0])
        grads = [np.array([0.5, -1.0]), np.array([-0.25, 3.0])]
        layer = Layer()
        layer.params["w"] = param
        opt = Adam(learning_rate=0.01)
        want = param.copy()
        m = np.zeros(2)
        v = np.zeros(2)
        for t, grad in enumerate(grads, start=1):
            layer.grads["w"] = grad
            opt.step([layer])
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            want -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert np.allclose(layer.params["w"], want, rtol=0, atol=1e-15)

    def test_updates_parameter_in_place(self):
        layer = QuadraticLayer()
        param = layer.params["w"]
        layer.compute_grad()
        Adam().step([layer])
        assert layer.params["w"] is param
        assert param[0] < 10.0

    def test_parameter_without_gradient_left_alone(self):
        layer = QuadraticLayer()
        layer.params["frozen"] = np.array([1.5])
        layer.compute_grad()
        opt = Adam(learning_rate=0.1)
        opt.step([layer])
        assert layer.params["frozen"][0] == 1.5
        assert (0, "frozen") not in opt._m


class TestStateIsolation:
    def test_adam_keeps_state_per_parameter(self):
        rng = np.random.default_rng(0)
        layer_a = Dense(2)
        layer_b = Dense(2)
        layer_a.build((3,), rng)
        layer_b.build((3,), rng)
        layer_a.grads["W"] = np.ones_like(layer_a.params["W"])
        layer_b.grads["W"] = np.ones_like(layer_b.params["W"])
        layer_a.grads["b"] = np.ones_like(layer_a.params["b"])
        layer_b.grads["b"] = np.ones_like(layer_b.params["b"])
        opt = Adam(learning_rate=0.1)
        before_b = layer_b.params["W"].copy()
        opt.step([layer_a, layer_b])
        # Both layers were updated, with independent state entries.
        assert not np.allclose(layer_b.params["W"], before_b)
        assert len(opt._m) == 4
