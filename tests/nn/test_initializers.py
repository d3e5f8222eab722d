"""Unit tests for weight initializers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.initializers import GlorotUniform, HeNormal, Zeros, _fan_in_fan_out


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestFanInFanOut:
    def test_dense_shape(self):
        assert _fan_in_fan_out((10, 5)) == (10, 5)

    def test_conv_shape(self):
        # 3x3 kernel, 4 input channels, 8 filters.
        assert _fan_in_fan_out((3, 3, 4, 8)) == (36, 72)

    def test_bias_shape(self):
        assert _fan_in_fan_out((7,)) == (7, 7)

    def test_three_dim_shape(self):
        # A 1-D kernel of width 5 over 4 input and 3 output channels.
        assert _fan_in_fan_out((5, 4, 3)) == (20, 15)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            _fan_in_fan_out(())


class TestZeros:
    def test_zeros(self, rng):
        out = Zeros()((3, 4), rng)
        assert out.shape == (3, 4)
        assert np.all(out == 0.0)


class TestGlorotAndHe:
    def test_glorot_bounds(self, rng):
        shape = (100, 50)
        out = GlorotUniform()(shape, rng)
        limit = np.sqrt(6.0 / (100 + 50))
        assert np.all(np.abs(out) <= limit)

    def test_he_scale(self, rng):
        out = HeNormal()((200, 100), rng)
        expected_std = np.sqrt(2.0 / 200)
        assert 0.7 * expected_std < out.std() < 1.3 * expected_std

    @given(rows=st.integers(2, 30), cols=st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_glorot_always_within_limit(self, rows, cols):
        rng = np.random.default_rng(7)
        out = GlorotUniform()((rows, cols), rng)
        limit = np.sqrt(6.0 / (rows + cols))
        assert np.all(np.abs(out) <= limit + 1e-12)

    def test_he_uses_receptive_field_fan_in(self, rng):
        out = HeNormal()((3, 3, 16, 64), rng)
        expected_std = np.sqrt(2.0 / (3 * 3 * 16))
        assert 0.9 * expected_std < out.std() < 1.1 * expected_std
        assert abs(out.mean()) < 0.1 * expected_std

    def test_same_seed_same_draws(self):
        first = GlorotUniform()((6, 4), np.random.default_rng(11))
        second = GlorotUniform()((6, 4), np.random.default_rng(11))
        assert np.array_equal(first, second)


@pytest.mark.parametrize(
    "initializer", [Zeros(), GlorotUniform(), HeNormal()], ids=["zeros", "glorot", "he"]
)
def test_draws_float64(initializer, rng):
    # Layers cast to the model dtype afterwards, so draws are the same in either.
    out = initializer((3, 3, 2, 4), rng)
    assert out.shape == (3, 3, 2, 4)
    assert out.dtype == np.float64
