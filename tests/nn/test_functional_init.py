"""Tests for repro.nn.functional helpers, the oracle conv padding and
initialisation schemes."""

import numpy as np
import pytest

from repro.nn import Tensor, dropout, global_avg_pool2d, avg_pool_over_axis
from repro.nn import init as _unused  # noqa: F401
from repro.nn.init import (
    kaiming_uniform, normal, uniform_fan_in, xavier_uniform,
)
from tests.oracles.nn import pad2d


RNG = np.random.default_rng(29)  # repro: allow[D001] seeded file-local RNG, shared on purpose


class TestPadding:
    def test_pad2d_shape(self):
        x = Tensor(RNG.normal(size=(2, 1, 3, 4)))
        out = pad2d(x, (1, 2, 3, 4))
        assert out.shape == (2, 1, 6, 11)

    def test_pad2d_zero_noop(self):
        x = Tensor(RNG.normal(size=(2, 1, 3, 4)))
        assert pad2d(x, (0, 0, 0, 0)) is x

    def test_pad2d_values(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = pad2d(x, (1, 1, 1, 1))
        assert out.data[0, 0, 0, 0] == 0.0
        assert out.data[0, 0, 1, 1] == 1.0

    def test_pad2d_gradient(self):
        x = Tensor(RNG.normal(size=(1, 1, 2, 2)), requires_grad=True)
        pad2d(x, (1, 1, 2, 2)).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((1, 1, 2, 2)))


class TestPooling:
    def test_global_avg_pool2d(self):
        x = Tensor(np.arange(24.0).reshape(1, 2, 3, 4))
        out = global_avg_pool2d(x)
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out.data[0, 0],
                                   np.arange(12.0).mean())

    def test_avg_pool_over_axis(self):
        x = Tensor(RNG.normal(size=(3, 5, 2)))
        out = avg_pool_over_axis(x, axis=1)
        np.testing.assert_allclose(out.data, x.data.mean(axis=1))

    def test_pool_gradient_uniform(self):
        x = Tensor(RNG.normal(size=(2, 4)), requires_grad=True)
        avg_pool_over_axis(x, axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 0.25))


class TestDropoutFunction:
    def test_eval_is_identity(self):
        x = Tensor(RNG.normal(size=(5, 5)))
        out = dropout(x, 0.8, training=False)
        assert out is x

    def test_zero_p_is_identity(self):
        x = Tensor(RNG.normal(size=(5, 5)))
        assert dropout(x, 0.0, training=True) is x

    def test_mask_zeroes_and_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((10000,)))
        out = dropout(x, 0.3, training=True, rng=rng)
        values = np.unique(np.round(out.data, 6))
        # Inverted dropout: survivors scaled by 1/(1-p).
        assert set(values) <= {0.0, round(1 / 0.7, 6)}


class TestInitSchemes:
    def test_normal_std(self):
        w = normal((400, 400), np.random.default_rng(0), std=0.02)
        assert abs(w.std() - 0.02) < 0.002

    def test_xavier_bound(self):
        shape = (64, 32)
        w = xavier_uniform(shape, np.random.default_rng(1))
        bound = np.sqrt(6.0 / (32 + 64))
        assert np.abs(w).max() <= bound

    def test_kaiming_bound(self):
        shape = (64, 32)
        w = kaiming_uniform(shape, np.random.default_rng(2))
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 32)
        assert np.abs(w).max() <= bound

    def test_uniform_fan_in_bound(self):
        w = uniform_fan_in((10, 25), np.random.default_rng(3))
        assert np.abs(w).max() <= 1 / np.sqrt(25)

    def test_conv_fans(self):
        # Conv kernel (out=8, in=4, 3, 3): fan_in = 4*9.
        w = uniform_fan_in((8, 4, 3, 3), np.random.default_rng(4))
        assert np.abs(w).max() <= 1 / np.sqrt(36)

    def test_vector_shape(self):
        w = xavier_uniform((16,), np.random.default_rng(5))
        assert w.shape == (16,)
