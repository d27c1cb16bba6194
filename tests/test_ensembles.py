import operator

import numpy as np
import pytest

from majorminor.ensembles import (
    ControlField,
    conditional_features,
    inner_product_T,
    norm_T,
)
from majorminor.errors import ConfigurationError, ContractError
from majorminor.grids import build_grid, path_array, sample_noise


def constant_control(value_x, value_q, m=2, p=3, n=4):
    return ControlField(
        np.full((m, p, n), value_x), np.full((m, n), value_q)
    )


def test_conditional_features_constant_cloud():
    x = np.full((3, 5), 2.0)
    feats = conditional_features(x)
    assert np.allclose(feats.mean_x, 2.0)


def test_conditional_features_two_particles():
    x = np.array([[0.0, 4.0]])
    feats = conditional_features(x)
    assert feats.mean_x[0, 0] == pytest.approx(2.0)


def test_conditional_features_clt():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 10_000))
    feats = conditional_features(x)
    assert abs(feats.mean_x[0, 0]) <= 3.0 / np.sqrt(10_000)


def test_conditional_features_empty_cloud():
    with pytest.raises(ConfigurationError):
        conditional_features(np.zeros((2, 0)))


def test_inner_product_constant_one():
    grid = build_grid(2.0, 8)
    a = constant_control(1.0, 0.0, n=8)
    assert inner_product_T(a, a, grid) == pytest.approx(2.0)
    b = constant_control(0.0, 1.0, n=8)
    assert inner_product_T(b, b, grid) == pytest.approx(2.0)


def test_inner_product_zero_and_symmetry():
    grid = build_grid(1.0, 4)
    z = constant_control(0.0, 0.0)
    a = constant_control(1.5, -2.0)
    assert inner_product_T(z, a, grid) == 0.0
    assert inner_product_T(a, z, grid) == 0.0
    assert norm_T(z, grid) == 0.0


def test_inner_product_brownian_energy():
    # E int_0^1 (W0_t)^2 dt = 1/2, estimated with left-endpoint sums
    grid = build_grid(1.0, 64)
    bundle = sample_noise(grid, 512, 1, seed=5)
    w = np.cumsum(bundle.dW0, axis=1) - bundle.dW0  # left endpoints W_{t_k}
    a = ControlField(np.zeros((512, 1, 64)), w)
    value = inner_product_T(a, a, grid)
    per_scenario = grid.dt * (w**2).sum(axis=1)
    se = per_scenario.std(ddof=1) / np.sqrt(512)
    bias = 0.5 * grid.dt  # left-endpoint quadrature of int t dt
    assert abs(value - 0.5) <= 3 * se + bias


def test_inner_product_scenario_broadcast_consistency():
    # a scenario path contributes identically with or without a particle axis
    grid = build_grid(1.0, 4)
    rng = np.random.default_rng(1)
    path = rng.standard_normal((3, 4))
    as_scen = ControlField(np.zeros((3, 7, 4)), path)
    as_part = ControlField(np.broadcast_to(path[:, None], (3, 7, 4)).copy(), np.zeros((3, 4)))
    assert inner_product_T(as_scen, as_scen, grid) == pytest.approx(
        inner_product_T(as_part, as_part, grid)
    )


def test_inner_product_shape_mismatch():
    grid = build_grid(1.0, 4)
    a = constant_control(1.0, 1.0, n=4)
    b = constant_control(1.0, 1.0, m=3, n=4)
    with pytest.raises(ContractError):
        inner_product_T(a, b, grid)




def test_control_arithmetic():
    a = constant_control(1.0, 2.0)
    b = constant_control(0.5, -1.0)
    c = a + 2.0 * b
    assert np.allclose(c.alpha_x, 2.0)
    assert np.allclose(c.alpha_q, 0.0)
    d = a - b
    assert np.allclose(d.alpha_x, 0.5)


def random_path_control(rng, m=3, p=5, n=4):
    alpha_x = path_array((m, p, n))
    alpha_x[...] = rng.standard_normal((m, p, n))
    return ControlField(alpha_x, rng.standard_normal((m, n)))


def test_control_in_place_ops_equal_the_binary_ops_and_keep_the_layout():
    rng = np.random.default_rng(3)
    a, b = random_path_control(rng), random_path_control(rng)
    s = -0.37
    for in_place, other, binary in (
        (operator.iadd, b, a + b),
        (operator.imul, s, s * a),
    ):
        c = ControlField(a.alpha_x.copy(order="K"), a.alpha_q.copy())
        buffers = (c.alpha_x, c.alpha_q)
        assert in_place(c, other) is c
        assert c.alpha_x is buffers[0] and c.alpha_q is buffers[1]  # no new arrays
        assert np.array_equal(c.alpha_x, binary.alpha_x) and np.array_equal(c.alpha_q, binary.alpha_q)
        assert c.alpha_x.strides == a.alpha_x.strides == binary.alpha_x.strides
        assert np.moveaxis(c.alpha_x, -1, 0).flags.c_contiguous  # the layout of path_array
