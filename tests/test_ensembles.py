import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorminor.ensembles import (
    ControlField,
    conditional_features,
    inner_product_T,
    norm_T,
    wasserstein2_1d,
)
from majorminor.errors import ConfigurationError, ContractError
from majorminor.grids import build_grid, sample_noise


def constant_control(value_x, value_q, m=2, p=3, n=4):
    return ControlField(
        np.full((m, p, n, 1), value_x), np.full((m, n, 1), value_q)
    )


def test_conditional_features_constant_cloud():
    x = np.full((3, 5, 1), 2.0)
    feats = conditional_features(x)
    assert np.allclose(feats.mean_x, 2.0)


def test_conditional_features_two_particles():
    x = np.array([[[0.0], [4.0]]])
    feats = conditional_features(x)
    assert feats.mean_x[0, 0, 0] == pytest.approx(2.0)


def test_conditional_features_clt():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 10_000, 1))
    feats = conditional_features(x)
    assert abs(feats.mean_x[0, 0, 0]) <= 3.0 / np.sqrt(10_000)


def test_conditional_features_empty_cloud():
    with pytest.raises(ConfigurationError):
        conditional_features(np.zeros((2, 0, 1)))


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
    a = ControlField(np.zeros((512, 1, 64, 1)), w)
    value = inner_product_T(a, a, grid)
    per_scenario = grid.dt * (w[:, :, 0] ** 2).sum(axis=1)
    se = per_scenario.std(ddof=1) / np.sqrt(512)
    bias = 0.5 * grid.dt  # left-endpoint quadrature of int t dt
    assert abs(value - 0.5) <= 3 * se + bias


def test_inner_product_scenario_broadcast_consistency():
    # a scenario path contributes identically with or without a particle axis
    grid = build_grid(1.0, 4)
    rng = np.random.default_rng(1)
    path = rng.standard_normal((3, 4, 1))
    as_scen = ControlField(np.zeros((3, 7, 4, 1)), path)
    as_part = ControlField(np.broadcast_to(path[:, None], (3, 7, 4, 1)).copy(), np.zeros((3, 4, 1)))
    assert inner_product_T(as_scen, as_scen, grid) == pytest.approx(
        inner_product_T(as_part, as_part, grid)
    )


def test_inner_product_shape_mismatch():
    grid = build_grid(1.0, 4)
    a = constant_control(1.0, 1.0, n=4)
    b = constant_control(1.0, 1.0, m=3, n=4)
    with pytest.raises(ContractError):
        inner_product_T(a, b, grid)


def test_wasserstein_identical_and_point_masses():
    assert wasserstein2_1d(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert wasserstein2_1d(np.array([0.0]), np.array([3.0])) == pytest.approx(3.0)


def test_wasserstein_two_point_exhaustive():
    # couplings of {0,2} vs {1,3}: identity costs (1+1)/2, swap (9+1)/2
    assert wasserstein2_1d(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == pytest.approx(1.0)


def test_wasserstein_empty_rejected():
    with pytest.raises(ContractError):
        wasserstein2_1d(np.array([]), np.array([1.0]))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    st.lists(st.floats(-50, 50), min_size=1, max_size=12),
)
def test_wasserstein_triangle_inequality(a, b, c):
    a, b, c = (np.array(v) for v in (a, b, c))
    if not (a.size == b.size == c.size):
        n = max(a.size, b.size, c.size)
        levels = (np.arange(n) + 0.5) / n
        a, b, c = (np.quantile(v, levels) for v in (a, b, c))
    dab = wasserstein2_1d(a, b)
    dbc = wasserstein2_1d(b, c)
    dac = wasserstein2_1d(a, c)
    assert dac <= dab + dbc + 1e-9


def test_control_arithmetic():
    a = constant_control(1.0, 2.0)
    b = constant_control(0.5, -1.0)
    c = a + 2.0 * b
    assert np.allclose(c.alpha_x, 2.0)
    assert np.allclose(c.alpha_q, 0.0)
    d = a - b
    assert np.allclose(d.alpha_x, 0.5)
