import numpy as np
import pytest
from scipy import stats

from majorminor.errors import ConfigurationError
from majorminor.grids import TimeGrid, build_grid, sample_noise


def test_build_grid_basic():
    grid = build_grid(1.0, 4)
    assert np.allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.dt == 0.25


def test_build_grid_single_step():
    grid = build_grid(2.0, 1)
    assert np.allclose(grid.nodes, [0.0, 2.0])


def test_build_grid_fine():
    grid = build_grid(0.5, 50)
    assert grid.dt == pytest.approx(0.01)
    assert grid.nodes.size == 51
    assert np.all(np.diff(grid.nodes) > 0)


@pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0)])
def test_build_grid_rejects_bad_inputs(horizon, steps):
    with pytest.raises(ConfigurationError):
        build_grid(horizon, steps)


def test_same_seed_bit_identical():
    grid = build_grid(1.0, 8)
    b1 = sample_noise(grid, 3, 5, seed=7)
    b2 = sample_noise(grid, 3, 5, seed=7)
    assert np.array_equal(b1.dB, b2.dB)
    assert np.array_equal(b1.dW0, b2.dW0)
    b3 = sample_noise(grid, 3, 5, seed=8)
    assert not np.array_equal(b3.dB, b1.dB)


def test_common_increment_shared_within_scenario():
    grid = build_grid(1.0, 4)
    bundle = sample_noise(grid, 2, 6, seed=1)
    # one dW0 path per scenario, no particle axis
    assert bundle.dW0.shape == (2, 4)
    assert bundle.dB.shape == (2, 6, 4)


def test_sample_variance_matches_dt():
    # chi-square bound: sample variance of n iid N(0, dt) lies within 3
    # standard errors of dt, SE = dt * sqrt(2/(n-1))
    grid = build_grid(0.1, 1)
    bundle = sample_noise(grid, 256, 1, seed=42)
    var = bundle.dW0.var(ddof=1)
    se = grid.dt * np.sqrt(2.0 / (256 - 1))
    assert abs(var - grid.dt) <= 3 * se


def test_degenerate_grid_zero_increments():
    degenerate = TimeGrid(horizon=0.0, steps=3, nodes=np.zeros(4))
    bundle = sample_noise(degenerate, 2, 2, seed=0)
    assert np.all(bundle.dB == 0.0)
    assert np.all(bundle.dW0 == 0.0)


def test_moments_pooled_normality():
    grid = build_grid(1.0, 10)
    bundle = sample_noise(grid, 10, 120, seed=3)
    pooled = bundle.dB.ravel() / np.sqrt(grid.dt)
    assert pooled.size >= 10_000
    _, pvalue = stats.jarque_bera(pooled)
    assert pvalue > 0.01
    assert abs(pooled.mean()) < 3.0 / np.sqrt(pooled.size)


def test_rejects_empty_ensemble():
    grid = build_grid(1.0, 2)
    with pytest.raises(ConfigurationError):
        sample_noise(grid, 0, 4)
