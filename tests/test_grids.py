import concurrent.futures
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from majorminor import grids
from majorminor.errors import ConfigurationError
from majorminor.grids import TimeGrid, build_grid, path_array, run_scenario_blocks, sample_noise


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


def test_threaded_sampling_matches_one_thread_and_a_scenario_loop(monkeypatch):
    grid = build_grid(1.0, 20)
    m, p = 5, 4000
    assert m * p * grid.steps >= grids.SAMPLING_THREADED_ELEMENTS
    pools = []
    pool_type = concurrent.futures.ThreadPoolExecutor

    def counting_pool(max_workers):
        pools.append(max_workers)
        return pool_type(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting_pool)
    monkeypatch.setattr(grids, "scenario_threads", lambda: 4)  # more workers than cores
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        bundle = sample_noise(grid, m, p, seed=11)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [4] and threading.active_count() == threads
    monkeypatch.setattr(grids, "scenario_threads", lambda: 1)
    serial = sample_noise(grid, m, p, seed=11)
    assert pools == [4]
    scale = np.sqrt(grid.dt)
    dB = np.stack([
        scale * grids._scenario_generator(11, j, grids._STREAM_IDIO).standard_normal((p, grid.steps))
        for j in range(m)
    ])
    dW0 = np.stack([
        scale * grids._scenario_generator(11, j, grids._STREAM_COMMON).standard_normal(grid.steps)
        for j in range(m)
    ])
    for ref_dB, ref_dW0 in ((serial.dB, serial.dW0), (dB, dW0)):
        assert np.array_equal(bundle.dB, ref_dB) and np.array_equal(bundle.dW0, ref_dW0)
    assert bundle.dB.strides == path_array((m, p, grid.steps)).strides


def test_scenario_blocks_raise_a_job_error_and_leave_no_thread(monkeypatch):
    monkeypatch.setattr(grids, "scenario_threads", lambda: 3)
    blocks = []

    def prepare(start, stop):
        blocks.append((start, stop, threading.get_ident()))

        def job():
            if start == 0:
                raise ValueError("block 0 failed")

        return job

    threads = threading.active_count()
    with pytest.raises(ValueError, match="block 0 failed"):
        run_scenario_blocks(7, grids.THREADED_ELEMENTS, prepare)
    assert threading.active_count() == threads
    # contiguous blocks, prepared in the calling thread
    assert [(a, b) for a, b, _ in blocks] == [(0, 2), (2, 4), (4, 7)]
    assert {ident for _, _, ident in blocks} == {threading.get_ident()}
    blocks.clear()
    run_scenario_blocks(2, grids.THREADED_ELEMENTS - 1, lambda a, b: blocks.append((a, b)) or (lambda: None))
    assert blocks == [(0, 2)]


def test_sampling_below_its_threshold_runs_in_the_calling_thread(monkeypatch):
    # 32x100x30 = 96,000 doubles: above the oracle roll's threshold, below
    # that of sampling, where threads lose
    grid = build_grid(1.0, 30)
    m, p = 32, 100
    assert grids.THREADED_ELEMENTS <= m * p * grid.steps < grids.SAMPLING_THREADED_ELEMENTS
    asked = []

    def spy():
        asked.append(threading.get_ident())
        return 2

    monkeypatch.setattr(grids, "scenario_threads", spy)
    serial = sample_noise(grid, m, p, seed=5)
    assert asked == []
    monkeypatch.setattr(grids, "SAMPLING_THREADED_ELEMENTS", 1)
    threaded = sample_noise(grid, m, p, seed=5)
    assert asked == [threading.get_ident()]
    assert np.array_equal(serial.dB, threaded.dB) and np.array_equal(serial.dW0, threaded.dW0)
