"""Time discretization and reproducible sampling of the driving Brownian noises.

Every stochastic quantity in the package is driven by one `NoiseBundle`:
idiosyncratic increments ``dB`` per (scenario, particle, step) and common
increments ``dW0`` per (scenario, step), shared by all particles of a
scenario.  Bundles are regenerated from their seed, never serialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["TimeGrid", "NoiseBundle", "build_grid", "path_array", "sample_noise"]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/steps on [0, T]."""

    horizon: float
    steps: int
    nodes: np.ndarray

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


def build_grid(horizon: float, steps: int) -> TimeGrid:
    """Uniform time grid with `steps` intervals on [0, horizon]."""
    problems = []
    if not np.isfinite(horizon) or horizon <= 0.0:
        problems.append(f"horizon must be a positive real, got {horizon!r}")
    if steps < 1:
        problems.append(f"steps must be >= 1, got {steps!r}")
    if problems:
        raise ConfigurationError(problems)
    nodes = np.linspace(0.0, horizon, steps + 1)
    return TimeGrid(horizon=float(horizon), steps=int(steps), nodes=nodes)


def path_array(shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialized particle path array, indexed (M, P, N) and stored
    time-major.

    This is the package's one memory-layout convention.  States are scalar,
    so a particle path is (M, P, N): it is read and written in that index
    order, but the buffer behind it is a C-contiguous (N, M, P) block, so the
    per-step slab a[:, :, k] that the forward and backward sweeps touch is
    contiguous, and np.moveaxis(a, 2, 0) gives the time-major buffer without
    a copy.  Elementwise arithmetic on two such arrays keeps the layout.  A
    trailing axis (the two integrand components of `EnsembleState.Z`) rides
    along after N.  Scenario-level paths (M, N) have no particle axis and
    stay in plain C order.
    """
    m, p, n, *rest = shape
    return np.moveaxis(np.empty((n, m, p, *rest)), 0, 2)


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments for one run.

    dB  : (M_c, P, N_t)   idiosyncratic, variance dt, time-major (see
                          `path_array`)
    dW0 : (M_c, N_t)      common, shared by every particle of a scenario
    """

    dB: np.ndarray
    dW0: np.ndarray


# Stream tags keep the idiosyncratic and common draws on disjoint Philox keys.
_STREAM_IDIO = 0
_STREAM_COMMON = 1


def _scenario_generator(seed: int, scenario: int, stream: int) -> np.random.Generator:
    # Counter-based Philox keyed by (seed, stream, scenario): each scenario's
    # block is independent of generation order, so parallel sampling across
    # scenarios is bit-identical to sequential sampling.
    key = np.array([np.uint64(seed), np.uint64((stream << 32) | scenario)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_noise(
    grid: TimeGrid,
    n_scenarios: int,
    n_particles: int,
    seed: int = 0,
) -> NoiseBundle:
    """Sample Gaussian increments with variance dt for every driver.

    The map seed -> bundle is pure; identical seeds give bit-identical bundles.
    """
    if n_scenarios < 1 or n_particles < 1:
        raise ConfigurationError(
            [f"n_scenarios and n_particles must be >= 1, got ({n_scenarios}, {n_particles})"]
        )

    n_steps = grid.steps
    scale = np.sqrt(grid.dt)
    dB = path_array((n_scenarios, n_particles, n_steps))
    dW0 = np.empty((n_scenarios, n_steps))
    for j in range(n_scenarios):
        gen0 = _scenario_generator(seed, j, _STREAM_COMMON)
        dW0[j] = scale * gen0.standard_normal(n_steps)
        gen = _scenario_generator(seed, j, _STREAM_IDIO)
        dB[j] = scale * gen.standard_normal((n_particles, n_steps))
    dB.setflags(write=False)
    dW0.setflags(write=False)
    return NoiseBundle(dB=dB, dW0=dW0)
