"""Time discretization and reproducible sampling of the driving Brownian noises.

Every stochastic quantity in the package is driven by one `NoiseBundle`:
idiosyncratic increments ``dB`` per (scenario, particle, step) and common
increments ``dW0`` per (scenario, step), shared by all particles of a
scenario.  Bundles are regenerated from their seed, never serialized.

Each scenario draws from its own counter-based Philox streams, so scenarios
can be sampled in any order, or at the same time, and give the same bits.
`run_scenario_blocks` uses that: it splits the scenarios of a call into
contiguous blocks and runs them on every core.  Work whose scenarios do not
couple, such as the oracle roll in `oracle`, runs on it too.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "NoiseBundle",
    "build_grid",
    "path_array",
    "run_scenario_blocks",
    "sample_noise",
    "scenario_threads",
]


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
    contiguous, and np.moveaxis(a, -1, 0) gives the time-major buffer without
    a copy.  Elementwise arithmetic on two such arrays keeps the layout.  A
    leading instance axis (a stack of solves, see `solver`) rides before M:
    (B, M, P, N) is stored as (N, B, M, P), so a step's slab of the whole
    stack is contiguous too.  Scenario-level paths (M, N) have no particle
    axis and stay in plain C order.
    """
    *lead, n = shape
    return np.moveaxis(np.empty((n, *lead)), 0, -1)


# Work below this many doubles per pass over all scenarios runs as one block
# in the calling thread.  NumPy releases the interpreter lock only inside its
# loops, so threads pay where one operation covers many elements.  The oracle
# roll sets the default (its pass is one (M, P) slab): on 2 cores, two threads
# take 0.73x the serial time at 32x2000 and 1.5x at 32x1000.
THREADED_ELEMENTS = 50_000
# The threshold of `sample_noise`, whose pass is the whole bundle: on 2
# cores two threads lose up to about 320,000 doubles (32x200x50: 7.5 -> 9.3
# ms) and first win at 32x250x50 (400,000 doubles: 11.2 -> 9.3 ms).
SAMPLING_THREADED_ELEMENTS = 400_000


def scenario_threads() -> int:
    """The cores this process may run on: the most workers
    `run_scenario_blocks` starts."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_scenario_blocks(
    n_scenarios: int,
    elements: int,
    prepare: Callable[[int, int], Callable[[], None]],
    threaded_elements: int | None = None,
) -> None:
    """Run per-scenario work as contiguous blocks of scenarios.

    `prepare(start, stop)` runs in the calling thread, allocates the buffers
    of the block [start, stop) and returns its job, a callable of no
    arguments that writes the block's scenarios only.  With `elements`, the
    doubles one pass over all scenarios writes, below `threaded_elements`
    (by default `THREADED_ELEMENTS`) there is one block, run in the calling
    thread; otherwise there is one block per worker, `scenario_threads()`
    capped at `n_scenarios`, and the jobs run on a thread pool that is shut
    down before this returns.  Jobs
    see the caller's NumPy error state, and the first error a job raised is
    raised here.
    """
    if threaded_elements is None:
        threaded_elements = THREADED_ELEMENTS
    workers = min(scenario_threads(), n_scenarios) if elements >= threaded_elements else 1
    bounds = [b * n_scenarios // workers for b in range(workers + 1)]
    jobs = [prepare(start, stop) for start, stop in zip(bounds, bounds[1:])]
    if workers == 1:
        jobs[0]()
        return
    # imported only where threads run: the module adds 0.6 MB of RSS to a
    # process that never needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, job) for job in jobs]
        for future in futures:
            future.result()


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments for one run.

    dB  : (M_c, P, N_t)   idiosyncratic, variance dt, time-major (see
                          `path_array`)
    dW0 : (M_c, N_t)      common, shared by every particle of a scenario
    """

    dB: np.ndarray
    dW0: np.ndarray


# Stream tags keep the idiosyncratic, common and initial-condition draws on
# disjoint Philox keys; `solver.sample_initial` draws X0 and q0 from scenario 0
# of their streams.
_STREAM_IDIO = 0
_STREAM_COMMON = 1
_STREAM_INIT_X = 2
_STREAM_INIT_Q = 3


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
    Each scenario's draws come from its own streams, so the scenarios are
    sampled in blocks by `run_scenario_blocks`, on threads when the bundle has
    at least `SAMPLING_THREADED_ELEMENTS` doubles, with the same bits.  A
    scenario's (P, N) draws land in a buffer of its block, and the scaled
    values are written time-major, one (N, P) slab of the (N, M, P) buffer
    behind dB, so the write is not strided.
    """
    if n_scenarios < 1 or n_particles < 1:
        raise ConfigurationError(
            [f"n_scenarios and n_particles must be >= 1, got ({n_scenarios}, {n_particles})"]
        )

    n_steps = grid.steps
    scale = np.sqrt(grid.dt)
    dB = path_array((n_scenarios, n_particles, n_steps))
    dW0 = np.empty((n_scenarios, n_steps))
    steps_first = np.moveaxis(dB, -1, 0)

    def prepare(start: int, stop: int):
        buf = np.empty((n_particles, n_steps))

        def job():
            for j in range(start, stop):
                gen0 = _scenario_generator(seed, j, _STREAM_COMMON)
                dW0[j] = scale * gen0.standard_normal(n_steps)
                _scenario_generator(seed, j, _STREAM_IDIO).standard_normal(out=buf)
                np.multiply(buf.T, scale, out=steps_first[:, j])

        return job

    run_scenario_blocks(n_scenarios, dB.size, prepare, SAMPLING_THREADED_ELEMENTS)
    dB.setflags(write=False)
    dW0.setflags(write=False)
    return NoiseBundle(dB=dB, dW0=dW0)
