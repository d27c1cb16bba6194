"""Particle clouds, adapted controls, and the Hilbert geometry on them.

Conditional laws given the common filtration are represented by the particle
cloud of a scenario; conditional expectations are within-scenario averages.
The inner product <a,b>^T = E \\int_0^T a_t b_t dt is discretized with equal
particle weights and left-endpoint time sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .grids import TimeGrid, path_array

__all__ = [
    "ControlField",
    "ScenarioFeatures",
    "conditional_features",
    "inner_product_T",
    "norm_T",
]


@dataclass
class ControlField:
    """Discretized element of the control space: scalar minor controls per
    (scenario, particle, step), shaped (M, P, N), and the scalar major
    control per (scenario, step), shaped (M, N).  A stack of controls for
    the instances of a stacked solve carries a leading instance axis on both:
    (B, M, P, N) and (B, M, N)."""

    alpha_x: np.ndarray  # ([B,] M_c, P, N_t), time-major when package-made
    alpha_q: np.ndarray  # ([B,] M_c, N_t)

    def __post_init__(self):
        if self.alpha_x.ndim not in (3, 4) or self.alpha_q.ndim != self.alpha_x.ndim - 1:
            raise ContractError(
                f"control shapes must be ([B,]M,P,N) and ([B,]M,N), got "
                f"{self.alpha_x.shape} and {self.alpha_q.shape}"
            )
        x, q = self.alpha_x.shape, self.alpha_q.shape
        if x[:-2] != q[:-1] or x[-1] != q[-1]:
            raise ContractError("instance/scenario/step axes of alpha_x and alpha_q disagree")

    # Vector-space operations used by the iteration kernels.
    def __add__(self, other: "ControlField") -> "ControlField":
        return ControlField(self.alpha_x + other.alpha_x, self.alpha_q + other.alpha_q)

    def __sub__(self, other: "ControlField") -> "ControlField":
        return ControlField(self.alpha_x - other.alpha_x, self.alpha_q - other.alpha_q)

    def __mul__(self, s: float) -> "ControlField":
        return ControlField(s * self.alpha_x, s * self.alpha_q)

    __rmul__ = __mul__

    # In place, for temporaries their maker owns: same bits and layout as
    # the binary operations, with no new arrays.
    def __iadd__(self, other: "ControlField") -> "ControlField":
        self.alpha_x += other.alpha_x
        self.alpha_q += other.alpha_q
        return self

    def __imul__(self, s: float) -> "ControlField":
        self.alpha_x *= s
        self.alpha_q *= s
        return self

    @staticmethod
    def zeros(n_scenarios: int, n_particles: int, n_steps: int) -> "ControlField":
        alpha_x = path_array((n_scenarios, n_particles, n_steps))
        alpha_x[...] = 0.0
        return ControlField(alpha_x, np.zeros((n_scenarios, n_steps)))


@dataclass
class ScenarioFeatures:
    """The declared conditional moments of (X, U): their within-scenario means.

    Arrays are shaped (M_c, 1) so they broadcast against particle clouds.
    """

    mean_x: np.ndarray
    mean_u: np.ndarray


def conditional_features(x: np.ndarray, u: np.ndarray | None = None) -> ScenarioFeatures:
    """Within-scenario particle means of x and u at one time slice.

    x, u: (M_c, P).  When u is omitted its mean is zero.
    """
    if x.ndim != 2:
        raise ContractError(f"expected (M,P) slice, got shape {x.shape}")
    if x.shape[1] == 0:
        raise ConfigurationError(["conditional features need at least one particle"])
    # a sum divided by the count is np.mean without its per-call overhead,
    # which dominates on small clouds
    p = x.shape[1]
    mean_u = np.zeros((x.shape[0], 1)) if u is None else np.add.reduce(u, axis=1, keepdims=True) / p
    return ScenarioFeatures(mean_x=np.add.reduce(x, axis=1, keepdims=True) / p, mean_u=mean_u)


def inner_product_T(a: ControlField, b: ControlField, grid: TimeGrid) -> float:
    """Discretized E \\int_0^T a.b dt on the product control space.

    Particle-borne components average over scenarios x particles, the
    scenario-borne component over scenarios only, so a scenario-level path
    contributes the same whether or not it is broadcast to particles.
    """
    if a.alpha_x.shape != b.alpha_x.shape or a.alpha_q.shape != b.alpha_q.shape:
        raise ContractError(
            f"mismatched control shapes {a.alpha_x.shape}/{b.alpha_x.shape}, "
            f"{a.alpha_q.shape}/{b.alpha_q.shape}"
        )
    if a.alpha_x.shape[2] != grid.steps:
        raise ContractError("control step axis does not match the grid")
    part = np.einsum("mpk,mpk->", a.alpha_x, b.alpha_x) / (a.alpha_x.shape[0] * a.alpha_x.shape[1])
    scen = np.einsum("mk,mk->", a.alpha_q, b.alpha_q) / a.alpha_q.shape[0]
    return float(grid.dt * (part + scen))


def norm_T(a: ControlField, grid: TimeGrid) -> float:
    return float(np.sqrt(max(inner_product_T(a, a, grid), 0.0)))
