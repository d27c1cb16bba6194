"""The monotone residual operator on controls and the extragradient loop.

For a control alpha the decoupled system is solved, the pair inverse is read
off, and the operator value is

    v(alpha) = (theta_F(alpha) - U, (a/2) (theta_H(alpha) - qb)),

with theta = (theta_F, theta_H) the pair inverse at (X, qf, Zphi) and a > 0
the weight of the major block.

Its zero is the control induced by the coupled solution, so the stopping rule
is the residual norm, not iterate movement.  The iteration kernel only needs
points with vector arithmetic and an operator exposing `inner`, which lets
synthetic operators exercise it without any FBSDE machinery.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .ensembles import ControlField, conditional_features, inner_product_T
from .errors import ConfigurationError, SimulationError
from .grids import NoiseBundle, TimeGrid, path_array
from .models import PrimedCoefficientSet
from .solver import (
    InitialCondition,
    RegressionBasis,
    SolveOutput,
    decoupled_solve,
    regress_conditional,
)

__all__ = [
    "ExtragradientConfig",
    "ExtragradientReport",
    "FbsdeOperator",
    "extragradient_step",
    "run_extragradient",
    "estimate_lipschitz_v",
]

_PROBE_SEED = 123
_PROBE_SCALE = 1.0  # standard deviation of the random probe controls
_PROBE_REFINE = 8  # power-iteration probe pairs after the random ones
_RATE_TAIL = 0.5  # fraction of the residual history the rate is fitted on
# a run whose residual grew by this factor over this many iterations diverged
_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_WINDOW = 5


@dataclass
class ExtragradientConfig:
    """Step size, caps and averaging switches.

    With `gamma` unset the step is safety / L_hat from probe estimation.  The
    geometric-rate regime additionally wants gamma < min(1/(2 L), eta/L^2)
    for the true constants L and eta.  The runner cannot know them and does
    not check the step against them; a step that is too large shows only as
    a divergence report: the residual grew tenfold over five iterations, or
    the iterates left the finite range.
    """

    gamma: float | None = None
    n_max: int = 100
    tol: float = 0.0
    averaging: bool = True
    safety: float = 0.5
    probes: int = 4

    def __post_init__(self):
        if self.gamma is not None and not (self.gamma > 0):
            raise ConfigurationError([f"gamma must be positive, got {self.gamma}"])
        if self.n_max < 1:
            raise ConfigurationError([f"n_max must be >= 1, got {self.n_max}"])


class FbsdeOperator:
    """The residual operator of one problem instance.

    Calling it returns v(alpha) as a ControlField; the solve behind the last
    evaluation is cached on `last_solve` for diagnostics.
    """

    def __init__(
        self,
        primed: PrimedCoefficientSet,
        grid: TimeGrid,
        noise: NoiseBundle,
        init: InitialCondition,
        basis: RegressionBasis,
        a: float = 1.0,
    ):
        self.primed = primed
        self.grid = grid
        self.noise = noise
        self.init = init
        self.basis = basis
        self.a = a
        self.last_solve: SolveOutput | None = None

    def __call__(self, control: ControlField) -> ControlField:
        solve = decoupled_solve(
            control, self.primed, self.noise, self.init, self.basis, self.grid,
            compute_z=False,
        )
        self.last_solve = solve
        n = self.grid.steps
        vx = solve.theta_F - solve.state.U[:, :, :n]
        gap_q = solve.theta_H - solve.state.qb[:, :n]
        return ControlField(vx, 0.5 * (self.a * gap_q))

    def inner(self, a: ControlField, b: ControlField) -> float:
        return inner_product_T(a, b, self.grid)

    def norm(self, a: ControlField) -> float:
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def zero(self) -> ControlField:
        m, p = self.init.X0.shape
        return ControlField.zeros(m, p, self.grid.steps)

    def random_control(self, rng: np.random.Generator, scale: float = 1.0) -> ControlField:
        m, p = self.init.X0.shape
        n = self.grid.steps
        # draw in (M, P, N) order so a seed keeps its probes
        alpha_x = path_array((m, p, n))
        alpha_x[...] = scale * rng.standard_normal((m, p, n))
        return ControlField(alpha_x, scale * rng.standard_normal((m, n)))


def extragradient_step(alpha, gamma: float, op):
    """One trial step and one corrected step.

    Returns (alpha_half, alpha_next, v_at_alpha, v_at_half): exactly two
    operator evaluations.
    """
    if not gamma > 0:
        raise ConfigurationError([f"gamma must be positive, got {gamma}"])
    v_n = op(alpha)
    alpha_half = alpha - gamma * v_n
    v_half = op(alpha_half)
    alpha_next = alpha - gamma * v_half
    return alpha_half, alpha_next, v_n, v_half


@dataclass
class ExtragradientReport:
    """Per-iteration trail of one run plus the fitted geometric rate."""

    residuals: list[float]
    seconds: list[float]
    dist_to_reference: list[float] | None
    lambda_hat: float | None
    r_squared: float | None
    diverged: bool
    iterations: int
    gamma: float
    final_alpha: object = None
    averages: dict | None = None
    z_convention: str = (
        "Zphi is the integrand of sqrt(2*sigma0) * int Zphi dW0, equal to the "
        "q-gradient of the major value field"
    )

    def to_json(self) -> str:
        payload = {
            "z_convention": self.z_convention,
            "gamma": self.gamma,
            "iterations": self.iterations,
            "diverged": self.diverged,
            "lambda_hat": self.lambda_hat,
            "r_squared": self.r_squared,
            "residuals": self.residuals,
            "dist_to_reference": self.dist_to_reference,
            "seconds": self.seconds,
        }
        return json.dumps(payload, indent=2)

    def iteration_rows(self):
        """Rows (n, residual, dist_to_oracle, gamma, seconds) for the CSV."""
        rows = []
        for i, res in enumerate(self.residuals):
            dist = self.dist_to_reference[i] if self.dist_to_reference else float("nan")
            rows.append((i + 1, res, dist, self.gamma, self.seconds[i]))
        return rows


def fit_geometric_rate(residuals):
    """Least-squares log-linear fit over the last `_RATE_TAIL` of the residual history.

    Returns (lambda_hat, r_squared); None when fewer than 4 usable points.
    """
    res = np.asarray(residuals, dtype=float)
    res = np.where(res > 0, res, np.nan)
    start = int(len(res) * (1.0 - _RATE_TAIL))
    tail = np.log(res[start:])
    keep = np.isfinite(tail)
    if keep.sum() < 4:
        return None, None
    x = np.arange(len(tail), dtype=float)[keep]
    y = tail[keep]
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(slope)), r2


def _averaging_payload(op, solve: SolveOutput, alpha_half):
    """Quantities averaged over half-step solves per the convergence bound."""
    if solve is None:
        return {"point": alpha_half}
    return {
        "U": solve.theta_F,  # theta applied to the half-step control
        "p": solve.theta_H,
        "q": solve.state.qf,  # forward copy, all nodes
        "X": solve.state.X,
        "Zphi": solve.state.Zphi,
    }


def run_extragradient(
    alpha1,
    config: ExtragradientConfig,
    op,
    reference_control=None,
    lipschitz_hint: float | None = None,
) -> ExtragradientReport:
    """Iterate until the residual tolerance, the cap, or divergence.

    Maintains running averages over half-step solves, fits the geometric rate
    on the tail half of the residual history, and tracks the distance to a
    reference control when one is supplied.  Residual growth by
    `_DIVERGENCE_FACTOR` over `_DIVERGENCE_WINDOW` iterations ends the run
    with a divergence report instead of an exception.
    """
    gamma = config.gamma
    if gamma is None:
        L_hat = lipschitz_hint if lipschitz_hint is not None else estimate_lipschitz_v(
            op, config.probes
        )
        gamma = config.safety / max(L_hat, 1e-12)

    alpha = alpha1
    residuals: list[float] = []
    seconds: list[float] = []
    dists: list[float] | None = [] if reference_control is not None else None
    sums = None
    count = 0
    diverged = False

    for n_it in range(1, config.n_max + 1):
        t0 = time.perf_counter()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                alpha_half, alpha_next, v_n, v_half = extragradient_step(alpha, gamma, op)
        except SimulationError:
            # iterates left the finite range: report divergence, not a crash
            diverged = True
            seconds.append(time.perf_counter() - t0)
            residuals.append(float("inf"))
            if dists is not None:
                dists.append(float("nan"))
            break
        half_solve = getattr(op, "last_solve", None)
        residual = float(np.sqrt(max(op.inner(v_n, v_n), 0.0)))
        residuals.append(residual)
        if dists is not None:
            diff = alpha - reference_control
            dists.append(float(np.sqrt(max(op.inner(diff, diff), 0.0))))
        if config.averaging:
            payload = _averaging_payload(op, half_solve, alpha_half)
            if sums is None:
                sums = {k: np.array(v, copy=True) for k, v in payload.items()}
            else:
                for k_, v in payload.items():
                    sums[k_] += v
            count += 1
        seconds.append(time.perf_counter() - t0)
        if residual <= config.tol:
            break
        w = _DIVERGENCE_WINDOW
        if len(residuals) > w and residuals[-1] > _DIVERGENCE_FACTOR * residuals[-1 - w]:
            diverged = True
            break
        alpha = alpha_next

    lam_hat, r2 = fit_geometric_rate(residuals)
    averages = None
    if sums is not None and count:
        averages = {k: v / count for k, v in sums.items()}
    return ExtragradientReport(
        residuals=residuals,
        seconds=seconds,
        dist_to_reference=dists,
        lambda_hat=lam_hat,
        r_squared=r2,
        diverged=diverged,
        iterations=len(residuals),
        gamma=gamma,
        final_alpha=alpha,
        averages=averages,
    )


def recover_phi_bar(op: FbsdeOperator, averages: dict) -> np.ndarray:
    """One auxiliary backward sweep for the major value along the averaged
    iterates: the backward equation driven by the averaged (q, Zphi, law)."""
    primed = op.primed
    grid = op.grid
    n = grid.steps
    dt = grid.dt
    consts = primed.constants
    sq = np.sqrt(2.0 * consts.sigma0)
    U_bar, p_bar, q_bar, X_bar, Z_bar = (
        averages["U"], averages["p"], averages["q"], averages["X"], averages["Zphi"],
    )
    m = q_bar.shape[0]
    qmid_T = q_bar[:, n][:, None]
    feats_T = conditional_features(X_bar[:, :, n])
    phi = np.empty((m, n + 1))
    phi[:, n] = primed.psi(qmid_T, feats_T)[:, 0]
    basis = op.basis
    for k in range(n - 1, -1, -1):
        qmid = 0.5 * (q_bar[:, k] + p_bar[:, k])
        feats = conditional_features(X_bar[:, :, k], U_bar[:, :, k])
        drv = primed.base.LH(qmid[:, None], Z_bar[:, k][:, None], feats)[:, 0]
        drv = drv + consts.discount * phi[:, k + 1]
        target = phi[:, k + 1] + dt * drv - sq * (Z_bar[:, k] * op.noise.dW0[:, k])
        S = basis.scenario_design(qmid, X_bar[:, :, k].mean(axis=1), U_bar[:, :, k].mean(axis=1))
        phi[:, k] = regress_conditional(S, target, basis.ridge).fitted
    return phi


def estimate_lipschitz_v(op, probes: int = 4, seed: int = _PROBE_SEED) -> float:
    """Probe-pair lower bound on the operator's Lipschitz constant.

    max over probe pairs of ||v(a) - v(b)|| / ||a - b||.  After the random
    pairs, `_PROBE_REFINE` further pairs are chosen by power iteration on the
    difference map (each one aligned with the stiffest direction found so
    far), which tightens the bound considerably on nearly affine operators.
    Still a lower bound; the step rule applies a safety factor on top.
    """
    if probes < 2:
        raise ConfigurationError([f"need at least 2 probes, got {probes}"])
    rng = np.random.default_rng(seed)
    draw = getattr(op, "random_control", None)

    def sample():
        if draw is not None:
            return draw(rng, _PROBE_SCALE)
        return _PROBE_SCALE * rng.standard_normal(op.dim)

    points = [sample() for _ in range(probes)]
    values = [op(pt) for pt in points]
    best = 0.0
    best_dir = None
    for i in range(probes):
        for j in range(i + 1, probes):
            diff = points[i] - points[j]
            dv = values[i] - values[j]
            denom = np.sqrt(max(op.inner(diff, diff), 0.0))
            if denom > 1e-14:
                ratio = float(np.sqrt(max(op.inner(dv, dv), 0.0)) / denom)
                if ratio > best:
                    best = ratio
                    best_dir = (1.0 / denom) * diff
    if best_dir is None:
        return best
    base = points[0]
    v_base = values[0]
    direction = best_dir
    for _ in range(_PROBE_REFINE):
        dv = op(base + direction) - v_base
        norm_dv = np.sqrt(max(op.inner(dv, dv), 0.0))
        if norm_dv <= 1e-14:
            break
        best = max(best, float(norm_dv))  # ||direction|| = 1
        direction = (1.0 / norm_dv) * dv
    return best
