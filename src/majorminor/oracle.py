"""Independent baselines: a Riccati field for the linear-quadratic family and
a Picard fixed-point iteration on the coupled system of an operator, which
keeps its verdict, its sweep count and its last solve.

The affine ansatz
    U(t, x, q, mbar)  = a(t) x + b_u(t) q + c_u(t) mbar
    phi(t, q, mbar)   = k2(t) q^2/2 + k12(t) q mbar + kc(t) mbar^2/2 + k0(t)
substituted into the coupled dynamics (with mbar the within-scenario mean of
X) closes into seven scalar ODEs, integrated here with classical Runge-Kutta
on a refined grid - a different integrator family than the Euler/regression
solver on purpose, so shared bugs cannot cancel.  Before use as ground truth
the field is cross-validated against a fine-grid Picard solve at short
horizon (see the test suite).

Z-convention: the backward major equation is written with sqrt(2 sigma0)
outside the stochastic integral; we store its integrand, which equals the
q-gradient of the major value field.  `eval_oracle_field` returns exactly
that gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import ControlField, ScenarioFeatures, conditional_features, norm_T
from .errors import OracleBlowUpError, SimulationError
from .grids import NoiseBundle, TimeGrid, path_array, run_scenario_blocks
from .extragradient import FbsdeOperator
from .models import CoefficientSet, LQParams, ModelConstants
from .solver import InitialCondition, SolveOutput, decoupled_solve

__all__ = [
    "RiccatiSolution",
    "riccati_oracle",
    "eval_oracle_field",
    "oracle_induced_control",
    "PicardResult",
    "picard_solve",
]

_BLOW_UP_LIMIT = 1e8


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward-integrated coefficient functions of the affine/quadratic
    decoupling field, tabulated on a refined copy of the run grid."""

    times: np.ndarray
    a: np.ndarray
    b_u: np.ndarray
    c_u: np.ndarray
    k2: np.ndarray
    k12: np.ndarray
    kc: np.ndarray
    k0: np.ndarray

    def coefficients_at(self, t):
        t = np.asarray(t, dtype=float)
        return tuple(
            np.interp(t, self.times, table)
            for table in (self.a, self.b_u, self.c_u, self.k2, self.k12, self.kc, self.k0)
        )


def riccati_oracle(
    params: LQParams, constants: ModelConstants, grid: TimeGrid, refine: int = 10
) -> RiccatiSolution:
    """Integrate the coefficient ODEs backward from the terminal data.

    Classical 4th-order Runge-Kutta on the run grid refined `refine`-fold.
    The seven coefficients are Python floats, with the operations of the
    vector form y - (h/6)(k1 + 2 k2 + 2 k3 + k4) in the same order, so the
    tables equal those of RK4 on float64 arrays bit for bit at a fraction of
    the per-step overhead.  Coefficients leaving the finite range raise a
    blow-up report carrying the forward time at which it happened.
    """
    n = grid.steps * refine
    times = np.linspace(0.0, grid.horizon, n + 1)
    h = grid.horizon / n
    h2 = 0.5 * h
    h6 = h / 6.0
    limit = _BLOW_UP_LIMIT
    lam = float(constants.discount)
    sigma0 = float(constants.sigma0)
    b, c1, c2, c3 = float(params.b), float(params.c1), float(params.c2), float(params.c3)
    c13 = c1 + c3
    r1, r2 = float(params.r1), float(params.r2)

    def rhs(a, b_u, c_u, k2, k12, kc, k0):
        return (
            a * a - c13,
            b_u * (a + b + k2 + c_u) - c2,
            c_u * (2.0 * a + c_u) + b_u * k12 + c3,
            2.0 * k2 * (b + k2) + 2.0 * k12 * b_u - lam * k2 + k2 * k2 + r1,
            k12 * (b + 3.0 * k2 + a + c_u - lam) + kc * b_u + r2,
            2.0 * kc * (a + c_u) - lam * kc + 3.0 * k12 * k12,
            -lam * k0 - sigma0 * k2,
        )

    a, b_u, c_u, k2, k12, kc, k0 = float(params.g1), float(params.g2), 0.0, float(params.p1), float(params.p2), 0.0, 0.0
    rows = [(a, b_u, c_u, k2, k12, kc, k0)]
    for i in range(n, 0, -1):
        # the stages s1..s4, each taken at y - w * (the stage before)
        s1 = rhs(a, b_u, c_u, k2, k12, kc, k0)
        s2 = rhs(
            a - h2 * s1[0], b_u - h2 * s1[1], c_u - h2 * s1[2], k2 - h2 * s1[3], k12 - h2 * s1[4],
            kc - h2 * s1[5], k0 - h2 * s1[6],
        )
        s3 = rhs(
            a - h2 * s2[0], b_u - h2 * s2[1], c_u - h2 * s2[2], k2 - h2 * s2[3], k12 - h2 * s2[4],
            kc - h2 * s2[5], k0 - h2 * s2[6],
        )
        s4 = rhs(
            a - h * s3[0], b_u - h * s3[1], c_u - h * s3[2], k2 - h * s3[3], k12 - h * s3[4],
            kc - h * s3[5], k0 - h * s3[6],
        )
        a = a - h6 * (s1[0] + 2.0 * s2[0] + 2.0 * s3[0] + s4[0])
        b_u = b_u - h6 * (s1[1] + 2.0 * s2[1] + 2.0 * s3[1] + s4[1])
        c_u = c_u - h6 * (s1[2] + 2.0 * s2[2] + 2.0 * s3[2] + s4[2])
        k2 = k2 - h6 * (s1[3] + 2.0 * s2[3] + 2.0 * s3[3] + s4[3])
        k12 = k12 - h6 * (s1[4] + 2.0 * s2[4] + 2.0 * s3[4] + s4[4])
        kc = kc - h6 * (s1[5] + 2.0 * s2[5] + 2.0 * s3[5] + s4[5])
        k0 = k0 - h6 * (s1[6] + 2.0 * s2[6] + 2.0 * s3[6] + s4[6])
        # abs(nan) <= limit is false, so this also catches non-finite values
        if not (
            abs(a) <= limit and abs(b_u) <= limit and abs(c_u) <= limit and abs(k2) <= limit
            and abs(k12) <= limit and abs(kc) <= limit and abs(k0) <= limit
        ):
            raise OracleBlowUpError(times[i - 1])
        rows.append((a, b_u, c_u, k2, k12, kc, k0))
    tables = np.array(rows[::-1]).T.copy()
    return RiccatiSolution(times, *tables)  # rows in field order a, b_u, ..., k0


def eval_oracle_field(sol: RiccatiSolution, t, x, q, mbar):
    """Field values (U, phi, Zphi) at (t, x, q, mbar); Zphi is the stored
    integrand convention, i.e. the q-gradient of phi."""
    a, b_u, c_u, k2, k12, kc, k0 = sol.coefficients_at(t)
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    mbar = np.asarray(mbar, dtype=float)
    u = a * x + b_u * q + c_u * mbar
    phi = 0.5 * k2 * q * q + k12 * q * mbar + 0.5 * kc * mbar * mbar + k0
    zphi = k2 * q + k12 * mbar
    return u, phi, zphi


def oracle_induced_control(
    sol: RiccatiSolution,
    cs: CoefficientSet,
    grid: TimeGrid,
    noise: NoiseBundle,
    init: InitialCondition,
) -> tuple[ControlField, dict]:
    """Simulate the coupled dynamics closed by the oracle field and read off
    the induced control (F, DzH) along the trajectory.

    Returns the control and the scenario-level paths of the trajectory:
    "q" (M, N+1), "Zphi" (M, N) and "mean_x", the within-scenario mean of X,
    (M, N+1).  The dynamics do not couple scenarios, so they roll in blocks
    of scenarios (`run_scenario_blocks`, on threads where the (M, P) slabs
    are large).  Each block rolls its own slab of particle states through all
    N steps in place, with the field's coefficients looked up once for all
    nodes and the arithmetic of `eval_oracle_field` and of the Euler step
    X - F dt + sqrt(2 sigma) dB in the same order, so the numbers do not
    depend on the blocks.  The control is the only particle path the
    simulation holds.
    """
    m, p = init.X0.shape
    n = grid.steps
    dt = grid.dt
    sx = math.sqrt(2.0 * cs.constants.sigma)
    sq = math.sqrt(2.0 * cs.constants.sigma0)
    a, b_u, c_u, k2, k12 = sol.coefficients_at(grid.nodes[:n])[:5]

    qpath = np.empty((m, n + 1))
    mean_x = np.empty((m, n + 1))
    Zphi = np.empty((m, n))
    alpha_x = path_array((m, p, n))
    alpha_q = np.empty((m, n))
    qpath[:, 0] = init.q0

    def prepare(start: int, stop: int):
        rows = slice(start, stop)
        xk = np.array(init.X0[rows], dtype=float)  # the slab layout of path_array
        u = np.empty_like(xk)
        step = np.empty_like(xk)

        def job():
            for k in range(n):
                qk = qpath[rows, k][:, None]
                # the features of `conditional_features`, built here from
                # the mean the field needs anyway
                mbar = np.add.reduce(xk, axis=1, keepdims=True) / p
                mean_x[rows, k] = mbar[:, 0]
                np.multiply(a[k], xk, out=u)
                np.add(u, b_u[k] * qk, out=u)
                np.add(u, c_u[k] * mbar, out=u)
                z = k2[k] * qk + k12[k] * mbar
                Zphi[rows, k] = z[:, 0]
                feats = ScenarioFeatures(mean_x=mbar, mean_u=np.add.reduce(u, axis=1, keepdims=True) / p)
                alpha_x[rows, :, k] = cs.F(xk, qk, u, z, feats)
                alpha_q[rows, k] = cs.Hz(qk, z, feats)[:, 0]
                np.multiply(alpha_x[rows, :, k], dt, out=step)
                np.subtract(xk, step, out=xk)
                np.multiply(sx, noise.dB[rows, :, k], out=step)
                np.add(xk, step, out=xk)
                qpath[rows, k + 1] = qpath[rows, k] - alpha_q[rows, k] * dt + sq * noise.dW0[rows, k]
            mean_x[rows, n] = np.add.reduce(xk, axis=1) / p

        return job

    run_scenario_blocks(m, m * p, prepare)
    control = ControlField(alpha_x, alpha_q)
    return control, {"q": qpath, "Zphi": Zphi, "mean_x": mean_x}


@dataclass
class PicardResult:
    """Outcome of the fixed-point sweep: converged, diverged-as-diagnosed, or
    stopped at the sweep cap, after `sweeps` solves, the last one `solve`."""

    converged: bool
    diverged: bool
    sweeps: int
    solve: SolveOutput | None
    reason: str = ""


def picard_control(cs: CoefficientSet, solve: SolveOutput) -> ControlField:
    """The next Picard control: the pair (F, DzH) along a solve, at its
    states, midpoint major state, Zphi and conditional law.  Each map is
    called once, on the N steps laid side by side as one (N M, P) slab; maps
    and scenario means work row by row, so each step has the bits of its own
    (M, P) call.  F's output, a new array by the model API, is the control's
    buffer, in the layout of `path_array`."""
    st = solve.state
    n, m, p = st.U_coef.shape[0], *st.X0.shape
    X = st.X
    x = np.moveaxis(X, -1, 0)[:n].reshape(n * m, p)
    u = st.u(slice(None), X).reshape(n * m, p)
    qmid = (0.5 * (st.qf[:, :n] + st.qb[:, :n])).T.reshape(n * m, 1)
    z = st.Zphi.T.reshape(n * m, 1)
    feats = conditional_features(x, u)
    alpha_x = np.moveaxis(cs.F(x, qmid, u, z, feats).reshape(n, m, p), 0, -1)
    alpha_q = np.ascontiguousarray(cs.Hz(qmid, z, feats).reshape(n, m).T)
    return ControlField(alpha_x, alpha_q)


def picard_solve(op: FbsdeOperator, tol: float = 1e-6, max_iter: int = 40) -> PicardResult:
    """Freeze the coupling from the previous sweep and re-solve the
    operator's problem.

    The control of sweep n+1 is `picard_control` of sweep n's decoupled
    solve.  Stops when the successive-sweep distance in the control norm
    drops below `tol`; reports divergence when the distance grows over
    three consecutive sweeps.
    """
    control = op.zero()
    distances: list[float] = []  # the last three
    solve = None
    for sweep in range(1, max_iter + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                solve = decoupled_solve(control, op.primed, op.noise, op.init, op.basis, op.grid)
        except SimulationError:
            # iterates left the finite range: no contraction at this horizon
            return PicardResult(False, True, sweep, solve, reason="sweep produced non-finite values (no contraction)")
        new_control = picard_control(op.primed.base, solve)
        distances = [*distances[-2:], norm_T(new_control - control, op.grid)]
        control = new_control
        if distances[-1] <= tol:
            return PicardResult(True, False, sweep, solve)
        if len(distances) == 3 and distances[2] > distances[1] > distances[0]:
            return PicardResult(False, True, sweep, solve, reason="successive-sweep distance increased over 3 sweeps")
    return PicardResult(False, False, max_iter, solve)
