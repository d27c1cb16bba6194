"""Decoupled forward-backward solves for a frozen control field.

Forward: explicit Euler for the state clouds driven by the control.
Backward: least-squares Monte Carlo, one regression sweep per step.
Particle-borne quantities (U and its martingale integrand) regress within
each scenario on functions of the particle state; scenario-borne quantities
(phi, qb and their integrands) regress across scenarios on common features,
which keeps them adapted to the common filtration by construction.

The backward sweep carries two versions of every backward quantity: the
values fitted in the configured basis (the exposed conditional-expectation
estimates) and carrier values fitted in an always-quadratic enrichment of
that basis.  Regression targets are built from the carriers: feeding the
exposed fits back into targets would erase any structure outside the
projection span (for a value function with curvature, the next step's
integrand estimate would collapse to the cloud-center tangent), while raw
pathwise carriers would recycle their accumulated martingale noise into the
increment-weighted estimators at a 1/sqrt(dt) amplification.  The quadratic
carrier keeps the curvature and resets the noise at every step; it is exact
for the linear-quadratic family.

Martingale integrands use the increment-weighted estimator with a regressed
conditional mean subtracted first.  The subtraction never biases the
estimator (any adapted function is orthogonal to the next increment), so it
may use a richer feature set than the projection basis; we enrich it with
quadratic features to keep the weighted targets at the noise floor.  A second
control variate, prior*((dW)^2 - dt)/dt with the prior taken from the step
k+1 fit (independent of the step-k increment, hence still unbiased), removes
the O(1) chi-square fluctuation of the weighted estimator and leaves
O(sqrt(dt)) target noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import ControlField, EnsembleState, conditional_features
from .errors import RegressionError, SimulationError
from .grids import NoiseBundle, TimeGrid, path_array
from .models import PrimedCoefficientSet, theta_inverse

__all__ = [
    "RegressionBasis",
    "SolveOutput",
    "InitialCondition",
    "sample_initial",
    "simulate_forward",
    "regress_conditional",
    "solve_backward",
    "decoupled_solve",
]


@dataclass(frozen=True)
class RegressionBasis:
    """Feature policy for the conditional-expectation regressions.

    Affine features: constant, x for particle fits; constant, q, mean_x,
    mean_u for scenario fits.  `quadratic` adds the squared and cross terms.
    Ridge is relative to the trace scale of the normal equations.
    """

    quadratic: bool = False
    ridge: float = 1e-8

    def particle_design(self, x: np.ndarray, quadratic: bool | None = None) -> np.ndarray:
        """(M, P, d) -> (M, P, k) design with a leading constant column."""
        m, p, _ = x.shape
        cols = [np.ones((m, p, 1)), x]
        if self.quadratic if quadratic is None else quadratic:
            cols.append(x * x)
        return np.concatenate(cols, axis=-1)

    def scenario_design(
        self, q: np.ndarray, mean_x: np.ndarray, mean_u: np.ndarray, quadratic: bool | None = None
    ) -> np.ndarray:
        """Per-scenario features (M, k); q is (M, d0), means are (M, d)."""
        cols = [np.ones((q.shape[0], 1)), q, mean_x, mean_u]
        if self.quadratic if quadratic is None else quadratic:
            cols.extend([q * q, mean_x * mean_x, q * mean_x, q * mean_u])
        return np.concatenate(cols, axis=-1)

    def scenario_q_gradient(
        self,
        coef: np.ndarray,
        q: np.ndarray,
        mean_x: np.ndarray,
        mean_u: np.ndarray,
        quadratic: bool,
    ) -> np.ndarray:
        """Gradient in q of a fitted scenario function.

        coef: (k, n_out) from a scenario fit; returns (M, d0, n_out).  The
        quadratic feature products are elementwise, so the gradient keeps a
        diagonal layout (exact for the scalar family).
        """
        m, d0 = q.shape
        coef = coef if coef.ndim == 2 else coef[:, None]
        n_out = coef.shape[1]
        d = mean_x.shape[1]
        grad = np.empty((m, d0, n_out))
        for i in range(d0):
            g = np.tile(coef[1 + i], (m, 1))
            if quadratic:
                base = 1 + d0 + 2 * d
                g = g + 2.0 * q[:, i : i + 1] * coef[base + i]
                if d == d0:
                    g = g + mean_x[:, i : i + 1] * coef[base + d0 + d + i]
                    g = g + mean_u[:, i : i + 1] * coef[base + d0 + d + d0 + i]
            grad[:, i] = g
        return grad

    def scenario_q_hessdiag(self, coef: np.ndarray, d0: int, d: int, quadratic: bool) -> np.ndarray:
        """Diagonal second q-derivatives of a fitted scenario function: (d0, n_out)."""
        coef = coef if coef.ndim == 2 else coef[:, None]
        if not quadratic:
            return np.zeros((d0, coef.shape[1]))
        base = 1 + d0 + 2 * d
        return 2.0 * coef[base : base + d0]


class FittedRegression:
    """Least-squares fit with ridge; callable on new design rows."""

    def __init__(
        self,
        coef: np.ndarray,
        fitted: np.ndarray,
        residuals: np.ndarray,
        leverage: np.ndarray | None = None,
    ):
        self.coef = coef
        self.fitted = fitted
        self.residuals = residuals
        self.leverage = leverage

    def __call__(self, design: np.ndarray) -> np.ndarray:
        return design @ self.coef

    def loo_residuals(self) -> np.ndarray:
        """Leave-one-out residuals e/(1-h): remove the in-sample absorption
        of each row's own signal (exact for fixed ridge)."""
        if self.leverage is None:
            return self.residuals
        h = np.clip(self.leverage, 0.0, 0.8)
        if self.residuals.ndim == 1:
            return self.residuals / (1.0 - h)
        return self.residuals / (1.0 - h)[:, None]


def regress_conditional(design: np.ndarray, targets: np.ndarray, ridge: float = 1e-8) -> FittedRegression:
    """Ridge-regularized projection of targets onto the feature span.

    design: (n, k); targets: (n,) or (n, m).  With zero ridge a rank-deficient
    system raises a regression error.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    gram = design.T @ design
    lam = ridge * np.trace(gram) / gram.shape[0]
    if ridge == 0.0 and (
        design.shape[0] < design.shape[1] or np.linalg.matrix_rank(gram) < gram.shape[0]
    ):
        raise RegressionError("rank-deficient normal equations without ridge")
    greg = gram + lam * np.eye(gram.shape[0])
    try:
        coef = np.linalg.solve(greg, design.T @ y)
        vt = np.linalg.solve(greg, design.T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise RegressionError(str(exc)) from exc
    leverage = np.einsum("nk,kn->n", design, vt)
    fitted = design @ coef
    resid = y - fitted
    if squeeze:
        coef, fitted, resid = coef[:, 0], fitted[:, 0], resid[:, 0]
    return FittedRegression(coef, fitted, resid, leverage)


class _BatchedFitter:
    """Within-scenario least squares with a shared design: the normal
    equations are factored once and reused for every target batch."""

    def __init__(self, design: np.ndarray, ridge: float):
        self.design = design
        dt_ = design.transpose(0, 2, 1)
        gram = dt_ @ design
        k = design.shape[2]
        lam = ridge * np.trace(gram, axis1=1, axis2=2) / k
        gram = gram + lam[:, None, None] * np.eye(k)
        try:
            self.inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            raise RegressionError(f"singular within-scenario normal equations: {exc}") from exc
        self.design_t = dt_
        self._leverage = None

    def coef(self, targets: np.ndarray) -> np.ndarray:
        return self.inv @ (self.design_t @ targets)

    def fit(self, targets: np.ndarray) -> np.ndarray:
        return self.design @ self.coef(targets)

    def leverage(self) -> np.ndarray:
        if self._leverage is None:
            vt = self.inv @ self.design_t  # (M, k, P)
            h = np.einsum("mpk,mkp->mp", self.design, vt)
            self._leverage = np.clip(h, 0.0, 0.8)
        return self._leverage

    def loo_residuals(self, targets: np.ndarray) -> np.ndarray:
        resid = targets - self.fit(targets)
        return resid / (1.0 - self.leverage())[:, :, None]


@dataclass
class InitialCondition:
    """Admissible initial condition: a particle cloud X0 and a common-noise
    measurable q0 per scenario."""

    X0: np.ndarray  # (M_c, P, d)
    q0: np.ndarray  # (M_c, d0)


_STREAM_INIT_X = 2
_STREAM_INIT_Q = 3


def sample_initial(
    n_scenarios: int,
    n_particles: int,
    seed: int,
    x_mean: float = 0.0,
    x_std: float = 1.0,
    q0: float = 0.0,
    q0_std: float = 0.0,
    d: int = 1,
    d0: int = 1,
) -> InitialCondition:
    """i.i.d. Gaussian X0 cloud; q0 deterministic unless q0_std > 0."""
    key_x = np.array([np.uint64(seed), np.uint64(_STREAM_INIT_X << 32)], dtype=np.uint64)
    key_q = np.array([np.uint64(seed), np.uint64(_STREAM_INIT_Q << 32)], dtype=np.uint64)
    gen_x = np.random.Generator(np.random.Philox(key=key_x))
    gen_q = np.random.Generator(np.random.Philox(key=key_q))
    X0 = x_mean + x_std * gen_x.standard_normal((n_scenarios, n_particles, d))
    q = np.full((n_scenarios, d0), float(q0))
    if q0_std > 0:
        q = q + q0_std * gen_q.standard_normal((n_scenarios, d0))
    return InitialCondition(X0=X0, q0=q)


def simulate_forward(
    control: ControlField,
    noise: NoiseBundle,
    primed: PrimedCoefficientSet,
    init: InitialCondition,
    grid: TimeGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler paths of the controlled forward states.

    X_{k+1} = X_k - alpha_x_k dt + sqrt(2 sigma) dB_k
    qf_{k+1} = qf_k - alpha_q_k dt + sqrt(2 sigma0) dW0_k

    X is (M_c, P, N_t+1, d) in the time-major layout of `path_array`.
    """
    m, p, n, d = control.alpha_x.shape
    d0 = control.alpha_q.shape[2]
    if noise.dB.shape != (m, p, n, d) or noise.dW0.shape != (m, n, d0):
        raise SimulationError(
            f"noise bundle shape {noise.dB.shape}/{noise.dW0.shape} does not match control"
        )
    if init.X0.shape != (m, p, d) or init.q0.shape != (m, d0):
        raise SimulationError(f"initial condition shapes {init.X0.shape}/{init.q0.shape} mismatch")
    _validate_control(control)

    dt = grid.dt
    consts = primed.constants
    sx = math.sqrt(2.0 * consts.sigma)
    sq = math.sqrt(2.0 * consts.sigma0)
    # no state feedback in the drift, so the Euler recursion is a cumsum
    X = path_array((m, p, n + 1, d))
    Xt = np.moveaxis(X, 2, 0)
    qf = np.empty((m, n + 1, d0))
    Xt[0] = init.X0
    qf[:, 0] = init.q0
    dBt = np.moveaxis(noise.dB, 2, 0)
    axt = np.moveaxis(control.alpha_x, 2, 0)
    np.cumsum(sx * dBt - dt * axt, axis=0, out=Xt[1:])
    Xt[1:] += init.X0
    np.cumsum(sq * noise.dW0 - dt * control.alpha_q, axis=1, out=qf[:, 1:])
    qf[:, 1:] += init.q0[:, None, :]
    return X, qf


def _validate_control(control: ControlField) -> None:
    if np.isfinite(control.alpha_x.sum()) and np.isfinite(control.alpha_q.sum()):
        return
    finite_x = np.isfinite(control.alpha_x).all(axis=(0, 1, 3))
    finite_q = np.isfinite(control.alpha_q).all(axis=(0, 2))
    bad = np.nonzero(~(finite_x & finite_q))[0]
    raise SimulationError("non-finite drift", step=int(bad[0]) if bad.size else None)


@dataclass
class SolveOutput:
    """One decoupled solve: the full ensemble state, the inverted pair
    (theta_F, theta_H), and per-step regression diagnostics."""

    state: EnsembleState
    theta_F: np.ndarray  # (M_c, P, N_t, d)
    theta_H: np.ndarray  # (M_c, N_t, d0)
    diagnostics: dict = field(default_factory=dict)


def solve_backward(
    forward: tuple[np.ndarray, np.ndarray],
    control: ControlField,
    primed: PrimedCoefficientSet,
    noise: NoiseBundle,
    basis: RegressionBasis,
    grid: TimeGrid,
    compute_z: bool = True,
) -> SolveOutput:
    """Backward Euler sweep with per-step regressions.

    Per step k (from the terminal): first the martingale integrands at k by
    increment-weighted regression, then the pair inverse at
    (X_k, qf_k, Zphi_k) applied to the control, then the value regressions of
    (U, phi, qb) with drivers evaluated at the inverted pair.  Terminal
    slices are set from (g, psi) exactly.
    """
    X, qf = forward
    m, p, n1, d = X.shape
    n = n1 - 1
    d0 = qf.shape[2]
    dt = grid.dt
    consts = primed.constants
    lam = consts.discount
    sq = math.sqrt(2.0 * consts.sigma0)
    ridge = basis.ridge

    # time-major views keep the per-step slabs contiguous; they copy only
    # arrays laid out other than by `path_array`
    Xt = np.ascontiguousarray(np.moveaxis(X, 2, 0))  # (N+1, M, P, d)
    dBt = np.ascontiguousarray(np.moveaxis(noise.dB, 2, 0))
    axt = np.ascontiguousarray(np.moveaxis(control.alpha_x, 2, 0))

    U = path_array((m, p, n + 1, d))
    theta_F = path_array((m, p, n, d))
    Z = path_array((m, p, n, d, d + d0)) if compute_z else None
    Ut = np.moveaxis(U, 2, 0)
    thetaF_t = np.moveaxis(theta_F, 2, 0)
    Zt = np.moveaxis(Z, 2, 0) if compute_z else None
    phi = np.empty((m, n + 1))
    qb = np.empty((m, n + 1, d0))
    Zphi = np.zeros((m, n, d0))
    Zq = np.zeros((m, n, d0, d0))
    theta_H = np.empty((m, n, d0))

    feats_T = conditional_features(Xt[n])
    qf_T = qf[:, n][:, None, :]
    Ut[n] = primed.g(Xt[n], qf_T, feats_T)
    phi[:, n] = primed.psi(qf_T, feats_T)[:, 0]
    qb[:, n] = qf[:, n]

    # carriers: quadratic-basis fits used as regression targets
    u_carry = Ut[n].copy()
    phi_carry = phi[:, n].copy()
    qb_carry = qb[:, n].copy()

    resid_u = np.zeros(n)
    resid_phi = np.zeros(n)
    resid_qb = np.zeros(n)
    se_zphi = np.zeros(n)
    # Control-variate priors must be adapted: they are step-(k+1) fitted
    # FUNCTIONS evaluated at step-k features.  Using step-(k+1) VALUES would
    # leak the step-k increment through the features and bias the values by
    # an Ito-type 2*sigma0*dZ/dq*dt drift per step.  For the scenario-level
    # integrands the prior is the q-gradient of the previous value-carrier
    # fit (value-level noise, no 1/sqrt(dt) amplification); for the minor
    # integrands it is the previous integrand fit itself.
    coef_phi_prev = None  # (ks_cv,) carrier-fit coefficients of phi
    coef_qb_prev = None  # (ks_cv, d0)
    coef_zw = None  # (ks, d*d0)
    coef_zb = None  # (M, kp, d*d)

    for k in range(n - 1, -1, -1):
        Xk = Xt[k]
        qfk = qf[:, k]
        ax_k = axt[k]
        aq_k = control.alpha_q[:, k]
        dBk = dBt[k]
        dW0k = noise.dW0[:, k]
        mean_xk = Xk.mean(axis=1)
        mean_ak = ax_k.mean(axis=1)

        S = basis.scenario_design(qfk, mean_xk, mean_ak)
        Scv = basis.scenario_design(qfk, mean_xk, mean_ak, quadratic=True)
        if 3 * Scv.shape[1] > m:
            Scv = S  # too few scenarios for the enriched control variate
        Pcv = basis.particle_design(Xk, quadratic=True)
        if 3 * Pcv.shape[1] > p:
            Pcv = Pcv[:, :, : 1 + d]
        Pd = Pcv[:, :, : 1 + d] if not basis.quadratic else Pcv
        fit_d = _BatchedFitter(Pd, ridge)
        fit_cv = fit_d if Pcv.shape[2] == Pd.shape[2] else _BatchedFitter(Pcv, ridge)
        quad_cv = Scv is not S

        # carrier fits at step-k features, needed both for the Z residuals
        # and (via their q-gradients) as integrand priors
        cv_phi = regress_conditional(Scv, phi_carry, ridge)
        cv_qb = regress_conditional(Scv, qb_carry, ridge)
        if coef_phi_prev is None:
            # first backward step: bootstrap the prior from the same-step
            # carrier fit (one O(features/M) in-sample leak, then clean)
            coef_phi_prev, coef_qb_prev = cv_phi.coef, cv_qb.coef
        pred_zphi = basis.scenario_q_gradient(coef_phi_prev, qfk, mean_xk, mean_ak, quad_cv)[:, :, 0]
        pred_zq = sq * basis.scenario_q_gradient(
            coef_qb_prev, qfk, mean_xk, mean_ak, quad_cv
        ).transpose(0, 2, 1)
        hess_phi = basis.scenario_q_hessdiag(coef_phi_prev, d0, d, quad_cv)[:, 0]  # (d0,)
        hess_qb = basis.scenario_q_hessdiag(coef_qb_prev, d0, d, quad_cv)  # (d0, d0)
        pred_zw = (S @ coef_zw).reshape(m, d, d0) if coef_zw is not None else np.zeros((m, d, d0))
        pred_zb = (
            (Pd @ coef_zb).reshape(m, p, d, d)
            if coef_zb is not None and coef_zb.shape[1] == Pd.shape[2]
            else np.zeros((m, p, d, d))
        )

        # (a) martingale integrands at k from the carrier next values
        zphi_k = np.zeros((m, d0))
        zq_k = np.zeros((m, d0, d0))
        fit_zw = None
        if consts.sigma0 > 0:
            chi = (dW0k * dW0k - dt) / dt  # (M, d0), mean-zero given F_k
            phi_resid = cv_phi.loo_residuals()  # keep each scenario's own signal
            target = phi_resid[:, None] * dW0k / (sq * dt) - pred_zphi * chi
            fit_zphi = regress_conditional(S, target, ridge)
            zphi_k = fit_zphi.fitted
            se_zphi[k] = float(np.sqrt(np.mean(fit_zphi.residuals**2) * S.shape[1] / m))
            qb_resid = cv_qb.loo_residuals()
            zq_target = qb_resid[:, :, None] * dW0k[:, None, :] / dt - pred_zq * chi[:, None, :]
            fit_zq = regress_conditional(S, zq_target.reshape(m, d0 * d0), ridge)
            zq_k = fit_zq.fitted.reshape(m, d0, d0)
        Zphi[:, k] = zphi_k
        Zq[:, k] = zq_k
        u_resid = fit_cv.loo_residuals(u_carry)
        zb_target = (u_resid[:, :, :, None] * dBk[:, :, None, :] / dt).reshape(m, p, d * d)
        zb_coef = fit_d.coef(zb_target)
        zb_k = (Pd @ zb_coef).reshape(m, p, d, d)
        zw_k = np.zeros((m, 1, d, d0))
        if consts.sigma0 > 0:
            zw_target = u_resid.mean(axis=1)[:, :, None] * dW0k[:, None, :] / dt - pred_zw * chi[:, None, :]
            fit_zw = regress_conditional(S, zw_target.reshape(m, d * d0), ridge)
            zw_k = fit_zw.fitted.reshape(m, 1, d, d0)
        if compute_z:
            Zt[k][:, :, :, :d] = zb_k
            Zt[k][:, :, :, d:] = zw_k

        # (b) invert the pair map at the current (state, Zphi) along the control
        zk = zphi_k[:, None, :]
        qfk_b = qfk[:, None, :]
        thF, thH = theta_inverse(primed, Xk, qfk_b, zk, ax_k, aq_k[:, None, :])
        thetaF_t[k] = thF
        theta_H[:, k] = thH[:, 0]

        # (c) value regressions of the martingale-subtracted targets; the
        # subtraction coefficients are step-(k+1) fitted functions evaluated
        # at step-k features, so the conditional expectation is exact and
        # only O(sqrt(dt)) target noise remains.  Exposed values fit in the
        # configured basis; carriers refit in the quadratic basis so
        # curvature survives for the next integrand estimate.
        feats_k = conditional_features(Xk, thF)
        drv_u = primed.Gp(Xk, qfk_b, thH, thF, zk, feats_k)
        drv_phi = primed.LHp(qfk_b, thH, zk, feats_k)[:, 0] + lam * phi_carry
        drv_qb = primed.Hzp(qfk_b, thH, zk, feats_k)[:, 0]

        mart_u = np.einsum("mpij,mpj->mpi", pred_zb, dBk) + np.einsum(
            "mij,mj->mi", pred_zw, dW0k
        )[:, None, :]
        target_u = u_carry + dt * drv_u - mart_u
        u_coef = fit_d.coef(target_u)
        Ut[k] = Pd @ u_coef
        resid_u[k] = float(np.sqrt(np.mean((target_u - Ut[k]) ** 2)))
        u_carry = Ut[k] if fit_cv is fit_d else fit_cv.fit(target_u)

        # chi-square (Ito-level) fluctuations subtracted with the prior
        # curvature: E[dW^2 - dt | F_k] = 0 keeps the targets unbiased
        chi_abs = dW0k * dW0k - dt  # (M, d0)
        target_phi = (
            phi_carry
            + dt * drv_phi
            - sq * np.einsum("mj,mj->m", pred_zphi, dW0k)
            - 0.5 * (2.0 * consts.sigma0) * chi_abs @ hess_phi
        )
        fit_phi = regress_conditional(S, target_phi, ridge)
        phi[:, k] = fit_phi.fitted
        resid_phi[k] = float(np.sqrt(np.mean(fit_phi.residuals**2)))
        carry_fit_phi = fit_phi if Scv is S else regress_conditional(Scv, target_phi, ridge)
        phi_carry = carry_fit_phi.fitted

        target_qb = (
            qb_carry
            + dt * drv_qb
            - np.einsum("mij,mj->mi", pred_zq, dW0k)
            - 0.5 * (2.0 * consts.sigma0) * chi_abs @ hess_qb
        )
        fit_qb = regress_conditional(S, target_qb, ridge)
        qb[:, k] = fit_qb.fitted
        resid_qb[k] = float(np.sqrt(np.mean(fit_qb.residuals**2)))
        carry_fit_qb = fit_qb if Scv is S else regress_conditional(Scv, target_qb, ridge)
        qb_carry = carry_fit_qb.fitted

        coef_phi_prev, coef_qb_prev = carry_fit_phi.coef, carry_fit_qb.coef
        if fit_zw is not None:
            coef_zw = fit_zw.coef
        coef_zb = zb_coef

    state = EnsembleState(X=X, U=U, qf=qf, qb=qb, phi=phi, Zphi=Zphi, Zq=Zq, Z=Z)
    if not (
        np.isfinite(U.sum()) and np.isfinite(phi.sum()) and np.isfinite(qb.sum())
        and np.isfinite(Zphi.sum()) and np.isfinite(X.sum())
    ):
        raise SimulationError("backward sweep produced non-finite values")
    diagnostics = {
        "resid_u": resid_u,
        "resid_phi": resid_phi,
        "resid_qb": resid_qb,
        "se_zphi": se_zphi,
        "max_abs_zphi": float(np.max(np.abs(Zphi))) if n else 0.0,
    }
    return SolveOutput(state=state, theta_F=theta_F, theta_H=theta_H, diagnostics=diagnostics)


def decoupled_solve(
    control: ControlField,
    primed: PrimedCoefficientSet,
    noise: NoiseBundle,
    init: InitialCondition,
    basis: RegressionBasis,
    grid: TimeGrid,
    compute_z: bool = True,
) -> SolveOutput:
    """Forward pass then backward sweep for one frozen control.

    sigma0 = 0 is allowed for degenerate diagnostics: the common-noise
    integrand estimates are simply zero in that case.

    Inputs in the layout of `path_array` (everything the package allocates)
    pass through both sweeps without a copy; other layouts are copied to it.
    """
    forward = simulate_forward(control, noise, primed, init, grid)
    return solve_backward(forward, control, primed, noise, basis, grid, compute_z=compute_z)
