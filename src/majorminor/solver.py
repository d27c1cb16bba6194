"""Decoupled forward-backward solves for a frozen control field.

Forward: explicit Euler for the state clouds driven by the control.
Backward: least-squares Monte Carlo, one regression sweep per step.
Particle-borne quantities (U and its martingale integrand) regress within
each scenario on functions of the particle state; scenario-borne quantities
(phi, qb and their integrands) regress across scenarios on common features,
which keeps them adapted to the common filtration by construction.

The backward sweep carries two versions of every scenario-level backward
quantity: the values fitted in the configured basis (the exposed
conditional-expectation estimates) and carrier values fitted in a quadratic
enrichment of that basis.  Regression targets are built from the carriers:
feeding the exposed fits back into targets would erase any structure outside
the projection span (for a value function with curvature, the next step's
integrand estimate would collapse to the cloud-center tangent), while raw
pathwise carriers would recycle their accumulated martingale noise into the
increment-weighted estimators at a 1/sqrt(dt) amplification.  The quadratic
carrier keeps the curvature and resets the noise at every step; it is exact
for the linear-quadratic family.  Below `QUADRATIC_MIN_SCENARIOS` scenarios
the scenario carrier stays affine.  Particle fits, U included, are affine in x.

Martingale integrands use the increment-weighted estimator with a regressed
conditional mean subtracted first.  The subtraction never biases the
estimator (any adapted function is orthogonal to the next increment), so it
may use a richer feature set than the projection basis; we enrich it with
quadratic features to keep the weighted targets at the noise floor.  A second
control variate, prior*((dW)^2 - dt)/dt with the prior taken from the step
k+1 fit (independent of the step-k increment, hence still unbiased), removes
the O(1) chi-square fluctuation of the weighted estimator and leaves
O(sqrt(dt)) target noise.

The within-scenario fits (the leave-one-out fit of the next U, and the fit
of the U target with the minor-integrand target) share the affine design
[1, x] of one step, and d = 1, so `AffineDesign` solves them in closed form
from per-scenario sums on (M, P) slabs, with the ridge, the leverage clip
and the rank check of `regress_conditional`.  Everything of a step that
depends on the forward pass only (the scenario means of X and of the
control, the scenario designs, and the sums of x and x^2) is computed for
all steps before the sweep, in O(N M k) memory; nothing particle-sized is
kept across steps.  The cross-scenario fits stay with `regress_conditional`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import ControlField, EnsembleState, conditional_features
from .errors import ConfigurationError, RegressionError, SimulationError
from .grids import NoiseBundle, TimeGrid, path_array
from .models import PrimedCoefficientSet, theta_inverse

__all__ = [
    "QUADRATIC_MIN_SCENARIOS",
    "RegressionBasis",
    "AffineDesign",
    "SolveOutput",
    "InitialCondition",
    "sample_initial",
    "simulate_forward",
    "regress_conditional",
    "solve_backward",
    "decoupled_solve",
]


# Cross-scenario fits in the quadratic scenario design (8 features) need at
# least three scenarios per feature; with fewer the sweep runs to garbage.
QUADRATIC_MIN_SCENARIOS = 24


@dataclass(frozen=True)
class RegressionBasis:
    """Feature policy for the conditional-expectation regressions.

    Particle fits are affine in x (constant, x) and solved in closed form by
    `AffineDesign`.  Scenario fits use constant, q, mean_x, mean_u;
    `quadratic` adds the squared and cross terms to the scenario fits only
    and needs `QUADRATIC_MIN_SCENARIOS` (24) scenarios.  Ridge is relative to
    the trace scale of the normal equations.
    """

    quadratic: bool = False
    ridge: float = 1e-8

    def scenario_design(
        self, q: np.ndarray, mean_x: np.ndarray, mean_u: np.ndarray, quadratic: bool | None = None
    ) -> np.ndarray:
        """Per-scenario features (..., M, k); q is (..., M, d0), means are
        (..., M, d).  Leading axes (the steps of a whole path) carry through."""
        cols = [np.ones(q.shape[:-1] + (1,)), q, mean_x, mean_u]
        if self.quadratic if quadratic is None else quadratic:
            cols.extend([q * q, mean_x * mean_x, q * mean_x, q * mean_u])
        return np.concatenate(cols, axis=-1)


def _scenario_q_derivatives(coef: np.ndarray, q: np.ndarray, mean_x: np.ndarray, mean_u: np.ndarray):
    """q-gradient (M, d0, n_out) and constant second q-derivative (d0, n_out)
    of a scenario fit with coef (k, n_out), for d = d0 = 1; k = 4 is the
    affine design, k = 8 the quadratic one."""
    grad = np.tile(coef[1], (q.shape[0], 1))
    if coef.shape[0] == 4:
        return grad[:, None], np.zeros((1, coef.shape[1]))
    # summed left to right, in the order of the quadratic columns
    grad = grad + 2.0 * q * coef[4] + mean_x * coef[6] + mean_u * coef[7]
    return grad[:, None], 2.0 * coef[4:5]


class FittedRegression:
    """Least-squares fit with ridge; callable on new design rows.

    Leverage, and so `loo_residuals`, is computed on first use only.
    """

    def __init__(self, design: np.ndarray, gram: np.ndarray, coef: np.ndarray, y: np.ndarray, squeeze: bool):
        self._design = design
        self._gram = gram
        self._leverage = None
        fitted = design @ coef
        resid = y - fitted
        if squeeze:
            coef, fitted, resid = coef[..., 0], fitted[..., 0], resid[..., 0]
        self.coef = coef
        self.fitted = fitted
        self.residuals = resid

    def __call__(self, design: np.ndarray) -> np.ndarray:
        return design @ self.coef

    def loo_residuals(self) -> np.ndarray:
        """Leave-one-out residuals e/(1-h): remove the in-sample absorption
        of each row's own signal (exact for fixed ridge); h is clipped at 0.8."""
        if self._leverage is None:
            h = np.einsum("...nk,...nk->...n", self._design @ np.linalg.inv(self._gram), self._design)
            self._leverage = np.clip(h, 0.0, 0.8)
        h = self._leverage
        return self.residuals / (1.0 - (h if self.residuals.ndim == h.ndim else h[..., None]))


def regress_conditional(design: np.ndarray, targets: np.ndarray, ridge: float = 1e-8) -> FittedRegression:
    """Ridge-regularized projection of targets onto the feature span.

    design: (..., n, k), where leading axes index independent fits;
    targets: (..., n), or (..., n, r) for r targets that share the design,
    solved in one call.  The backward sweep uses it for the cross-scenario
    fits; its within-scenario fits go through `AffineDesign`.
    Ridge is relative to the trace of each normal-equation matrix.  With
    zero ridge a rank-deficient system raises a regression error.

    Coefficients come from `np.linalg.solve` on the normal equations, never
    from an explicit inverse: near the fixed point the scenario mean of the
    control is close to affine in the other scenario features, so the
    cross-scenario normal equations are close to singular, and an inverse
    applied to the right-hand side moves the late iterates' residuals by
    about 2e-6 relative.  Leverage enters only through the clipped
    leave-one-out division, where the inverse keeps the recorded benchmark
    results within their 1e-6 match and is cheaper than a solve against a
    (k, n) right-hand side.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    squeeze = y.ndim < design.ndim
    if squeeze:
        y = y[..., None]
    # a contiguous transpose lets the stacked products below run in BLAS
    design_t = np.ascontiguousarray(np.swapaxes(design, -1, -2))
    gram = design_t @ design
    k = gram.shape[-1]
    if ridge == 0.0 and (design.shape[-2] < k or np.any(np.linalg.matrix_rank(gram) < k)):
        raise RegressionError("rank-deficient normal equations without ridge")
    lam = ridge * np.trace(gram, axis1=-2, axis2=-1) / k
    gram = gram + lam[..., None, None] * np.eye(k)
    try:
        coef = np.linalg.solve(gram, design_t @ y)
    except np.linalg.LinAlgError as exc:
        raise RegressionError(f"singular normal equations: {exc}") from exc
    return FittedRegression(design, gram, coef, y, squeeze)


class AffineDesign:
    """The affine design [1, x] of the within-scenario fits (d = 1), solved
    in closed form from per-scenario sums.

    x: (..., n), one fit per leading index (a scenario's particles along n).
    The sums over n of x and x^2 may be passed in when the caller has them
    for many steps at once.  Everything else follows `regress_conditional` on
    the same design: the ridge lam = ridge * (n + sum x^2) / 2 is relative to
    the trace of the normal equations, leverage is clipped at 0.8, and with
    zero ridge a rank-deficient fit (n < 2, or x constant to rounding, by the
    tolerance of `np.linalg.matrix_rank` with the trace for the largest
    singular value) raises a regression error.  On 2-D slabs this makes a
    few passes over x and y where the generic routine loops over a
    (..., n, 2) design.
    """

    def __init__(
        self, x: np.ndarray, ridge: float, sum_x: np.ndarray | None = None, sum_xx: np.ndarray | None = None
    ):
        n = x.shape[-1]
        sum_x = x.sum(axis=-1) if sum_x is None else sum_x
        sum_xx = np.einsum("...n,...n->...", x, x) if sum_xx is None else sum_xx
        trace = n + sum_xx
        if ridge == 0.0:
            # det = n * spread; rank < 2 when det <= 2 eps trace^2
            spread = np.square(x - (sum_x / max(n, 1))[..., None]).sum(axis=-1)
            if n < 2 or np.any(spread <= 2.0 * np.finfo(float).eps * trace**2 / n):
                raise RegressionError("rank-deficient normal equations without ridge")
        lam = 0.5 * ridge * trace
        self.x = x
        # the ridged normal equations [[g00, g01], [g01, g11]] and their determinant
        self._g00 = n + lam
        self._g01 = sum_x
        self._g11 = sum_xx + lam
        self._det = self._g00 * self._g11 - sum_x * sum_x

    def coef(self, y: np.ndarray) -> np.ndarray:
        """Coefficients (..., 2) of the fit of y (..., n)."""
        sum_y = y.sum(axis=-1)
        sum_xy = np.einsum("...n,...n->...", self.x, y)
        coef = np.empty(sum_y.shape + (2,))
        coef[..., 0] = (self._g11 * sum_y - self._g01 * sum_xy) / self._det
        coef[..., 1] = (self._g00 * sum_xy - self._g01 * sum_y) / self._det
        return coef

    def __call__(self, coef: np.ndarray) -> np.ndarray:
        """Fitted values (..., n) of coefficients (..., 2)."""
        fitted = coef[..., 1:] * self.x
        fitted += coef[..., :1]
        return fitted

    def loo_residuals(self, y: np.ndarray) -> np.ndarray:
        """Leave-one-out residuals e/(1-h) of the fit of y, as in
        `FittedRegression.loo_residuals`; h is clipped at 0.8."""
        # h = (g11 - 2 g01 x + g00 x^2) / det, by Horner in one buffer
        h = self._g00[..., None] * self.x
        h -= 2.0 * self._g01[..., None]
        h *= self.x
        h += self._g11[..., None]
        h /= self._det[..., None]
        np.clip(h, 0.0, 0.8, out=h)
        resid = y - self(self.coef(y))
        resid /= 1.0 - h
        return resid


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
    # no state feedback in the drift, so the Euler recursion is a running
    # sum of the increments, accumulated in place and shifted by X0 at the end
    X = path_array((m, p, n + 1, d))
    Xt = np.moveaxis(X, 2, 0)
    qf = np.empty((m, n + 1, d0))
    Xt[0] = init.X0
    qf[:, 0] = init.q0
    axt = np.moveaxis(control.alpha_x, 2, 0)
    np.multiply(np.moveaxis(noise.dB, 2, 0), sx, out=Xt[1:])
    for k in range(n):
        Xt[k + 1] -= dt * axt[k]
        if k:
            Xt[k + 1] += Xt[k]
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
    if basis.quadratic and m < QUADRATIC_MIN_SCENARIOS:
        raise ConfigurationError([f"a quadratic basis needs >= {QUADRATIC_MIN_SCENARIOS} scenarios, got {m}"])
    n = n1 - 1
    d0 = qf.shape[2]
    dt = grid.dt
    consts = primed.constants
    lam = consts.discount
    sq = math.sqrt(2.0 * consts.sigma0)
    ridge = basis.ridge
    # the carrier design is quadratic: S itself for a quadratic basis, an
    # enriched S when there are enough scenarios, else the affine S
    enrich_cv = not basis.quadratic and m >= QUADRATIC_MIN_SCENARIOS

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
    # d = 1: the particle arithmetic runs on (M, P) slabs of these views
    x, u, dB = Xt[..., 0], Ut[..., 0], dBt[..., 0]

    # step geometry: everything that depends on the forward pass only, for
    # all steps at once; O(N M k) memory, no (N, M, P) temporaries
    sum_x = x[:n].sum(axis=2)  # (N, M)
    sum_xx = np.einsum("kmp,kmp->km", x[:n], x[:n])
    q_steps = np.moveaxis(qf[:, :n], 1, 0)  # (N, M, d0)
    mean_x = (sum_x / p)[..., None]  # (N, M, d)
    mean_a = axt.mean(axis=2)
    S = basis.scenario_design(q_steps, mean_x, mean_a)  # (N, M, k)
    Scv = basis.scenario_design(q_steps, mean_x, mean_a, quadratic=True) if enrich_cv else S

    feats_T = conditional_features(Xt[n])
    qf_T = qf[:, n][:, None, :]
    Ut[n] = primed.g(Xt[n], qf_T, feats_T)
    phi[:, n] = primed.psi(qf_T, feats_T)[:, 0]
    qb[:, n] = qf[:, n]

    # scenario carrier: quadratic-basis fits of phi and qb used as
    # regression targets, stacked as columns (M, 1 + d0)
    carry = np.column_stack([phi[:, n], qb[:, n]])

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
    coef_carry = None  # (ks_cv, 1 + d0) carrier-fit coefficients of (phi, qb)
    coef_zw = None  # (ks, d*d0)
    coef_zb = None  # (M, 2) particle coefficients of the minor integrand

    for k in range(n - 1, -1, -1):
        Xk = Xt[k]
        qfk = qf[:, k]
        aq_k = control.alpha_q[:, k]
        dW0k = noise.dW0[:, k]
        Sk = S[k]
        P = AffineDesign(x[k], ridge, sum_x[k], sum_xx[k])

        # carrier fits at step-k features, needed both for the Z residuals
        # and (via their q-gradients) as integrand priors
        cv = regress_conditional(Scv[k], carry, ridge)
        if coef_carry is None:
            # first backward step: bootstrap the prior from the same-step
            # carrier fit (one O(features/M) in-sample leak, then clean)
            coef_carry = cv.coef
        grad, hess = _scenario_q_derivatives(coef_carry, q_steps[k], mean_x[k], mean_a[k])
        pred_zphi = grad[:, :, 0]
        pred_zq = sq * grad[:, :, 1:].transpose(0, 2, 1)
        hess_phi, hess_qb = hess[:, 0], hess[:, 1:]
        pred_zw = (Sk @ coef_zw).reshape(m, d, d0) if coef_zw is not None else np.zeros((m, d, d0))
        pred_zb = P(coef_zb) if coef_zb is not None else 0.0

        # (a) martingale integrands at k from the next U and the next scenario
        # carriers; the three scenario-level targets share S and are fitted
        # in one call
        u_resid = P.loo_residuals(u[k + 1])
        zw_k = np.zeros((m, 1, d, d0))
        if consts.sigma0 > 0:
            chi = (dW0k * dW0k - dt) / dt  # (M, d0), mean-zero given F_k
            resid = cv.loo_residuals()  # keep each scenario's own signal
            zphi_target = resid[:, :1] * dW0k / (sq * dt) - pred_zphi * chi
            zq_target = resid[:, 1:, None] * dW0k[:, None, :] / dt - pred_zq * chi[:, None, :]
            zw_target = u_resid.mean(axis=1)[:, None, None] * dW0k[:, None, :] / dt - pred_zw * chi[:, None, :]
            z_targets = [zphi_target, zq_target.reshape(m, -1), zw_target.reshape(m, -1)]
            fit_z = regress_conditional(Sk, np.concatenate(z_targets, axis=1), ridge)
            Zphi[:, k] = fit_z.fitted[:, :d0]
            se_zphi[k] = float(np.sqrt(np.mean(fit_z.residuals[:, :d0] ** 2) * Sk.shape[1] / m))
            Zq[:, k] = fit_z.fitted[:, d0 : d0 + d0 * d0].reshape(m, d0, d0)
            zw_k = fit_z.fitted[:, d0 + d0 * d0 :].reshape(m, 1, d, d0)
            coef_zw = fit_z.coef[:, d0 + d0 * d0 :]

        # (b) invert the pair map at the current (state, Zphi) along the control
        zk = Zphi[:, k][:, None, :]
        qfk_b = qfk[:, None, :]
        thF, thH = theta_inverse(primed, Xk, qfk_b, zk, axt[k], aq_k[:, None, :])
        thetaF_t[k] = thF
        theta_H[:, k] = thH[:, 0]

        # (c) value regressions of the martingale-subtracted targets; the
        # subtraction coefficients are step-(k+1) fitted functions evaluated
        # at step-k features, so the conditional expectation is exact and
        # only O(sqrt(dt)) target noise remains.  Exposed values fit in the
        # configured basis; scenario carriers refit in the quadratic basis so
        # curvature survives for the next integrand estimate.  The particle
        # integrand target shares P with the U target.
        feats_k = conditional_features(Xk, thF)
        drv_u = primed.Gp(Xk, qfk_b, thH, thF, zk, feats_k)[..., 0]
        drv_phi = primed.LHp(qfk_b, thH, zk, feats_k)[:, 0] + lam * carry[:, 0]
        drv_qb = primed.Hzp(qfk_b, thH, zk, feats_k)[:, 0]

        mart_u = pred_zb * dB[k] + (pred_zw[:, 0, 0] * dW0k[:, 0])[:, None]
        target_u = dt * drv_u
        target_u += u[k + 1]
        target_u -= mart_u
        u[k] = P(P.coef(target_u))
        fit_resid = np.subtract(target_u, u[k], out=target_u)
        resid_u[k] = math.sqrt(np.vdot(fit_resid, fit_resid) / fit_resid.size)
        zb_target = np.multiply(u_resid, dB[k], out=u_resid)
        zb_target /= dt
        coef_zb = P.coef(zb_target)
        if compute_z:
            Zt[k][:, :, 0, 0] = P(coef_zb)
            Zt[k][:, :, :, d:] = zw_k

        # chi-square (Ito-level) fluctuations subtracted with the prior
        # curvature: E[dW^2 - dt | F_k] = 0 keeps the targets unbiased
        chi_abs = dW0k * dW0k - dt  # (M, d0)
        target_phi = (
            carry[:, 0]
            + dt * drv_phi
            - sq * np.einsum("mj,mj->m", pred_zphi, dW0k)
            - 0.5 * (2.0 * consts.sigma0) * chi_abs @ hess_phi
        )
        target_qb = (
            carry[:, 1:]
            + dt * drv_qb
            - np.einsum("mij,mj->mi", pred_zq, dW0k)
            - 0.5 * (2.0 * consts.sigma0) * chi_abs @ hess_qb
        )
        targets = np.column_stack([target_phi, target_qb])
        fit_v = regress_conditional(Sk, targets, ridge)
        phi[:, k] = fit_v.fitted[:, 0]
        qb[:, k] = fit_v.fitted[:, 1:]
        resid_phi[k] = float(np.sqrt(np.mean(fit_v.residuals[:, 0] ** 2)))
        resid_qb[k] = float(np.sqrt(np.mean(fit_v.residuals[:, 1:] ** 2)))
        fit_carry = fit_v if Scv is S else regress_conditional(Scv[k], targets, ridge)
        carry = fit_carry.fitted
        coef_carry = fit_carry.coef

    state = EnsembleState(X=X, U=U, qf=qf, qb=qb, phi=phi, Zphi=Zphi, Zq=Zq, Z=Z)
    if not (
        np.isfinite(U.sum()) and np.isfinite(phi.sum()) and np.isfinite(qb.sum())
        and np.isfinite(Zphi.sum()) and np.isfinite(X.sum())
    ):
        raise SimulationError("backward sweep produced non-finite values")
    diagnostics = {"resid_u": resid_u, "resid_phi": resid_phi, "resid_qb": resid_qb, "se_zphi": se_zphi}
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
