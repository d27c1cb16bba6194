"""Decoupled forward-backward solves for a frozen control field.

States are scalar: particle paths are (M, P, N) in the time-major layout of
`path_array`, and scenario paths are (M, N).
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
[1, x] of one step, so `AffineDesign` solves them in closed form
from per-scenario sums on (M, P) slabs, with the ridge, the leverage clip
and the rank check of `regress_conditional`.  Everything of a step that
depends on the forward pass only (the scenario means of X and of the
control, the scenario designs, the sums of x and x^2, and the cross-scenario
normal equations with their leverage, set up by `NormalEquations`) is
computed for all steps before the sweep, in O(N M k) memory, so a step only
solves its normal equations; nothing particle-sized is kept across steps.

Outputs.  A solve holds one particle path, the forward buffer: the sweep
reads X_k once, at step k, and then writes gap_F[..., k] = theta_F - U[...,
k], the x-block of the operator value, into slab k+1 of X, which no later
step reads.  So `solve_backward` consumes the forward path it is given, and
gap_F is slabs 1..N of that buffer.  The state keeps slab 0 (X0) and
references to the solve's own control, noise, coefficient sets and grids,
and `EnsembleState.X` runs the forward pass again on them, which gives the
same bits.  U is kept as its (M, 2) affine coefficients per step plus the
terminal slab, from which `EnsembleState.u(k)` rebuilds any slab bit for
bit; the sweep carries the next step's slab in a buffer, not in a path.

Instance axis.  `simulate_forward`, `solve_backward` and `decoupled_solve`
also solve a stack of independent instances of one size in one sweep: the
control, the noise and the initial condition carry a leading instance axis
B, and `primed` and `grid` are sequences with one entry per instance.
Particle path arrays of a stack keep the time-major storage of `path_array`,
(N, B, M, P), so each step's slab of the whole stack is contiguous; dt,
sigma, sigma0 and the discount become per-instance arrays that broadcast
against it.  The cross-scenario fits and `AffineDesign` run on the whole
stack; the model callbacks, `theta_inverse` and `conditional_features` are
called once per instance on its own (M, P) slab, so the model API is that of
one instance.  A single instance is the case without the leading axis, and
per instance a stacked solve gives the same bits as a solo one.  The
instances of a stack must agree on whether sigma0 is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import ControlField, conditional_features
from .errors import ConfigurationError, ContractError, RegressionError, SimulationError
from .grids import _STREAM_INIT_Q, _STREAM_INIT_X, NoiseBundle, TimeGrid, _scenario_generator, path_array
from .models import PrimedCoefficientSet, theta_inverse

__all__ = [
    "QUADRATIC_MIN_SCENARIOS",
    "MIN_PARTICLES",
    "RegressionBasis",
    "AffineDesign",
    "NormalEquations",
    "EnsembleState",
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
# The within-scenario fits on the affine design [1, x] (2 features) need at
# least two particles per feature; with fewer the iteration runs to garbage.
MIN_PARTICLES = 4


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
        """Per-scenario features (..., M, k); q and the means are (..., M).
        Leading axes (the steps of a whole path) carry through."""
        cols = [np.ones(q.shape), q, mean_x, mean_u]
        if self.quadratic if quadratic is None else quadratic:
            cols.extend([q * q, mean_x * mean_x, q * mean_x, q * mean_u])
        return np.stack(cols, axis=-1)


def _scenario_q_derivatives(coef: np.ndarray, q: np.ndarray, mean_x: np.ndarray, mean_u: np.ndarray):
    """q-gradient (..., M, n_out), or (..., 1, n_out) where it is the same
    for every scenario, and constant second q-derivative (..., n_out) of a
    scenario fit with coef (..., k, n_out) at q and means (..., M); k = 4 is
    the affine design, k = 8 the quadratic one."""
    grad = coef[..., None, 1, :]  # constant across scenarios: (..., 1, n_out) broadcasts
    if coef.shape[-2] == 4:
        return grad, np.zeros_like(coef[..., 1, :])
    # summed left to right, in the order of the quadratic columns
    grad = (
        grad
        + 2.0 * q[..., None] * coef[..., None, 4, :]
        + mean_x[..., None] * coef[..., None, 6, :]
        + mean_u[..., None] * coef[..., None, 7, :]
    )
    return grad, 2.0 * coef[..., 4, :]


def _mean(a: np.ndarray) -> np.ndarray:
    """np.mean over the last axis, without its per-call overhead (same bits)."""
    return np.add.reduce(a, axis=-1) / a.shape[-1]


def _columns(*cols: np.ndarray) -> np.ndarray:
    """np.stack(cols, axis=-1), without its per-call overhead."""
    out = np.empty(cols[0].shape + (len(cols),))
    for j, col in enumerate(cols):
        out[..., j] = col
    return out


class NormalEquations:
    """The ridged normal equations of one design, set up once for many fits.

    design: (..., n, k), where leading axes index independent designs (the
    steps of a backward sweep, the instances of a stack).  The contiguous
    transpose, the ridged Gram matrices and, on first use, the clipped
    leverage are computed for every leading index in one batched call;
    `fit` then only solves one of them against its targets.  Ridge is
    relative to the trace of each Gram matrix.  With zero ridge a
    rank-deficient design raises a regression error.

    Coefficients come from `np.linalg.solve` on the normal equations, never
    from an explicit inverse: near the fixed point the scenario mean of the
    control is close to affine in the other scenario features, so the
    cross-scenario normal equations are close to singular, and an inverse
    applied to the right-hand side moves the late iterates' residuals by
    about 2e-6 relative.  Leverage enters only through the clipped
    leave-one-out division, where the inverse keeps the recorded benchmark
    results within their 1e-6 match and is cheaper than a solve against a
    (k, n) right-hand side.  Batched products and solves give each leading
    index the same bits as its own call would.
    """

    def __init__(self, design: np.ndarray, ridge: float = 1e-8):
        design = np.asarray(design, dtype=float)
        self.design = design
        # a contiguous transpose lets the stacked products below run in BLAS
        self.design_t = np.ascontiguousarray(np.swapaxes(design, -1, -2))
        gram = self.design_t @ design
        k = gram.shape[-1]
        if ridge == 0.0 and (design.shape[-2] < k or np.any(np.linalg.matrix_rank(gram) < k)):
            raise RegressionError("rank-deficient normal equations without ridge")
        lam = ridge * np.trace(gram, axis1=-2, axis2=-1) / k
        self.gram = gram + lam[..., None, None] * np.eye(k)
        self._leverage = None

    def leverage(self) -> np.ndarray:
        """Leverage (..., n) of every row of every design, clipped at 0.8."""
        if self._leverage is None:
            h = np.einsum("...nk,...nk->...n", self.design @ np.linalg.inv(self.gram), self.design)
            self._leverage = np.clip(h, 0.0, 0.8)
        return self._leverage

    def fit(self, targets: np.ndarray, index: tuple = ()) -> "FittedRegression":
        """Fit of targets on the design at `index`, a tuple of leading
        indices (all of them by default): targets (..., n), or (..., n, r)
        for r targets that share the design, solved in one call."""
        design = self.design[index]
        y = np.asarray(targets, dtype=float)
        squeeze = y.ndim < design.ndim
        if squeeze:
            y = y[..., None]
        try:
            coef = np.linalg.solve(self.gram[index], self.design_t[index] @ y)
        except np.linalg.LinAlgError as exc:
            raise RegressionError(f"singular normal equations: {exc}") from exc
        return FittedRegression(self, index, coef, y, squeeze)


class FittedRegression:
    """Least-squares fit with ridge; callable on new design rows.

    Leverage, and so `loo_residuals`, is computed on first use only.
    """

    def __init__(self, equations: NormalEquations, index: tuple, coef: np.ndarray, y: np.ndarray, squeeze: bool):
        self._equations = equations
        self._index = index
        fitted = equations.design[index] @ coef
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
        h = self._equations.leverage()[self._index]
        return self.residuals / (1.0 - (h if self.residuals.ndim == h.ndim else h[..., None]))


def regress_conditional(design: np.ndarray, targets: np.ndarray, ridge: float = 1e-8) -> FittedRegression:
    """Ridge-regularized projection of targets onto the feature span: the
    set-up of `NormalEquations` plus one solve.

    design: (..., n, k), where leading axes index independent fits;
    targets: (..., n), or (..., n, r) for r targets that share the design.
    The backward sweep sets up its cross-scenario designs once per sweep
    with `NormalEquations`; its within-scenario fits go through
    `AffineDesign`.
    """
    return NormalEquations(design, ridge).fit(targets)


class AffineDesign:
    """The affine design [1, x] of the within-scenario fits, solved
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
    measurable q0 per scenario (with a leading instance axis for a stack)."""

    X0: np.ndarray  # ([B,] M_c, P)
    q0: np.ndarray  # ([B,] M_c)


def sample_initial(
    n_scenarios: int,
    n_particles: int,
    seed: int,
    x_mean: float = 0.0,
    x_std: float = 1.0,
    q0: float = 0.0,
    q0_std: float = 0.0,
) -> InitialCondition:
    """i.i.d. Gaussian X0 cloud; q0 deterministic unless q0_std > 0."""
    X0 = x_mean + x_std * _scenario_generator(seed, 0, _STREAM_INIT_X).standard_normal((n_scenarios, n_particles))
    q = np.full(n_scenarios, float(q0))
    if q0_std > 0:
        q = q + q0_std * _scenario_generator(seed, 0, _STREAM_INIT_Q).standard_normal(n_scenarios)
    return InitialCondition(X0=X0, q0=q)


def _instances(control: ControlField, primed, grid):
    """Slots, coefficient sets and grids of the instances of a solve.

    A control with alpha_x (M, P, N) is one instance, whose slot () indexes
    its arrays whole.  A leading axis B makes a stack: instance i has the
    slot (i,) and takes primed[i] and grid[i].
    """
    if control.alpha_x.ndim == 3:
        return [()], [primed], [grid]
    b = control.alpha_x.shape[0]
    primed, grid = list(primed), list(grid)
    if len(primed) != b or len(grid) != b:
        raise ContractError(
            f"a stack of {b} instances needs {b} coefficient sets and grids, got {len(primed)} and {len(grid)}"
        )
    return [(i,) for i in range(b)], primed, grid


def _per_instance(values: list[float], stacked: bool):
    """Per-instance scalars in the two shapes they broadcast in, against
    (..., M) and against (..., M, P) or (..., M, N): one instance keeps its
    float, a stack gets (B, 1) and (B, 1, 1) arrays."""
    if not stacked:
        return values[0], values[0]
    col = np.asarray(values, dtype=float)[:, None]
    return col, col[:, :, None]


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

    X is (M_c, P, N_t+1) in the time-major layout of `path_array`, qf is
    (M_c, N_t+1).  A stack (see the module docstring) adds a leading
    instance axis to both; `primed` and `grid` are then one per instance.
    """
    slots, primeds, grids = _instances(control, primed, grid)
    *lead, m, p, n = control.alpha_x.shape
    if noise.dB.shape != control.alpha_x.shape or noise.dW0.shape != control.alpha_q.shape:
        raise SimulationError(
            f"noise bundle shape {noise.dB.shape}/{noise.dW0.shape} does not match control"
        )
    if init.X0.shape != (*lead, m, p) or init.q0.shape != (*lead, m):
        raise SimulationError(f"initial condition shapes {init.X0.shape}/{init.q0.shape} mismatch")
    _validate_control(control)

    stacked = bool(lead)
    _, dt = _per_instance([g.dt for g in grids], stacked)
    _, sx = _per_instance([math.sqrt(2.0 * pr.constants.sigma) for pr in primeds], stacked)
    _, sq = _per_instance([math.sqrt(2.0 * pr.constants.sigma0) for pr in primeds], stacked)
    # no state feedback in the drift, so the Euler recursion is a running
    # sum of the increments, accumulated in place and shifted by X0 at the end
    X = path_array((*lead, m, p, n + 1))
    Xt = np.moveaxis(X, -1, 0)
    qf = np.empty((*lead, m, n + 1))
    Xt[0] = init.X0
    qf[..., 0] = init.q0
    axt = np.moveaxis(control.alpha_x, -1, 0)
    np.multiply(np.moveaxis(noise.dB, -1, 0), sx, out=Xt[1:])
    for k in range(n):
        Xt[k + 1] -= dt * axt[k]
        if k:
            Xt[k + 1] += Xt[k]
    Xt[1:] += init.X0
    np.cumsum(sq * noise.dW0 - dt * control.alpha_q, axis=-1, out=qf[..., 1:])
    qf[..., 1:] += init.q0[..., None]
    return X, qf


def _validate_control(control: ControlField) -> None:
    if np.isfinite(control.alpha_x.sum()) and np.isfinite(control.alpha_q.sum()):
        return
    n = control.alpha_q.shape[-1]
    finite = np.isfinite(control.alpha_x).reshape(-1, n).all(axis=0)
    finite &= np.isfinite(control.alpha_q).reshape(-1, n).all(axis=0)
    bad = np.nonzero(~finite)[0]
    raise SimulationError("non-finite drift", step=int(bad[0]) if bad.size else None)


@dataclass
class EnsembleState:
    """Time-indexed particle clouds and per-scenario paths of one solve.

    States are scalar.  Particle paths are time-major (see `path_array`);
    scenario-level quantities (qf, qb, phi, Zphi, Zq) carry no particle axis,
    so they are adapted to the common filtration by construction.  The state
    of a stacked solve carries a leading instance axis on every array (after
    the step axis of U_coef).

    Of X the state keeps the slab X0, slab 0 of the solve's forward buffer
    (the other slabs hold gap_F, see the module docstring), and references
    to the solve's own control, noise, coefficient sets and grids (no
    copies); `X` runs the forward pass again on them, which gives the bits
    the sweep read.  So the control and the noise must not be changed in
    place while the state is read.  U is held as what the backward sweep
    fitted: for k < N the slab U[..., k] is the within-scenario affine fit
    U_coef[k][..., 0] + U_coef[k][..., 1] x_k, and U[..., N] is the terminal
    slab U_T.  `u(k)` rebuilds one slab with the sweep's own arithmetic, so
    it has the sweep's bits; `U` builds the whole path on each access.
    """

    X0: np.ndarray  # (M_c, P): slab 0 of X, the initial cloud
    U_coef: np.ndarray  # (N_t, M_c, 2): per step, the intercept and the slope in x
    U_T: np.ndarray  # (M_c, P): the terminal slab g(X_T)
    qf: np.ndarray  # (M_c, N_t+1)
    qb: np.ndarray  # (M_c, N_t+1)
    phi: np.ndarray  # (M_c, N_t+1)
    Zphi: np.ndarray  # (M_c, N_t)
    Zq: np.ndarray  # (M_c, N_t)
    control: ControlField  # the inputs of the forward pass, by reference
    noise: NoiseBundle
    primed: PrimedCoefficientSet | list[PrimedCoefficientSet]  # one per instance of a stack
    grid: TimeGrid | list[TimeGrid]
    Z: None = None  # always None: no solve fits the integrands of U; `bench/spans.py` reads it

    @property
    def X(self) -> np.ndarray:
        """The forward path ([B,] M_c, P, N_t+1), run again on each access
        (uncached): readers that loop over k read it once."""
        init = InitialCondition(self.X0, self.qf[..., 0])
        return simulate_forward(self.control, self.noise, self.primed, init, self.grid)[0]

    def u(self, k: int, X: np.ndarray | None = None) -> np.ndarray:
        """The slab U[..., k], ([B,] M_c, P), for k in 0..N_t; the terminal
        one is `U_T` itself.  Slabs 0 and N_t rebuild nothing; any other
        reads `X` of this state, which a caller that holds it passes in."""
        n = self.U_coef.shape[0]
        k = range(n + 1)[k]
        if k == n:
            return self.U_T
        if k == 0:
            xk = self.X0
        else:
            xk = np.moveaxis(self.X if X is None else X, -1, 0)[k]
        coef = self.U_coef[k]
        u = coef[..., 1:] * xk
        u += coef[..., :1]
        return u

    @property
    def U(self) -> np.ndarray:
        """The full path ([B,] M_c, P, N_t+1) in the layout of `path_array`,
        built from `u(k)` on each access (uncached)."""
        X = self.X
        U = path_array(X.shape)
        Ut = np.moveaxis(U, -1, 0)
        for k in range(Ut.shape[0]):
            Ut[k] = self.u(k, X)
        return U


@dataclass
class SolveOutput:
    """One decoupled solve: the ensemble state, the inverted pair, and
    per-step regression diagnostics.  A stacked solve is one output whose
    arrays all carry the leading instance axis.

    Of the pair inverse the solve keeps theta_H and gap_F = theta_F -
    U[..., :N]: the x-block of the operator value, written by the sweep step
    by step into slabs 1..N of the forward buffer (see the module
    docstring), so it is the one particle path a solve holds.  `theta_F` is
    built from it on each access, equal to the pair inverse up to rounding;
    readers that need one step take `state.u(k) + gap_F[..., k]`.
    """

    state: EnsembleState
    gap_F: np.ndarray  # ([B,] M_c, P, N_t), time-major
    theta_H: np.ndarray  # ([B,] M_c, N_t)
    diagnostics: dict = field(default_factory=dict)

    @property
    def theta_F(self) -> np.ndarray:
        """The full path ([B,] M_c, P, N_t), built on each access (uncached)."""
        return self.state.U[..., :-1] + self.gap_F


def _model_calls(primed: PrimedCoefficientSet, x, q, z, alpha_x, alpha_q):
    """The model calls of one backward step for one instance on its own
    (M, P) slab: the pair inverse at the control, then Gp, LHp and Hzp at it."""
    thF, thH = theta_inverse(primed, x, q, z, alpha_x, alpha_q)
    feats = conditional_features(x, thF)
    return (
        thF, thH, primed.Gp(x, q, thH, thF, z, feats), primed.LHp(q, thH, z, feats), primed.Hzp(q, thH, z, feats)
    )


def solve_backward(
    forward: tuple[np.ndarray, np.ndarray],
    control: ControlField,
    primed: PrimedCoefficientSet,
    noise: NoiseBundle,
    basis: RegressionBasis,
    grid: TimeGrid,
) -> SolveOutput:
    """Backward Euler sweep with per-step regressions.

    Per step k (from the terminal): first the martingale integrands at k by
    increment-weighted regression, then the pair inverse at
    (X_k, qf_k, Zphi_k) applied to the control, then the value regressions of
    (U, phi, qb) with drivers evaluated at the inverted pair.  Terminal
    slices are set from (g, psi) exactly.  A stack (see the module
    docstring) takes one coefficient set and one grid per instance, and its
    instances must agree on whether sigma0 is zero.

    The sweep consumes X: a forward path in the layout of `path_array` is
    overwritten by gap_F from slab 1 on (other layouts are copied first).
    The state rebuilds X from `control` and `noise`, so neither may be
    changed in place while the state is read.
    """
    X, qf = forward
    slots, primeds, grids = _instances(control, primed, grid)
    *lead, m, p, n1 = X.shape
    if basis.quadratic and m < QUADRATIC_MIN_SCENARIOS:
        raise ConfigurationError([f"a quadratic basis needs >= {QUADRATIC_MIN_SCENARIOS} scenarios, got {m}"])
    noisy = {pr.constants.sigma0 > 0 for pr in primeds}
    if len(noisy) > 1:
        raise ContractError("a stack mixes instances with sigma0 = 0 and sigma0 > 0")
    noisy = noisy.pop()
    n = n1 - 1
    stacked = bool(lead)
    dt_m, dt_mp = _per_instance([g.dt for g in grids], stacked)
    sq, _ = _per_instance([math.sqrt(2.0 * pr.constants.sigma0) for pr in primeds], stacked)
    sigma0, _ = _per_instance([pr.constants.sigma0 for pr in primeds], stacked)
    lam, _ = _per_instance([pr.constants.discount for pr in primeds], stacked)
    ridge = basis.ridge
    # the carrier design is quadratic: S itself for a quadratic basis, an
    # enriched S when there are enough scenarios, else the affine S
    enrich_cv = not basis.quadratic and m >= QUADRATIC_MIN_SCENARIOS

    # time-major views keep the per-step ([B,] M, P) slabs contiguous; they
    # copy only arrays laid out other than by `path_array`
    x = np.ascontiguousarray(np.moveaxis(X, -1, 0))  # (N+1, [B,] M, P)
    # the sweep overwrites X with gap_F, so its finiteness is taken first
    x_finite = np.isfinite(X.sum())
    del X
    dB = np.ascontiguousarray(np.moveaxis(noise.dB, -1, 0))
    axt = np.ascontiguousarray(np.moveaxis(control.alpha_x, -1, 0))
    alpha_q = control.alpha_q
    dW0 = noise.dW0

    # U is kept as its per-step affine coefficients and the terminal slab;
    # the sweep carries u_{k+1} in one of two alternating slab buffers
    U_coef = np.empty((n, *lead, m, 2))
    U_T = np.empty((*lead, m, p))
    u_buf = np.empty((2, *lead, m, p))
    u_next = U_T
    # step k reads slab k of x and writes gap_F[..., k] into slab k+1, which
    # no later step reads
    gap_t = x[1:]
    phi = np.empty((*lead, m, n + 1))
    qb = np.empty((*lead, m, n + 1))
    Zphi = np.zeros((*lead, m, n))
    Zq = np.zeros((*lead, m, n))
    theta_H = np.empty((*lead, m, n))

    # step geometry: everything that depends on the forward pass only, for
    # all steps at once; O(N M k) memory, no (N, M, P) temporaries.  The
    # cross-scenario normal equations are set up here too, so each step only
    # solves them.
    sum_x = x[:n].sum(axis=-1)  # (N, [B,] M)
    sum_xx = np.einsum("...p,...p->...", x[:n], x[:n])
    q_steps = np.moveaxis(qf[..., :n], -1, 0)  # (N, [B,] M)
    mean_x = sum_x / p
    mean_a = axt.mean(axis=-1)
    S = basis.scenario_design(q_steps, mean_x, mean_a)  # (N, [B,] M, k)
    eq_s = NormalEquations(S, ridge)
    eq_cv = NormalEquations(basis.scenario_design(q_steps, mean_x, mean_a, quadratic=True), ridge) if enrich_cv else eq_s

    for s, pr in zip(slots, primeds):
        feats_T = conditional_features(x[n][s])
        qf_T = qf[s][:, n][:, None]
        U_T[s] = pr.g(x[n][s], qf_T, feats_T)
        phi[s][:, n] = pr.psi(qf_T, feats_T)[:, 0]
    qb[..., n] = qf[..., n]

    # scenario carrier: quadratic-basis fits of phi and qb used as
    # regression targets, stacked as columns ([B,] M, 2)
    carry = _columns(phi[..., n], qb[..., n])

    resid_u = np.zeros((*lead, n))
    resid_phi = np.zeros((*lead, n))
    resid_qb = np.zeros((*lead, n))
    se_zphi = np.zeros((*lead, n))
    # Control-variate priors must be adapted: they are step-(k+1) fitted
    # FUNCTIONS evaluated at step-k features.  Using step-(k+1) VALUES would
    # leak the step-k increment through the features and bias the values by
    # an Ito-type 2*sigma0*dZ/dq*dt drift per step.  For the scenario-level
    # integrands the prior is the q-gradient of the previous value-carrier
    # fit (value-level noise, no 1/sqrt(dt) amplification); for the minor
    # integrands it is the previous integrand fit itself.
    coef_carry = None  # ([B,] ks_cv, 2) carrier-fit coefficients of (phi, qb)
    coef_zw = None  # ([B,] ks)
    coef_zb = None  # ([B,] M, 2) particle coefficients of the minor integrand

    for k in range(n - 1, -1, -1):
        qfk = qf[..., k]
        dW0k = dW0[..., k]
        P = AffineDesign(x[k], ridge, sum_x[k], sum_xx[k])

        # carrier fits at step-k features, needed both for the Z residuals
        # and (via their q-gradients) as integrand priors
        cv = eq_cv.fit(carry, (k,))
        if coef_carry is None:
            # first backward step: bootstrap the prior from the same-step
            # carrier fit (one O(features/M) in-sample leak, then clean)
            coef_carry = cv.coef
        grad, hess = _scenario_q_derivatives(coef_carry, q_steps[k], mean_x[k], mean_a[k])
        pred_zphi = grad[..., 0]
        pred_zq = sq * grad[..., 1]
        pred_zw = (S[k] @ coef_zw[..., None])[..., 0] if coef_zw is not None else 0.0
        pred_zb = P(coef_zb) if coef_zb is not None else 0.0

        # (a) martingale integrands at k from the next U and the next scenario
        # carriers; the three scenario-level targets share S and are fitted
        # in one call
        u_resid = P.loo_residuals(u_next)
        if noisy:
            chi = (dW0k * dW0k - dt_m) / dt_m  # mean-zero given F_k
            resid = cv.loo_residuals()  # keep each scenario's own signal
            zphi_target = resid[..., 0] * dW0k / (sq * dt_m) - pred_zphi * chi
            zq_target = resid[..., 1] * dW0k / dt_m - pred_zq * chi
            zw_target = _mean(u_resid) * dW0k / dt_m - pred_zw * chi
            fit_z = eq_s.fit(_columns(zphi_target, zq_target, zw_target), (k,))
            Zphi[..., k] = fit_z.fitted[..., 0]
            se_zphi[..., k] = np.sqrt(_mean(fit_z.residuals[..., 0] ** 2) * S.shape[-1] / m)
            Zq[..., k] = fit_z.fitted[..., 1]
            coef_zw = fit_z.coef[..., 2]

        # (b) invert the pair map at the current (state, Zphi) along the
        # control, and evaluate Gp, LHp and Hzp there, one instance at a time
        zk = Zphi[..., k][..., None]
        calls = [
            _model_calls(pr, x[k][s], qfk[s][:, None], zk[s], axt[k][s], alpha_q[s][:, k][:, None])
            for s, pr in zip(slots, primeds)
        ]
        # np.array of same-shape arrays is np.stack, without its per-call overhead
        thF, thH, drv_u, lh, hz = (np.array(c) if stacked else c[0] for c in zip(*calls))
        theta_H[..., k] = thH[..., 0]

        # (c) value regressions of the martingale-subtracted targets; the
        # subtraction coefficients are step-(k+1) fitted functions evaluated
        # at step-k features, so the conditional expectation is exact and
        # only O(sqrt(dt)) target noise remains.  Exposed values fit in the
        # configured basis; scenario carriers refit in the quadratic basis so
        # curvature survives for the next integrand estimate.  The particle
        # integrand target shares P with the U target.
        drv_phi = lh[..., 0] + lam * carry[..., 0]
        drv_qb = hz[..., 0]

        mart_u = pred_zb * dB[k] + (pred_zw * dW0k)[..., None]
        target_u = dt_mp * drv_u
        target_u += u_next
        target_u -= mart_u
        U_coef[k] = P.coef(target_u)
        # the arithmetic of P(coef), written into the free buffer
        u_k = np.multiply(U_coef[k][..., 1:], x[k], out=u_buf[k % 2])
        u_k += U_coef[k][..., :1]
        np.subtract(thF, u_k, out=gap_t[k])
        fit_resid = np.subtract(target_u, u_k, out=target_u)
        for s in slots:
            # np.vdot per instance: a stacked reduction would round differently
            resid_u[s][k] = math.sqrt(np.vdot(fit_resid[s], fit_resid[s]) / fit_resid[s].size)
        zb_target = np.multiply(u_resid, dB[k], out=u_resid)
        zb_target /= dt_mp
        coef_zb = P.coef(zb_target)

        # chi-square (Ito-level) fluctuations subtracted with the prior
        # curvature: E[dW^2 - dt | F_k] = 0 keeps the targets unbiased
        chi_abs = dW0k * dW0k - dt_m
        target_phi = (
            carry[..., 0]
            + dt_m * drv_phi
            - sq * (pred_zphi * dW0k)
            - 0.5 * (2.0 * sigma0) * chi_abs * hess[..., 0:1]
        )
        target_qb = (
            carry[..., 1]
            + dt_m * drv_qb
            - pred_zq * dW0k
            - 0.5 * (2.0 * sigma0) * chi_abs * hess[..., 1:2]
        )
        targets = _columns(target_phi, target_qb)
        fit_v = eq_s.fit(targets, (k,))
        phi[..., k] = fit_v.fitted[..., 0]
        qb[..., k] = fit_v.fitted[..., 1]
        resid_phi[..., k] = np.sqrt(_mean(fit_v.residuals[..., 0] ** 2))
        resid_qb[..., k] = np.sqrt(_mean(fit_v.residuals[..., 1] ** 2))
        fit_carry = fit_v if eq_cv is eq_s else eq_cv.fit(targets, (k,))
        carry = fit_carry.fitted
        coef_carry = fit_carry.coef
        u_next = u_k

    gap_F = np.moveaxis(gap_t, 0, -1)
    if not (
        x_finite and np.isfinite(gap_F.sum()) and np.isfinite(U_T.sum()) and np.isfinite(phi.sum())
        and np.isfinite(qb.sum()) and np.isfinite(Zphi.sum())
    ):
        raise SimulationError("backward sweep produced non-finite values")
    state = EnsembleState(
        X0=x[0], U_coef=U_coef, U_T=U_T, qf=qf, qb=qb, phi=phi, Zphi=Zphi, Zq=Zq,
        control=control, noise=noise, primed=primed, grid=grid,
    )
    diagnostics = {"resid_u": resid_u, "resid_phi": resid_phi, "resid_qb": resid_qb, "se_zphi": se_zphi}
    return SolveOutput(state=state, gap_F=gap_F, theta_H=theta_H, diagnostics=diagnostics)


def decoupled_solve(
    control: ControlField,
    primed: PrimedCoefficientSet,
    noise: NoiseBundle,
    init: InitialCondition,
    basis: RegressionBasis,
    grid: TimeGrid,
) -> SolveOutput:
    """Forward pass then backward sweep for one frozen control, or for a
    stack of instances (see the module docstring).

    sigma0 = 0 is allowed for degenerate diagnostics: the common-noise
    integrand estimates are simply zero in that case.

    Inputs in the layout of `path_array` (everything the package allocates)
    pass through both sweeps without a copy; other layouts are copied to it.
    """
    forward = simulate_forward(control, noise, primed, init, grid)
    return solve_backward(forward, control, primed, noise, basis, grid)
