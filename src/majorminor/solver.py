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
[1, x] of one step, so `AffineDesign` solves them in closed form, with the
ridge, the leverage clip and the rank check of `regress_conditional`.  A
fit reads its target only through two sums per scenario, sum y and sum x y,
so no target slab is built: the U target's sums come from those of the
model's G and of the next U (which the leave-one-out fit shares) and from
the noise moments sum dB, sum x dB and sum x^2 dB, and the minor-integrand
target's from the leave-one-out residuals weighted by dB.  Everything of a
step that depends on the forward pass and the noise only (the scenario
means of X and of the control, the scenario designs, the sums of x and x^2,
the noise moments, the within-scenario normal equations of `AffineDesign`,
the cross-scenario ones with their leverage, set up by `NormalEquations`,
and the chi-square terms of dW0) is computed for all steps before the sweep,
in O(N M k) memory, so a step only solves its normal equations; nothing
particle-sized is kept across steps.  The residuals of the Zphi fit are
kept per step and reduced to its standard error, the one diagnostic, after
the sweep.

Outputs.  A solve holds one particle path, the forward buffer: the sweep
reads X_k once, at step k, and then writes gap_F[..., k] = theta_F - U[...,
k], the x-block of the operator value, into slab k+1 of X, which no later
step reads.  So `solve_backward` consumes the forward path it is given, and
gap_F is slabs 1..N of that buffer.  The state keeps slab 0 (X0) and
references to the solve's own control, noise, coefficient sets and grids,
and `EnsembleState.X` runs the forward pass again on them, which gives the
same bits.  U is kept as its (M, 2) affine coefficients per step plus the
terminal slab, from which `EnsembleState.u(k)` rebuilds any slab bit for
bit, or a slice of steps in one pass; the sweep carries the next step's
slab in a buffer, not in a path.  Of the common-noise integrands the sweep
fits Zphi and the dW0 part of the minor integrand, not that of qb.

Instance axis.  `simulate_forward`, `solve_backward` and `decoupled_solve`
also solve a stack of independent instances of one size in one sweep: the
control, the noise and the initial condition carry a leading instance axis
B, and `primed` and `grid` are sequences with one entry per instance.
Particle path arrays of a stack keep the time-major storage of `path_array`,
(N, B, M, P), so each step's slab of the whole stack is contiguous; dt,
sigma, sigma0 and the discount become per-instance arrays that broadcast
against it.  The cross-scenario fits and `AffineDesign` run on the whole
stack.  A stack is one model: its instances share the map objects (see
`models`: such maps compute the same function), and `stack_key` states all
they must share.  So the model maps (g and psi at the terminal, then per
step `theta_inverse`, Gp, LHp and Hzp) are called once per stack, on its
scenarios laid side by side as one (B M, P) slab, a reshape of the step's
slab with no copy: the model API is still that of one instance, with more
scenarios.  The solve is written once over the leading axes `lead`, which
a single instance lacks, and per instance a stacked solve gives the same
bits as a solo one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import ControlField, ScenarioFeatures, conditional_features
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
    "stack_key",
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

    def __post_init__(self):
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ConfigurationError([f"ridge must be finite and >= 0, got {self.ridge}"])

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


def _time_major(a: np.ndarray) -> np.ndarray:
    """np.moveaxis(a, -1, 0), the same view without its per-call overhead."""
    return a.transpose(a.ndim - 1, *range(a.ndim - 1))


def _time_last(a: np.ndarray) -> np.ndarray:
    """np.moveaxis(a, 0, -1), the same view without its per-call overhead."""
    return a.transpose(*range(1, a.ndim), 0)


def _mean(a: np.ndarray) -> np.ndarray:
    """np.mean over the last axis, without its per-call overhead (same bits)."""
    return np.add.reduce(a, axis=-1) / a.shape[-1]


class NormalEquations:
    """The ridged normal equations of one design, set up once for many fits.

    design: (..., n, k), where leading axes index independent designs (the
    steps of a backward sweep, the instances of a stack).  The contiguous
    transpose and the ridged Gram matrices are computed for every leading
    index in one batched call, and so is the clipped leverage when asked
    for; `fit` then only solves one of them against its targets.  Ridge is
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

    def leverage(self) -> np.ndarray:
        """Leverage (..., n) of every row of every design, clipped at 0.8."""
        h = np.einsum("...nk,...nk->...n", self.design @ np.linalg.inv(self.gram), self.design)
        return np.clip(h, 0.0, 0.8)

    def coef(self, y: np.ndarray, index: tuple = ()) -> np.ndarray:
        """Coefficients (..., k, r) of the fit of y (..., n, r) on the
        design at `index`, a tuple of leading indices (all of them by
        default)."""
        try:
            return np.linalg.solve(self.gram[index], self.design_t[index] @ y)
        except np.linalg.LinAlgError as exc:
            raise RegressionError(f"singular normal equations: {exc}") from exc

    def fit(self, targets: np.ndarray, index: tuple = ()) -> "FittedRegression":
        """Fit of targets on the design at `index`: targets (..., n), or
        (..., n, r) for r targets that share the design, solved in one call."""
        y = np.asarray(targets, dtype=float)
        squeeze = y.ndim < self.design[index].ndim
        if squeeze:
            y = y[..., None]
        return FittedRegression(self.design[index], self.coef(y, index), y, squeeze)


class FittedRegression:
    """Least-squares fit with ridge; callable on new design rows."""

    def __init__(self, design: np.ndarray, coef: np.ndarray, y: np.ndarray, squeeze: bool):
        fitted = design @ coef
        resid = y - fitted
        if squeeze:
            coef, fitted, resid = coef[..., 0], fitted[..., 0], resid[..., 0]
        self.coef = coef
        self.fitted = fitted
        self.residuals = resid

    def __call__(self, design: np.ndarray) -> np.ndarray:
        return design @ self.coef


def regress_conditional(design: np.ndarray, targets: np.ndarray, ridge: float = 1e-8) -> FittedRegression:
    """Ridge-regularized projection of targets onto the feature span: the
    set-up of `NormalEquations` plus one solve.

    design: (..., n, k), where leading axes index independent fits;
    targets: (..., n), or (..., n, r) for r targets that share the design.
    The backward sweep sets up its cross-scenario designs once per sweep
    with `NormalEquations`; its within-scenario fits go through
    `AffineDesign`, which solves the same fit on the design [1, x] from
    per-scenario sums.
    """
    return NormalEquations(design, ridge).fit(targets)


class AffineDesign:
    """The affine design [1, x] of the within-scenario fits, solved in
    closed form from per-scenario sums.

    x: (..., n), one fit per leading index (a scenario's particles along n).
    The sums over n of x and x^2 may be passed in when the caller has them.
    The backward sweep sets the design up once per sweep, on the slabs
    (N, [B,] M, P) of all its steps, and each call takes a step index, as
    `NormalEquations.fit(targets, (k,))` does: `index` is a tuple of leading
    indices (all of them by default).  A fit reads its target y only through
    the sums (sum y, sum x y), (..., 2): `sums` takes them of a slab, a
    caller may build them from sums it already has, and `coef_from_sums`
    turns them into the coefficients.  `loo_divisor` gives the divisor 1 - h
    of the leave-one-out residuals (y - fitted) / (1 - h).
    Everything else follows `regress_conditional` on the same design: the
    ridge lam = ridge * (n + sum x^2) / 2 is relative to the trace of the
    normal equations, leverage is clipped at 0.8, and with zero ridge a
    rank-deficient fit (n < 2, or x constant to rounding, by the tolerance of
    `np.linalg.matrix_rank` with the trace for the largest singular value)
    raises a regression error.
    """

    def __init__(
        self, x: np.ndarray, ridge: float, sum_x: np.ndarray | None = None, sum_xx: np.ndarray | None = None
    ):
        n = x.shape[-1]
        sum_x = x.sum(axis=-1) if sum_x is None else sum_x
        sum_xx = np.einsum("...n,...n->...", x, x) if sum_xx is None else sum_xx
        trace = n + sum_xx
        if ridge == 0.0:
            # det = n * spread; rank < 2 when det <= 2 eps trace^2.  The spread
            # is taken one leading index at a time (a step of the sweep), so
            # its temporaries stay the size of one slab
            mean = np.atleast_1d(sum_x / max(n, 1))
            spread = np.array([np.square(xi - mi[..., None]).sum(axis=-1) for xi, mi in zip(np.atleast_2d(x), mean)])
            if n < 2 or np.any(spread <= 2.0 * np.finfo(float).eps * trace**2 / n):
                raise RegressionError("rank-deficient normal equations without ridge")
        lam = 0.5 * ridge * trace
        self.x = x
        # the ridged normal equations [[g00, g01], [g01, g11]] and their
        # determinant, each with a trailing axis that broadcasts against
        # (..., n) and (..., 2); (g11, g00) lead the numerators of the two
        # coefficients
        g00, g11 = n + lam, sum_xx + lam
        det = g00 * g11 - sum_x * sum_x
        self._g01, self._det = (np.asarray(a)[..., None] for a in (sum_x, det))
        self._lead = np.stack([g11, g00], axis=-1)
        # 1 - h = 1 - (g11 - 2 g01 x + g00 x^2) / det, as the coefficients of
        # a quadratic in x, highest power first
        self._loo = tuple(a[..., None] for a in (-g00 / det, 2.0 * sum_x / det, 1.0 - g11 / det))

    def sums(self, y: np.ndarray, index: tuple = ()) -> np.ndarray:
        """The sums (sum y, sum x y), (..., 2), of y of the shape of x[index]."""
        sums = np.empty(y.shape[:-1] + (2,))
        np.add.reduce(y, axis=-1, out=sums[..., 0])
        np.einsum("...n,...n->...", self.x[index], y, out=sums[..., 1])
        return sums

    def coef_from_sums(self, sums: np.ndarray, index: tuple = ()) -> np.ndarray:
        """Coefficients (intercept, slope), (..., 2), of the fits whose sums
        (sum y, sum x y) are `sums`, (..., 2), or with further leading axes
        for fits that share the design: (g11 sum_y - g01 sum_xy, g00 sum_xy
        - g01 sum_y) / det."""
        coef = self._lead[index] * sums
        coef -= self._g01[index] * sums[..., ::-1]
        coef /= self._det[index]
        return coef

    def __call__(self, coef: np.ndarray, index: tuple = ()) -> np.ndarray:
        """Fitted values of coefficients (..., 2)."""
        fitted = coef[..., 1:] * self.x[index]
        fitted += coef[..., :1]
        return fitted

    def loo_divisor(self, index: tuple = ()) -> np.ndarray:
        """The divisor 1 - h of the leave-one-out residuals, by Horner in
        one buffer: the leverage h of `NormalEquations.leverage` on the same
        design, clipped at 0.8, so the divisor at 0.2."""
        a, b, c = (t[index] for t in self._loo)
        x = self.x[index]
        d = a * x
        d += b
        d *= x
        d += c
        np.clip(d, 0.2, 1.0, out=d)
        return d


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
    """Coefficient sets and grids of the instances of a solve.

    A control with alpha_x (M, P, N) is one instance.  A leading axis B
    makes a stack: instance i takes primed[i] and grid[i].
    """
    if control.alpha_x.ndim == 3:
        return [primed], [grid]
    b = control.alpha_x.shape[0]
    primed, grid = list(primed), list(grid)
    if len(primed) != b or len(grid) != b:
        raise ContractError(
            f"a stack of {b} instances needs {b} coefficient sets and grids, got {len(primed)} and {len(grid)}"
        )
    return primed, grid


def _per_instance(values: list[float], lead: list[int]):
    """Per-instance scalars in the two shapes they broadcast in, against
    ([B,] M) and against ([B,] M, P) or ([B,] M, N): (B, 1) and (B, 1, 1)
    arrays for a stack, and 0-d arrays for one instance, which round as
    their floats do and cost less per operation than floats or (1, 1)
    arrays."""
    unit = (1,) * len(lead)  # a stack's factors take a unit axis per broadcast axis
    col = np.asarray(values, dtype=float).reshape((*lead, *unit))
    return col, col.reshape((*lead, *unit, *unit))


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
    primeds, grids = _instances(control, primed, grid)
    *lead, m, p, n = control.alpha_x.shape
    if noise.dB.shape != control.alpha_x.shape or noise.dW0.shape != control.alpha_q.shape:
        raise SimulationError(
            f"noise bundle shape {noise.dB.shape}/{noise.dW0.shape} does not match control"
        )
    if init.X0.shape != (*lead, m, p) or init.q0.shape != (*lead, m):
        raise SimulationError(f"initial condition shapes {init.X0.shape}/{init.q0.shape} mismatch")
    _validate_control(control)

    _, dt = _per_instance([g.dt for g in grids], lead)
    _, sx = _per_instance([math.sqrt(2.0 * pr.constants.sigma) for pr in primeds], lead)
    _, sq = _per_instance([math.sqrt(2.0 * pr.constants.sigma0) for pr in primeds], lead)
    # no state feedback in the drift, so the Euler recursion is a running
    # sum of the increments, accumulated in place and shifted by X0 at the end
    X = path_array((*lead, m, p, n + 1))
    Xt = _time_major(X)
    qf = np.empty((*lead, m, n + 1))
    Xt[0] = init.X0
    qf[..., 0] = init.q0
    axt = _time_major(control.alpha_x)
    np.multiply(_time_major(noise.dB), sx, out=Xt[1:])
    for k in range(n):
        Xt[k + 1] -= dt * axt[k]
        if k:
            Xt[k + 1] += Xt[k]
    Xt[1:] += init.X0
    np.cumsum(sq * noise.dW0 - dt * control.alpha_q, axis=-1, out=qf[..., 1:])
    qf[..., 1:] += init.q0[..., None]
    return X, qf


def _validate_control(control: ControlField) -> None:
    """Raise at the first step whose control has a non-finite entry.  A
    finite sum is the fast path; a sum that overflows on finite entries
    passes, and the forward pass and the sweep report the overflow."""
    if np.isfinite(control.alpha_x.sum()) and np.isfinite(control.alpha_q.sum()):
        return
    n = control.alpha_q.shape[-1]
    finite = np.isfinite(control.alpha_x).reshape(-1, n).all(axis=0)
    finite &= np.isfinite(control.alpha_q).reshape(-1, n).all(axis=0)
    bad = np.nonzero(~finite)[0]
    if bad.size:
        raise SimulationError("non-finite drift", step=int(bad[0]))


@dataclass
class EnsembleState:
    """Time-indexed particle clouds and per-scenario paths of one solve.

    States are scalar.  Particle paths are time-major (see `path_array`);
    scenario-level quantities (qf, qb, phi, Zphi) carry no particle axis,
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
    slab U_T.  `u(k)` rebuilds one slab, or the slabs of a slice of the steps
    0..N-1 in one pass, with the sweep's own arithmetic, so it has the
    sweep's bits; `U` builds the whole path on each access.
    """

    X0: np.ndarray  # (M_c, P): slab 0 of X, the initial cloud
    U_coef: np.ndarray  # (N_t, M_c, 2): per step, the intercept and the slope in x
    U_T: np.ndarray  # (M_c, P): the terminal slab g(X_T)
    qf: np.ndarray  # (M_c, N_t+1)
    qb: np.ndarray  # (M_c, N_t+1)
    phi: np.ndarray  # (M_c, N_t+1)
    Zphi: np.ndarray  # (M_c, N_t)
    control: ControlField  # the inputs of the forward pass, by reference
    noise: NoiseBundle
    primed: PrimedCoefficientSet | list[PrimedCoefficientSet]  # one per instance of a stack
    grid: TimeGrid | list[TimeGrid]
    # always None (no solve fits the integrands of U or of qb); `bench/spans.py`
    # reads both until the benchmark change
    Z: None = None
    Zq: None = None

    @property
    def X(self) -> np.ndarray:
        """The forward path ([B,] M_c, P, N_t+1), run again on each access
        (uncached): readers that loop over k read it once."""
        init = InitialCondition(self.X0, self.qf[..., 0])
        return simulate_forward(self.control, self.noise, self.primed, init, self.grid)[0]

    def u(self, k: int | slice, X: np.ndarray | None = None) -> np.ndarray:
        """The slab U[..., k], ([B,] M_c, P), for k in 0..N_t; the terminal
        one is `U_T` itself.  A slice of the steps 0..N_t-1 gives their slabs
        time-major, (steps, [B,] M_c, P), in one pass.  Slabs 0 and N_t
        rebuild nothing; any other reads `X` of this state, which a caller
        that holds it passes in."""
        n = self.U_coef.shape[0]
        if not isinstance(k, slice):
            k = range(n + 1)[k]
            if k == n:
                return self.U_T
        xk = self.X0 if k == 0 else _time_major(self.X if X is None else X)[:n][k]
        coef = self.U_coef[k]
        u = coef[..., 1:] * xk
        u += coef[..., :1]
        return u

    @property
    def U(self) -> np.ndarray:
        """The full path ([B,] M_c, P, N_t+1) in the layout of `path_array`,
        built on each access (uncached) from the slabs of `u` over all steps,
        written over the buffer of an X of its own."""
        X = self.X
        Xt = _time_major(X)
        Xt[:-1] = self.u(slice(None), X)
        Xt[-1] = self.U_T
        return X


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


def _model_calls(primed: PrimedCoefficientSet, x, q, z, alpha_x, alpha_q, mean_x):
    """The model calls of one backward step on an (M, P) slab, which may
    hold the scenarios of many instances side by side: the pair inverse at
    the control, then Gp, LHp and Hzp at it.  mean_x (M, 1) is the scenario
    mean of x, which the sweep has for every step."""
    thF, thH = theta_inverse(primed, x, q, z, alpha_x, alpha_q)
    # the features of `conditional_features(x, thF)`, from the mean the sweep has
    feats = ScenarioFeatures(mean_x=mean_x, mean_u=np.add.reduce(thF, axis=1, keepdims=True) / thF.shape[1])
    return (
        thF, thH, primed.Gp(x, q, thH, thF, z, feats), primed.LHp(q, thH, z, feats), primed.Hzp(q, thH, z, feats)
    )


def stack_key(primed: PrimedCoefficientSet, grid: TimeGrid, basis: RegressionBasis, shape: tuple) -> tuple:
    """What the instances of one stacked solve must share: the shape (M, P)
    of X0, the steps, the basis, whether sigma0 > 0, and the model maps the
    sweep calls (theta, G, LH, Hz, g, psi), by identity.  Maps read only
    their arguments (see `models`), so the maps of a stack compute one
    function for all of its instances."""
    b = primed.base
    return (tuple(shape), grid.steps, basis, primed.constants.sigma0 > 0, b.theta, b.G, b.LH, b.Hz, b.g, b.psi)


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
    instances must share a `stack_key`: a stack that mixes models (maps that
    are not the same objects), steps, or sigma0 = 0 with sigma0 > 0 raises a
    `ContractError`.

    The sweep consumes X: a forward path in the layout of `path_array` is
    overwritten by gap_F from slab 1 on (other layouts are copied first).
    The state rebuilds X from `control` and `noise`, so neither may be
    changed in place while the state is read.
    """
    X, qf = forward
    primeds, grids = _instances(control, primed, grid)
    *lead, m, p, n1 = X.shape
    if basis.quadratic and m < QUADRATIC_MIN_SCENARIOS:
        raise ConfigurationError([f"a quadratic basis needs >= {QUADRATIC_MIN_SCENARIOS} scenarios, got {m}"])
    if len({stack_key(pr, g, basis, (m, p)) for pr, g in zip(primeds, grids)}) > 1:
        raise ContractError("the instances of a stack differ in their model maps, steps or sigma0 > 0")
    pr = primeds[0]
    noisy = pr.constants.sigma0 > 0
    n = n1 - 1
    dts = [g.dt for g in grids]
    sqs = [math.sqrt(2.0 * pr.constants.sigma0) for pr in primeds]
    dt_m, dt_mp = _per_instance(dts, lead)
    sq, _ = _per_instance(sqs, lead)
    sigma0, _ = _per_instance([pr.constants.sigma0 for pr in primeds], lead)
    lam, _ = _per_instance([pr.constants.discount for pr in primeds], lead)
    ridge = basis.ridge
    # the carrier design is quadratic: S itself for a quadratic basis, an
    # enriched S when there are enough scenarios, else the affine S
    enrich_cv = not basis.quadratic and m >= QUADRATIC_MIN_SCENARIOS

    # time-major views keep the per-step ([B,] M, P) slabs contiguous; they
    # copy only arrays laid out other than by `path_array`
    x = np.ascontiguousarray(_time_major(X))  # (N+1, [B,] M, P)
    # the sweep overwrites X with gap_F, so its finiteness is taken first
    x_finite = np.isfinite(X.sum())
    del X
    dB = np.ascontiguousarray(_time_major(noise.dB))
    axt = np.ascontiguousarray(_time_major(control.alpha_x))
    # scenario paths, time-major too: (N, [B,] M)
    aqt = np.ascontiguousarray(_time_major(control.alpha_q))
    dW0 = np.ascontiguousarray(_time_major(noise.dW0))
    q_steps = np.ascontiguousarray(_time_major(qf[..., :n]))

    # U is kept as its per-step affine coefficients and the terminal slab;
    # the sweep carries u_{k+1} in one of two alternating slab buffers
    U_coef = np.empty((n, *lead, m, 2))
    u_buf = np.empty((2, *lead, m, p))
    # step k reads slab k of x and writes gap_F[..., k] into slab k+1, which
    # no later step reads
    gap_t = x[1:]
    phi = np.empty((*lead, m, n + 1))
    qb = np.empty((*lead, m, n + 1))
    Zphi = np.zeros((*lead, m, n))
    theta_H = np.empty((*lead, m, n))

    # step geometry: everything that depends on the forward pass only, for
    # all steps at once; O(N M k) memory, no (N, M, P) temporaries.  The
    # cross-scenario normal equations and the within-scenario design are set
    # up here too, so each step only solves them.
    sum_x = x[:n].sum(axis=-1)  # (N, [B,] M)
    sum_xx = np.einsum("...p,...p->...", x[:n], x[:n])
    mean_x = sum_x / p
    mean_a = _mean(axt)
    S = basis.scenario_design(q_steps, mean_x, mean_a)  # (N, [B,] M, k)
    eq_s = NormalEquations(S, ridge)
    eq_cv = NormalEquations(basis.scenario_design(q_steps, mean_x, mean_a, quadratic=True), ridge) if enrich_cv else eq_s
    P = AffineDesign(x[:n], ridge, sum_x, sum_xx)
    # the within-scenario sums of dB and of x dB, (N, [B,] M, 2) each, from
    # which the U-target fit takes the sums of its martingale term
    db_sums = P.sums(dB)
    xdb_sums = np.stack([db_sums[..., 1], np.einsum("...p,...p,...p->...", x[:n], x[:n], dB)], axis=-1)
    # the step terms that the recursion does not change: the chi-square
    # fluctuation dW0^2 - dt, its weight in the value targets, and the
    # leave-one-out divisor of the carrier fits
    chi_abs = dW0 * dW0 - dt_m
    chi = chi_abs / dt_m  # mean-zero given F_k
    curv = 0.5 * (2.0 * sigma0) * chi_abs
    loo_cv = 1.0 - eq_cv.leverage() if noisy else None
    # per instance: the divisor of the Zphi target, and the factors (1, sq)
    # of the q-gradient of the scenario columns (phi, qb) that give their
    # integrand priors, shaped to broadcast against ([B,] M, 2)
    z_scale, _ = _per_instance([s * d for s, d in zip(sqs, dts)], lead)
    grad_scale = np.stack([np.ones_like(sq), sq], axis=-1)

    # the model maps: one call per stack, on its scenarios laid side by side
    def side(a: np.ndarray) -> np.ndarray:
        """A ([B,] M, ...) slab as one ([B] M, ...) slab, a view of a
        contiguous slab."""
        return a.reshape(-1, *a.shape[len(lead) + 1 :])

    x_T, qf_T = side(x[n]), side(qf[..., n][..., None])
    feats_T = conditional_features(x_T)
    U_T = pr.g(x_T, qf_T, feats_T).reshape(*lead, m, p)
    u_next = U_T
    phi[..., n] = pr.psi(qf_T, feats_T).reshape(*lead, m)
    qb[..., n] = qf[..., n]

    # scenario carrier: quadratic-basis fits of phi and qb used as
    # regression targets, stacked as columns ([B,] M, 2)
    carry = np.stack([phi[..., n], qb[..., n]], axis=-1)

    # step buffers: the targets of Zphi and of the minor integrand's dW0
    # part; the sums of the U target and of the minor-integrand target,
    # which share P and are fitted in one call; the drivers and the targets
    # of (phi, qb)
    z_targets = np.empty((*lead, m, 2))
    zt_phi, zt_w = z_targets[..., 0], z_targets[..., 1]
    fit_sums = np.empty((2, *lead, m, 2))
    sums_u, sums_zb = fit_sums
    drv = np.empty((*lead, m, 2))
    targets = np.empty((*lead, m, 2))
    # the residuals of the Zphi fit, reduced to its diagnostic after the sweep
    resid_z = np.zeros((n, *lead, m))
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
        dW0k = dW0[k]
        idx = (k,)

        # carrier fits at step-k features, needed both for the Z residuals
        # and (via their q-gradients) as integrand priors
        if noisy or coef_carry is None:
            coef_cv = eq_cv.coef(carry, idx)
        if coef_carry is None:
            # first backward step: bootstrap the prior from the same-step
            # carrier fit (one O(features/M) in-sample leak, then clean)
            coef_carry = coef_cv
        grad, hess = _scenario_q_derivatives(coef_carry, q_steps[k], mean_x[k], mean_a[k])
        # the integrand priors of (phi, qb), as columns: grad_phi and sq * grad_qb
        pred_z = grad * grad_scale
        pred_zw = (S[k] @ coef_zw[..., None])[..., 0] if coef_zw is not None else 0.0

        # (a) martingale integrands at k from the next U and the next phi
        # carrier; the two scenario-level targets share S and are fitted in
        # one call.  The leave-one-out fit of the next U shares its sums
        # with the U target in (c)
        sums_next = P.sums(u_next, idx)
        u_resid = P(P.coef_from_sums(sums_next, idx), idx)
        np.subtract(u_next, u_resid, out=u_resid)
        u_resid /= P.loo_divisor(idx)
        if noisy:
            # leave-one-out residuals keep each scenario's own signal; both
            # products take every column (BLAS rounds one column differently)
            resid = (carry - eq_cv.design[k] @ coef_cv)[..., 0]
            resid /= loo_cv[k]
            np.multiply(resid, dW0k, out=zt_phi)
            zt_phi /= z_scale
            zt_phi -= pred_z[..., 0] * chi[k]
            np.subtract(_mean(u_resid) * dW0k / dt_m, pred_zw * chi[k], out=zt_w)
            coef_z = eq_s.coef(z_targets, idx)
            Zphi[..., k] = (S[k] @ coef_z)[..., 0]
            np.subtract(zt_phi, Zphi[..., k], out=resid_z[k])
            coef_zw = coef_z[..., 1]

        # (b) invert the pair map at the current (state, Zphi) along the
        # control, and evaluate Gp, LHp and Hzp there
        calls = _model_calls(
            pr, side(x[k]), side(q_steps[k][..., None]), side(Zphi[..., k][..., None]), side(axt[k]),
            side(aqt[k][..., None]), side(mean_x[k][..., None]),
        )
        thF, thH, drv_u, lh, hz = (a.reshape(*lead, m, -1) for a in calls)
        theta_H[..., k] = thH[..., 0]

        # (c) value regressions of the martingale-subtracted targets; the
        # subtraction coefficients are step-(k+1) fitted functions evaluated
        # at step-k features, so the conditional expectation is exact and
        # only O(sqrt(dt)) target noise remains.  Exposed values fit in the
        # configured basis; scenario carriers refit in the quadratic basis so
        # curvature survives for the next integrand estimate.  The particle
        # integrand target shares P with the U target, and both fits read
        # their targets only through per-scenario sums: the U target dt G +
        # u_next - mart_u sums from the sums of G and of u_next, less those
        # of mart_u = (zb0 + zb1 x) dB + pred_zw dW0, which come from the
        # noise moments; the minor-integrand target is u_resid dB / dt.
        np.multiply(dt_mp, P.sums(drv_u, idx), out=sums_u)
        sums_u += sums_next
        if coef_zb is not None:  # no integrand fit, so no martingale term, at the first step
            mart_sums = coef_zb[..., :1] * db_sums[k]
            mart_sums += coef_zb[..., 1:] * xdb_sums[k]
            w0 = pred_zw * dW0k
            mart_sums[..., 0] += w0 * p
            mart_sums[..., 1] += w0 * sum_x[k]
            sums_u -= mart_sums
        u_resid *= dB[k]  # the minor-integrand target times dt
        np.divide(P.sums(u_resid, idx), dt_mp, out=sums_zb)
        coef_u, coef_zb = P.coef_from_sums(fit_sums, idx)
        U_coef[k] = coef_u
        # the arithmetic of P(coef), written into the free buffer
        u_k = np.multiply(U_coef[k][..., 1:], x[k], out=u_buf[k % 2])
        u_k += U_coef[k][..., :1]
        np.subtract(thF, u_k, out=gap_t[k])

        # chi-square (Ito-level) fluctuations subtracted with the prior
        # curvature: E[dW^2 - dt | F_k] = 0 keeps the targets unbiased.  Per
        # column (phi, qb): carry + dt * driver - prior * dW0 - curvature,
        # with the phi column's prior term taken as sq * (Zphi prior * dW0)
        np.add(lh[..., 0], lam * carry[..., 0], out=drv[..., 0])
        drv[..., 1] = hz[..., 0]
        np.multiply(dt_mp, drv, out=targets)
        targets += carry
        mart = pred_z * dW0k[..., None]
        mart_phi = mart[..., 0]
        mart_phi *= sq
        targets -= mart
        targets -= curv[k][..., None] * hess[..., None, :]
        coef_v = eq_s.coef(targets, idx)
        fitted_v = S[k] @ coef_v
        phi[..., k] = fitted_v[..., 0]
        qb[..., k] = fitted_v[..., 1]
        if enrich_cv:
            coef_carry = eq_cv.coef(targets, idx)
            carry = eq_cv.design[k] @ coef_carry
        else:
            coef_carry, carry = coef_v, fitted_v
        u_next = u_k

    gap_F = _time_last(gap_t)
    if not (
        x_finite and np.isfinite(gap_F.sum()) and np.isfinite(U_T.sum()) and np.isfinite(phi.sum())
        and np.isfinite(qb.sum()) and np.isfinite(Zphi.sum())
    ):
        raise SimulationError("backward sweep produced non-finite values")
    state = EnsembleState(
        X0=x[0], U_coef=U_coef, U_T=U_T, qf=qf, qb=qb, phi=phi, Zphi=Zphi,
        control=control, noise=noise, primed=primed, grid=grid,
    )
    # per step and instance, (N, [B]) -> ([B,] N), contiguous
    se_zphi = np.ascontiguousarray(_time_last(np.sqrt(_mean(resid_z**2) * S.shape[-1] / m)))
    return SolveOutput(state=state, gap_F=gap_F, theta_H=theta_H, diagnostics={"se_zphi": se_zphi})


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
