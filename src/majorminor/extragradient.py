"""The monotone residual operator on controls, the extragradient loop, and
`run_lockstep`, which runs the plans of many instances as stacked solves.

For a control alpha the decoupled system is solved, the pair inverse is read
off, and the operator value is

    v(alpha) = (theta_F(alpha) - U, (a/2) (theta_H(alpha) - qb)),

with theta = (theta_F, theta_H) the pair inverse at (X, qf, Zphi) and a > 0
the weight of the major block.

Its zero is the control induced by the coupled solution, so the stopping rule
is the residual norm, not iterate movement.  The iteration kernel only needs
points with vector arithmetic and an operator exposing `inner`, which lets
synthetic operators exercise it without any FBSDE machinery.

Plans.  The extragradient loop (`extragradient_plan`) and the Lipschitz
probes are written as generator plans: a plan yields a control, is sent
back its value v, or has the package error of the failed solve thrown in at
the yield, holds only what it still reads, and returns its result.
`run_lockstep` drives any plans of many independent instances at once, such
as the sweep's extragradient runs or the draws of `check_v_monotonicity`:
each round it takes one evaluation from every live plan and solves those of
instances of one model, size and basis (one `solver.stack_key`) as one
stacked solve along a leading instance axis (`evaluate_many`), which gives
every instance the same bits as its own solve would.  `LOCKSTEP_BYTES`
bounds its live set: thirteen instances at 12x64x10, so that a sweep of
twelve such cells runs as one stack from its first round, and one at the
CLI default 32x500x50.  `run_extragradient` and `estimate_lipschitz_v` run
their plan as a lockstep run of one, whose control `evaluate_many` hands to
`op(control)`.  A start control may be passed as a callable (`op.zero`),
which the plan calls once its probes are done, so no run holds its start
through them.
`extragradient_step` is a one-step helper outside the plans: one
iteration's two evaluations and points.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import strict_json
from .ensembles import ControlField, conditional_features, inner_product_T, norm_T
from .errors import ConfigurationError, ContractError, MajorMinorError, SimulationError
from .grids import NoiseBundle, TimeGrid, path_array
from .models import PrimedCoefficientSet
from .solver import (
    InitialCondition,
    RegressionBasis,
    SolveOutput,
    decoupled_solve,
    regress_conditional,
    stack_key,
)

__all__ = [
    "ExtragradientConfig",
    "ExtragradientReport",
    "FbsdeOperator",
    "LipschitzEstimate",
    "LOCKSTEP_BYTES",
    "evaluate_many",
    "extragradient_plan",
    "extragradient_step",
    "run_extragradient",
    "run_lockstep",
    "estimate_lipschitz_v",
    "solve_stacked",
]

_PROBE_SEED = 123
_PROBE_SCALE = 1.0  # standard deviation of the random probe controls
_PROBE_REFINE = 8  # power-iteration probe pairs after the random ones
_RATE_TAIL = 0.5  # fraction of the residual history the rate is fitted on
# a run whose residual grew by this factor over this many iterations diverged
_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_WINDOW = 5


def _positive_finite(name: str, value: float) -> list[str]:
    """The violation of a setting that must be positive and finite, if any."""
    if not (value > 0):
        return [f"{name} must be positive, got {value}"]
    return [] if math.isfinite(value) else [f"{name} must be finite, got {value}"]


@dataclass(frozen=True)
class ExtragradientConfig:
    """Step size and caps of one extragradient run.

    The run reads only the operator values it is sent and reports its last
    iterate, which converges geometrically under joint displacement
    monotonicity.

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
    safety: float = 0.5
    probes: int = 4

    def __post_init__(self):
        problems = []
        if self.gamma is not None:
            problems += _positive_finite("gamma", self.gamma)
        if self.n_max < 1:
            problems.append(f"n_max must be >= 1, got {self.n_max}")
        if not (self.tol >= 0):
            problems.append(f"tol must be >= 0, got {self.tol}")
        problems += _positive_finite("safety", self.safety)
        if self.probes < 2:
            problems.append(f"probes must be >= 2, got {self.probes}")
        if problems:
            raise ConfigurationError(problems)


@dataclass(frozen=True, eq=False)
class FbsdeOperator:
    """The residual operator of one problem instance.

    Calling it returns v(alpha) as a ControlField; `solve` returns the
    decoupled solve behind that value.  The operator is frozen: it holds the
    problem only, so every evaluation at a control gives the same value.
    """

    primed: PrimedCoefficientSet
    grid: TimeGrid
    noise: NoiseBundle
    init: InitialCondition
    basis: RegressionBasis
    a: float = 1.0

    def __call__(self, control: ControlField) -> ControlField:
        return self.value_in(self.solve(control))

    def solve(self, control: ControlField) -> SolveOutput:
        """The decoupled solve at `control`."""
        return decoupled_solve(control, self.primed, self.noise, self.init, self.basis, self.grid)

    def value_in(self, solve: SolveOutput, slot: tuple = ()) -> ControlField:
        """v of this instance from a solve of it: the whole solve, or the
        instance at `slot` of a stacked one.

        The x-block is the solve's own `gap_F`: of a whole solve the array
        itself, of a stacked one a copy of the slot, so that a value kept by
        a plan does not keep the whole stack alive."""
        n = self.grid.steps
        vx = np.array(solve.gap_F[slot]) if slot else solve.gap_F
        gap_q = solve.theta_H[slot] - solve.state.qb[slot][..., :n]
        return ControlField(vx, 0.5 * (self.a * gap_q))

    def stack_key(self) -> tuple:
        """`solver.stack_key` of this instance: operators with equal keys
        (one model, by the identity of its maps, one size, steps and basis,
        and alike in sigma0 > 0) can be evaluated in one stacked solve."""
        return stack_key(self.primed, self.grid, self.basis, self.init.X0.shape)

    def inner(self, a: ControlField, b: ControlField) -> float:
        return inner_product_T(a, b, self.grid)

    def norm(self, a: ControlField) -> float:
        return norm_T(a, self.grid)

    def zero(self) -> ControlField:
        m, p = self.init.X0.shape
        return ControlField.zeros(m, p, self.grid.steps)

    def random_control(self, rng: np.random.Generator, scale: float = 1.0) -> ControlField:
        m, p = self.init.X0.shape
        n = self.grid.steps
        # one scenario at a time, in (M, P, N) order, so a seed keeps its probes
        alpha_x = path_array((m, p, n))
        for j in range(m):
            np.multiply(scale, rng.standard_normal((p, n)), out=alpha_x[j])
        return ControlField(alpha_x, scale * rng.standard_normal((m, n)))

    def random_difference(self, rng_i, rng_j, scale: float = 1.0) -> ControlField:
        """random_control(rng_i, scale) - random_control(rng_j, scale) to the
        bit, in one control: the second point is drawn whole and the first
        subtracted from it scenario by scenario."""
        diff = self.random_control(rng_j, scale)
        for x in (*diff.alpha_x, diff.alpha_q):
            np.subtract(scale * rng_i.standard_normal(x.shape), x, out=x)
        return diff


def solve_stacked(ops: list[FbsdeOperator], controls: list[ControlField]) -> SolveOutput:
    """One decoupled solve of many instances along a leading instance axis.

    The operators must share a `stack_key`; their controls, noise and initial
    conditions are copied into stacked arrays in the layout of `path_array`.
    """
    b = len(ops)
    m, p = ops[0].init.X0.shape
    n = ops[0].grid.steps
    alpha_x = path_array((b, m, p, n))
    dB = path_array((b, m, p, n))
    for i, (op, control) in enumerate(zip(ops, controls)):
        alpha_x[i] = control.alpha_x
        dB[i] = op.noise.dB
    control = ControlField(alpha_x, np.array([c.alpha_q for c in controls]))
    noise = NoiseBundle(dB=dB, dW0=np.array([op.noise.dW0 for op in ops]))
    init = InitialCondition(X0=np.array([op.init.X0 for op in ops]), q0=np.array([op.init.q0 for op in ops]))
    return decoupled_solve(control, [op.primed for op in ops], noise, init, ops[0].basis, [op.grid for op in ops])


def evaluate_many(ops: list[FbsdeOperator], controls: list[ControlField]) -> list:
    """v of each operator at its control, or the package error its solve
    raised; overflow and invalid warnings are silenced.

    One goes through `op(control)`.  Two or more go through one stacked
    solve.  If that raises, each is solved again on its own, so every
    instance gets exactly the value or the error of its own solve; the
    `ContractError` of a stack that mixes models is raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if len(ops) > 1:
            try:
                solve = solve_stacked(ops, controls)
            except ContractError:
                raise
            except MajorMinorError:
                pass
            else:
                # the values read gap_F, theta_H and qb only: the stacked
                # control and noise copies, which the state references, go
                # before the values are copied out
                solve = replace(solve, state=replace(solve.state, control=None, noise=None))
                return [op.value_in(solve, (i,)) for i, op in enumerate(ops)]
        values = []
        for op, control in zip(ops, controls):
            try:
                values.append(op(control))
            except MajorMinorError as exc:
                values.append(exc)
        return values


def _forward(alpha, gamma: float, v):
    """alpha - gamma * v, formed as (-gamma) * v, then += alpha: the same
    IEEE result (a - b is a + (-b)) with one temporary instead of two."""
    point = (-gamma) * v
    point += alpha
    return point


def _check_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise ConfigurationError([f"gamma must be positive, got {gamma}"])


def _drive(plan, op):
    """Run a plan to its end alone, as a lockstep run of one; returns what
    the plan returned, or raises the package error it ended with."""
    run = _Live(None, op, plan)
    ended = run.resume(None)
    while not ended:
        ended = run.resume(*evaluate_many([op], [run.request]))
    if isinstance(run.outcome, MajorMinorError):
        raise run.outcome
    return run.outcome


def extragradient_step(alpha, gamma: float, op):
    """One trial step and one corrected step.

    Returns (alpha_half, alpha_next, v_at_alpha, v_at_half): exactly two
    operator evaluations, with the points the extragradient loop forms.
    """
    _check_gamma(gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        v_n = op(alpha)
        alpha_half = _forward(alpha, gamma, v_n)
        v_half = op(alpha_half)
    return alpha_half, _forward(alpha, gamma, v_half), v_n, v_half


@dataclass
class ExtragradientReport:
    """Per-iteration trail of one run plus the fitted geometric rate.

    `stop_reason` says why the run ended: "tol", "n_max", "residual_growth"
    (the divergence window) or "non_finite" (a solve left the finite range).
    `evaluations` counts the operator values the run used: "probe", those
    behind `L_hat`, and "iterate", two per completed iteration (an iteration
    whose solve failed adds none), except that a run stopped by `tol` ends
    on the one evaluation that met it: 2 * iterations - 1.  A `solve` whose
    Lipschitz probe failed reports no iteration and no evaluation, with
    `gamma` and `L_hat` None.
    """

    residuals: list[float]
    seconds: list[float]
    dist_to_reference: list[float] | None
    lambda_hat: float | None
    r_squared: float | None
    diverged: bool
    iterations: int
    gamma: float | None
    stop_reason: str
    evaluations: dict
    L_hat: float | None
    final_alpha: object = None
    z_convention: str = (
        "Zphi is the integrand of sqrt(2*sigma0) * int Zphi dW0, equal to the "
        "q-gradient of the major value field"
    )

    def to_json(self) -> str:
        """Strict JSON (see `artifacts`): the inf residual of a run that
        stopped `non_finite` reads null."""
        payload = {
            "z_convention": self.z_convention,
            "gamma": self.gamma,
            "L_hat": self.L_hat,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "evaluations": self.evaluations,
            "diverged": self.diverged,
            "lambda_hat": self.lambda_hat,
            "r_squared": self.r_squared,
            "residuals": self.residuals,
            "dist_to_reference": self.dist_to_reference,
            "seconds": self.seconds,
        }
        return strict_json(payload, indent=2)

    def iteration_rows(self):
        """Rows (n, residual, dist_to_oracle, gamma, seconds) for the CSV."""
        rows = []
        for i, res in enumerate(self.residuals):
            dist = self.dist_to_reference[i] if self.dist_to_reference else float("nan")
            rows.append((i + 1, res, dist, self.gamma, self.seconds[i]))
        return rows


def _norm(op, a) -> float:
    return float(np.sqrt(max(op.inner(a, a), 0.0)))


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


def extragradient_plan(alpha1, config: ExtragradientConfig, op, reference_control=None, lipschitz_hint=None):
    """The extragradient loop as a plan (see the module docstring); returns
    its `ExtragradientReport`.  Without a step size or a hint it probes
    first."""
    gamma = config.gamma
    L_hat = None
    probe_evals = 0
    if gamma is None:
        if lipschitz_hint is None:
            lipschitz_hint = yield from _lipschitz_plan(op, config.probes, _PROBE_SEED)
        L_hat = float(lipschitz_hint)
        probe_evals = getattr(lipschitz_hint, "evaluations", 0)
        gamma = config.safety / max(L_hat, 1e-12)

    _check_gamma(gamma)
    # a start given as a callable is built only now, so the probes ran
    # without it held
    alpha = alpha1() if callable(alpha1) else alpha1
    del alpha1  # the plan holds the current iterate only, see the end of the loop
    residuals: list[float] = []
    seconds: list[float] = []
    dists: list[float] | None = [] if reference_control is not None else None
    stop = "n_max"
    completed = 0

    for _ in range(config.n_max):
        t0 = time.perf_counter()
        # read before the iterate is sent, while the plan holds alpha only
        dist = None if dists is None else _norm(op, alpha - reference_control)
        try:
            v_n = yield alpha
            residual = _norm(op, v_n)
            at_tol = residual <= config.tol
            if not at_tol:  # each solve runs with the iterate and its point held only
                alpha_half = _forward(alpha, gamma, v_n)
                del v_n
                v_half = yield alpha_half
                del alpha_half
                alpha_next = _forward(alpha, gamma, v_half)
                del v_half
        except SimulationError:
            # iterates left the finite range: report divergence, not a crash
            stop = "non_finite"
            seconds.append(time.perf_counter() - t0)
            residuals.append(float("inf"))
            if dists is not None:
                dists.append(float("nan"))
            break
        completed += 1
        residuals.append(residual)
        if dists is not None:
            dists.append(dist)
        seconds.append(time.perf_counter() - t0)
        if at_tol:
            # the iterate is the answer: its trial point is never evaluated
            stop = "tol"
            break
        w = _DIVERGENCE_WINDOW
        if len(residuals) > w and residuals[-1] > _DIVERGENCE_FACTOR * residuals[-1 - w]:
            stop = "residual_growth"
            break
        alpha = alpha_next

    lam_hat, r2 = fit_geometric_rate(residuals)
    return ExtragradientReport(
        residuals=residuals,
        seconds=seconds,
        dist_to_reference=dists,
        lambda_hat=lam_hat,
        r_squared=r2,
        diverged=stop in ("residual_growth", "non_finite"),
        iterations=len(residuals),
        gamma=gamma,
        stop_reason=stop,
        evaluations={"probe": probe_evals, "iterate": 2 * completed - (stop == "tol")},
        L_hat=L_hat,
        final_alpha=alpha,
    )


def run_extragradient(
    alpha1,
    config: ExtragradientConfig,
    op,
    reference_control=None,
    lipschitz_hint: float | None = None,
) -> ExtragradientReport:
    """Iterate until the residual tolerance, the cap, or divergence.

    Reads only the operator values: it fits the geometric rate on the tail
    half of the residual history and tracks the distance of the iterate to a
    reference control when one is supplied.  Residual growth by
    `_DIVERGENCE_FACTOR` over `_DIVERGENCE_WINDOW` iterations ends the run
    with a divergence report instead of an exception, and so does a solve
    that leaves the finite range.  Without a step size or a hint its plan
    probes first, as `estimate_lipschitz_v` would.  `alpha1` is the start
    control, or a callable that builds it (such as `op.zero`): a callable is
    called after the probes, so that they run without the start held.
    """
    plan = extragradient_plan(alpha1, config, op, reference_control, lipschitz_hint)
    del alpha1  # the plan drops the start control once it has stepped past it
    return _drive(plan, op)


def recover_phi_bar(op: FbsdeOperator, solve: SolveOutput) -> np.ndarray:
    """One auxiliary backward sweep for the major value along a solve of
    `op`: the backward equation driven by the solve's (qf, Zphi, X), with the
    pair inverse (theta_F, theta_H) in place of (U, qb)."""
    primed = op.primed
    grid = op.grid
    n = grid.steps
    dt = grid.dt
    consts = primed.constants
    sq = np.sqrt(2.0 * consts.sigma0)
    theta_F, p = solve.theta_F, solve.theta_H
    q, X, Zphi = solve.state.qf, solve.state.X, solve.state.Zphi
    m = q.shape[0]
    qmid_T = q[:, n][:, None]
    feats_T = conditional_features(X[:, :, n])
    phi = np.empty((m, n + 1))
    phi[:, n] = primed.psi(qmid_T, feats_T)[:, 0]
    basis = op.basis
    for k in range(n - 1, -1, -1):
        qmid = 0.5 * (q[:, k] + p[:, k])
        feats = conditional_features(X[:, :, k], theta_F[:, :, k])
        drv = primed.base.LH(qmid[:, None], Zphi[:, k][:, None], feats)[:, 0]
        drv = drv + consts.discount * phi[:, k + 1]
        target = phi[:, k + 1] + dt * drv - sq * (Zphi[:, k] * op.noise.dW0[:, k])
        S = basis.scenario_design(qmid, X[:, :, k].mean(axis=1), theta_F[:, :, k].mean(axis=1))
        phi[:, k] = regress_conditional(S, target, basis.ridge).fitted
    return phi


class LipschitzEstimate(float):
    """The probe bound L_hat, carrying the number of operator evaluations
    the probes took in `evaluations`."""

    def __new__(cls, value: float, evaluations: int = 0):
        self = super().__new__(cls, value)
        self.evaluations = evaluations
        return self


def _lipschitz_plan(op, probes: int, seed: int):
    """The probes of `estimate_lipschitz_v` as a plan (see the module
    docstring); returns a `LipschitzEstimate`."""
    if probes < 2:
        raise ConfigurationError([f"need at least 2 probes, got {probes}"])
    rng = np.random.default_rng(seed)
    draw = getattr(op, "random_control", None)
    draw_difference = getattr(op, "random_difference", None)

    def sample(gen):
        if draw is not None:
            return draw(gen, _PROBE_SCALE)
        return _PROBE_SCALE * gen.standard_normal(op.dim)

    # a plan keeps the generator state before each point, not the point, and
    # draws a point again whenever it needs it: `run_lockstep` keeps many
    # plans live at once
    starts, values = [], []
    for _ in range(probes):
        starts.append(copy.deepcopy(rng))
        values.append((yield sample(rng)))

    def difference(i: int, j: int):
        """Probe point i minus probe point j, both drawn again."""
        gen_i, gen_j = copy.deepcopy(starts[i]), copy.deepcopy(starts[j])
        if draw_difference is not None:
            return draw_difference(gen_i, gen_j, _PROBE_SCALE)
        return sample(gen_i) - sample(gen_j)

    evaluations = probes
    best = 0.0
    best_pair = None
    # the scan holds the values and one temporary: a pair's point difference
    # (one control, see `FbsdeOperator.random_difference`) is dropped before
    # its value difference is formed, and the best pair is kept as its
    # indices, not its direction
    for i in range(probes):
        for j in range(i + 1, probes):
            diff = difference(i, j)
            denom = _norm(op, diff)
            del diff
            if denom > 1e-14:
                dv = values[i] - values[j]
                ratio = _norm(op, dv) / denom
                del dv
                if ratio > best:
                    best = ratio
                    best_pair = (i, j, denom)
    if best_pair is None:
        return LipschitzEstimate(best, evaluations)
    # the refinement reads the first value only: the others go before its draws
    v_base = values[0]
    del values
    i, j, denom = best_pair
    direction = difference(i, j)
    direction *= 1.0 / denom
    base = sample(starts[0])
    del starts
    for _ in range(_PROBE_REFINE):
        dv = (yield base + direction) - v_base
        evaluations += 1
        norm_dv = _norm(op, dv)
        if norm_dv <= 1e-14:
            break
        best = max(best, norm_dv)  # ||direction|| = 1
        direction = dv
        direction *= 1.0 / norm_dv
    return LipschitzEstimate(best, evaluations)


def estimate_lipschitz_v(op, probes: int = 4, seed: int = _PROBE_SEED) -> LipschitzEstimate:
    """Probe-pair lower bound on the operator's Lipschitz constant.

    max over probe pairs of ||v(a) - v(b)|| / ||a - b||.  After the random
    pairs, `_PROBE_REFINE` further pairs are chosen by power iteration on the
    difference map (each one aligned with the stiffest direction found so
    far), which tightens the bound considerably on nearly affine operators.
    Still a lower bound; the step rule applies a safety factor on top.
    """
    return _drive(_lipschitz_plan(op, probes, seed), op)


# Bytes the live instances of `run_lockstep` may hold together, counted at
# `_PATHS_PER_INSTANCE` paths of (M, P, N+1) doubles each: thirteen 12x64x10
# instances (0.68 MB each, 8.79 MB; a fourteenth would need 9.46 MB), so a
# sweep of twelve such cells is one stack from its first round, and a single
# 32x500x50 one (65.3 MB; the CLI default), which then runs through
# op(control) exactly as a solo run does.  Memory bounds the stack, not speed:
# at 12x64x10, with one BLAS thread on a shared 2-core VM, the CPU time per
# instance of a solve is 2.0 ms solo, 0.69 ms in a stack of 6, 0.60 ms in 12
# and 0.55 ms in 13, and each live instance adds about 0.5 MB of peak RSS
# (the benchmark's `small_study` peaks 3.8 MB higher with thirteen than with
# six).
LOCKSTEP_BYTES = 9_000_000
# what one live instance holds at its peak, while a stacked solve runs: up to
# four controls of its plan (three probe values and the fourth point; the
# refinement's base, direction, base value and point; an iteration's iterate
# and trial point; a start given as a callable is built after the probes),
# its noise, and its share of the solve: the control and noise copies, the
# forward buffer that X and gap_F share, and the sweep's (M, P) slab buffers,
# about one path more (two at N = 10, less at larger N).  Traced, thirteen
# 12x64x10 runs peak at 9.6 paths each, so ten bound it.  Its value is
# copied out after the copies are dropped.  Between solves a plan holds less:
# the pair scan holds the probe values and one temporary, 5 controls at the
# default 4 probes, and an iteration three while it forms a point (iterate,
# value and new point).
_PATHS_PER_INSTANCE = 10


def _instance_bytes(op: FbsdeOperator) -> int:
    m, p = op.init.X0.shape
    return 8 * m * p * (op.grid.steps + 1) * _PATHS_PER_INSTANCE


class _Live:
    """One run of a plan: its plan and the request it waits on, or its
    outcome once the plan has ended.  It reads nothing of its operator, so a
    synthetic one (no `init`, no `stack_key`) runs alone in `_drive`."""

    def __init__(self, key, op: FbsdeOperator, plan):
        self.key = key
        self.op = op
        self.plan = plan
        self.request = None
        self.outcome = None

    def resume(self, reply) -> bool:
        """Send the plan the value it asked for, or throw in the package
        error its evaluation raised; True once the plan has ended, with its
        report or the package error it raised as the outcome."""
        self.request = None  # the plan holds what it still needs
        try:
            self.request = self.plan.throw(reply) if isinstance(reply, MajorMinorError) else self.plan.send(reply)
            return False
        except StopIteration as stop:
            self.outcome = stop.value
        except MajorMinorError as exc:
            self.outcome = exc
        self.op = self.plan = self.request = None
        return True


def run_lockstep(jobs):
    """Run the plans of independent instances in lockstep.

    jobs: iterable of (key, op, plan), each plan driven to the numbers that
    `_drive(plan, op)`, a run of one, would give; `(key, op,
    extragradient_plan(op.zero, config, op))` solves as
    `run_extragradient(op.zero, config, op)` does, probes included.  Yields
    (key, outcome) as each plan ends, the outcome being what the plan
    returned or the package error it raised; plans of one `stack_key` that
    end in the same round come in the order they were taken.  Jobs are
    taken one at a time, while the live instances fit in `LOCKSTEP_BYTES`
    together (one is always admitted: thirteen 12x64x10 instances fit, or
    one 32x500x50), so a caller may build each job's problem as it is asked
    for.  Each round gathers one request per live plan and evaluates those
    of one `stack_key` with `evaluate_many`: the budget bounds the live set,
    so it bounds every stack too.
    """
    pending = iter(jobs)
    waiting = None
    live: list[_Live] = []
    used = 0
    while True:
        # a job is asked for only when the live set has room left, so at
        # most one waits built while it does not fit
        while not live or used < LOCKSTEP_BYTES:
            waiting = waiting or next(pending, None)
            if waiting is None or (live and used + _instance_bytes(waiting[1]) > LOCKSTEP_BYTES):
                break
            run = _Live(*waiting)
            waiting = None
            if run.resume(None):
                yield run.key, run.outcome
                continue
            live.append(run)
            used += _instance_bytes(run.op)
        if not live:
            return
        ended = _round(live)
        live = [run for run in live if run not in ended]
        used = sum(_instance_bytes(run.op) for run in live)
        for run in ended:
            yield run.key, run.outcome
            run.outcome = None  # the caller holds what it keeps, not the next round


def _round(live: list[_Live]) -> list[_Live]:
    """Evaluate the request of every live run, one `evaluate_many` per
    `stack_key`, and hand each run its value; returns the runs that ended."""
    stacks: dict = {}
    for run in live:
        stacks.setdefault(run.op.stack_key(), []).append(run)
    ended = []
    for stack in stacks.values():
        values = evaluate_many([run.op for run in stack], [run.request for run in stack])
        ended += [run for run, value in zip(stack, values) if run.resume(value)]
    return ended
