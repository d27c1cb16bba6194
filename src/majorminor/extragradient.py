"""The monotone residual operator on controls, the extragradient loop, and
`run_lockstep`, which runs many independent loops as stacked solves.

For a control alpha the decoupled system is solved, the pair inverse is read
off, and the operator value is

    v(alpha) = (theta_F(alpha) - U, (a/2) (theta_H(alpha) - qb)),

with theta = (theta_F, theta_H) the pair inverse at (X, qf, Zphi) and a > 0
the weight of the major block.

Its zero is the control induced by the coupled solution, so the stopping rule
is the residual norm, not iterate movement.  The iteration kernel only needs
points with vector arithmetic and an operator exposing `inner`, which lets
synthetic operators exercise it without any FBSDE machinery.

Plans.  The extragradient loop and the Lipschitz probes are written as
generator plans: a plan yields what it needs evaluated, a control (one
value of v) or a step request (one iteration: a trial and a corrected
value), is sent back the value, or has the package error of the failed solve
thrown in at the yield, and returns its result.  `run_extragradient` and
`estimate_lipschitz_v` drive their plan alone: each control goes to
`op(control)` and each step to `extragradient_step`, in the order a plain
loop would call them.  `run_lockstep` drives the plans of many independent
instances at once: each round it takes one evaluation from every live plan
and solves those of alike instances as one stacked solve along a leading
instance axis (`evaluate_many`), which gives every instance the same bits as
its own solve would.  Per instance, both ways produce the same reports.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .artifacts import strict_json
from .ensembles import ControlField, conditional_features, inner_product_T
from .errors import ConfigurationError, MajorMinorError, SimulationError
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
    "LipschitzEstimate",
    "LOCKSTEP_BYTES",
    "evaluate_many",
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


@dataclass
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
        if self.gamma is not None and not (self.gamma > 0):
            problems.append(f"gamma must be positive, got {self.gamma}")
        if self.n_max < 1:
            problems.append(f"n_max must be >= 1, got {self.n_max}")
        if not (self.tol >= 0):
            problems.append(f"tol must be >= 0, got {self.tol}")
        if not (self.safety > 0):
            problems.append(f"safety must be positive, got {self.safety}")
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
        """Operators with equal keys can be evaluated in one stacked solve."""
        return (self.init.X0.shape, self.grid.steps, self.basis, self.primed.constants.sigma0 > 0)

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
    raised.

    Two or more go through one stacked solve.  If that raises, each is
    solved again on its own, so every instance gets exactly the value or the
    error of its own solve; one goes through `op(control)`.
    """
    if len(ops) > 1:
        try:
            solve = solve_stacked(ops, controls)
        except MajorMinorError:
            pass
        else:
            return [op.value_in(solve, (i,)) for i, op in enumerate(ops)]
    values = []
    for op, control in zip(ops, controls):
        try:
            values.append(op(control))
        except MajorMinorError as exc:
            values.append(exc)
    return values


@dataclass(frozen=True)
class _Step:
    """Plan request for one extragradient iteration from alpha with step gamma."""

    alpha: object
    gamma: float


def _forward(alpha, gamma: float, v):
    """alpha - gamma * v, formed as (-gamma) * v, then += alpha: the same
    IEEE result (a - b is a + (-b)) with one temporary instead of two."""
    point = (-gamma) * v
    point += alpha
    return point


def _step_plan(alpha, gamma: float):
    """Plan of one iteration: the trial and the corrected evaluation."""
    if not gamma > 0:
        raise ConfigurationError([f"gamma must be positive, got {gamma}"])
    v_n = yield alpha
    alpha_half = _forward(alpha, gamma, v_n)
    v_half = yield alpha_half
    return alpha_half, _forward(alpha, gamma, v_half), v_n, v_half


def _resume(plan, reply):
    """Send a plan the value it asked for, or throw in the error its
    evaluation raised; returns the plan's next request."""
    return plan.throw(reply) if isinstance(reply, MajorMinorError) else plan.send(reply)


def _drive(plan, op):
    """Run a plan to its end alone, serving its requests in order: a control
    with op(control), a step with `extragradient_step`."""
    reply = None
    while True:
        try:
            request = _resume(plan, reply)
        except StopIteration as stop:
            return stop.value
        reply = None
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if isinstance(request, _Step):
                    reply = extragradient_step(request.alpha, request.gamma, op)
                else:
                    reply = op(request)
        except MajorMinorError as exc:
            reply = exc
        del request  # the plan holds what it still needs


def _evaluations(plan):
    """The plan with each step request replaced by its two evaluations, so
    that it asks for controls only."""
    reply = None
    while True:
        try:
            request = _resume(plan, reply)
        except StopIteration as stop:
            return stop.value
        reply = None
        try:
            if isinstance(request, _Step):
                reply = yield from _step_plan(request.alpha, request.gamma)
            else:
                reply = yield request
        except MajorMinorError as exc:
            reply = exc


def extragradient_step(alpha, gamma: float, op):
    """One trial step and one corrected step.

    Returns (alpha_half, alpha_next, v_at_alpha, v_at_half): exactly two
    operator evaluations.
    """
    return _drive(_step_plan(alpha, gamma), op)


@dataclass
class ExtragradientReport:
    """Per-iteration trail of one run plus the fitted geometric rate.

    `stop_reason` says why the run ended: "tol", "n_max", "residual_growth"
    (the divergence window) or "non_finite" (a solve left the finite range).
    `evaluations` counts the operator values the run used: "probe", those
    behind `L_hat`, and "iterate", two per completed iteration (an iteration
    whose solve failed adds none).  A `solve` whose Lipschitz probe failed
    reports no iteration and no evaluation, with `gamma` and `L_hat` None.
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


def _extragradient_plan(alpha1, config: ExtragradientConfig, op, reference_control=None, lipschitz_hint=None):
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

    alpha = alpha1
    del alpha1  # the plan holds the current iterate only, see the end of the loop
    residuals: list[float] = []
    seconds: list[float] = []
    dists: list[float] | None = [] if reference_control is not None else None
    stop = "n_max"
    completed = 0

    for _ in range(config.n_max):
        t0 = time.perf_counter()
        # read before the step is requested, while the plan holds alpha only
        dist = None if dists is None else _norm(op, alpha - reference_control)
        try:
            alpha_half, alpha_next, v_n, v_half = yield _Step(alpha, gamma)
        except SimulationError:
            # iterates left the finite range: report divergence, not a crash
            stop = "non_finite"
            seconds.append(time.perf_counter() - t0)
            residuals.append(float("inf"))
            if dists is not None:
                dists.append(float("nan"))
            break
        del alpha_half, v_half  # the loop reads neither
        completed += 1
        residual = _norm(op, v_n)
        residuals.append(residual)
        if dists is not None:
            dists.append(dist)
        seconds.append(time.perf_counter() - t0)
        if residual <= config.tol:
            stop = "tol"
            break
        w = _DIVERGENCE_WINDOW
        if len(residuals) > w and residuals[-1] > _DIVERGENCE_FACTOR * residuals[-1 - w]:
            stop = "residual_growth"
            break
        alpha = alpha_next
        # hold no values of this iteration while the next one is evaluated:
        # `run_lockstep` keeps many plans live at once
        del alpha_next, v_n

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
        evaluations={"probe": probe_evals, "iterate": 2 * completed},
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
    that leaves the finite range.  Without a step size or a hint it probes
    first with `estimate_lipschitz_v`.
    """
    if config.gamma is None and lipschitz_hint is None:
        lipschitz_hint = estimate_lipschitz_v(op, config.probes)
    return _drive(_extragradient_plan(alpha1, config, op, reference_control, lipschitz_hint), op)


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
        """Probe point i minus probe point j, both drawn again; the second
        is dropped once subtracted."""
        diff = sample(copy.deepcopy(starts[i]))
        diff -= sample(copy.deepcopy(starts[j]))
        return diff

    evaluations = probes
    best = 0.0
    best_pair = None
    # the scan holds the values and at most two temporaries: a pair's point
    # difference is dropped before its value difference is formed, and the
    # best pair is kept as its indices, not its direction
    for i in range(probes):
        for j in range(i + 1, probes):
            diff = difference(i, j)
            denom = np.sqrt(max(op.inner(diff, diff), 0.0))
            del diff
            if denom > 1e-14:
                dv = values[i] - values[j]
                ratio = float(np.sqrt(max(op.inner(dv, dv), 0.0)) / denom)
                del dv
                if ratio > best:
                    best = ratio
                    best_pair = (i, j, denom)
    if best_pair is None:
        return LipschitzEstimate(best, evaluations)
    i, j, denom = best_pair
    direction = difference(i, j)
    direction *= 1.0 / denom
    # the refinement needs the first probe point only, drawn once more
    base = sample(starts[0])
    v_base = values[0]
    del starts, values
    for _ in range(_PROBE_REFINE):
        dv = (yield base + direction) - v_base
        evaluations += 1
        norm_dv = np.sqrt(max(op.inner(dv, dv), 0.0))
        if norm_dv <= 1e-14:
            break
        best = max(best, float(norm_dv))  # ||direction|| = 1
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
# `_PATHS_PER_INSTANCE` paths of (M, P, N+1) doubles each: three 12x64x10
# instances (0.61 MB each; a fourth would need 2.43 MB) and a single
# 32x500x50 one (59 MB; the CLI default), which then runs through op(control)
# exactly as a solo run does.  Memory bounds the stack, not speed: each live
# instance adds about 0.7 MB of peak RSS at 12x64x10, where the 12-cell sweep
# of the benchmark's `small_study` (`_sweep_rows`, Picard solves included)
# takes 0.60-0.69 of its serial CPU time with three live instances and
# 0.33-0.38 with twelve (three runs on a shared 2-core VM).
LOCKSTEP_BYTES = 2_400_000
# what one live instance holds at its peak: up to four controls of its plan
# while a solve runs (three probe values and the fourth point; the refinement's
# base, direction, base value and point; an iteration's iterate, value and
# trial point), its noise, and its share of a stacked solve (control and noise
# copies, the forward buffer that X and gap_F share, and the copy of its slot
# that is its value).  Between solves a plan holds less: the probe plan's pair
# scan holds the probe values and at most two temporaries, 6 controls at the
# default 4 probes, and an iteration at most five while its points are formed.
_PATHS_PER_INSTANCE = 9


def _instance_bytes(op: FbsdeOperator) -> int:
    m, p = op.init.X0.shape
    return 8 * m * p * (op.grid.steps + 1) * _PATHS_PER_INSTANCE


class _Live:
    """One run of `run_lockstep`: its plan and the request it waits on, or
    its outcome once the plan has ended."""

    def __init__(self, key, op: FbsdeOperator, plan):
        self.key = key
        self.op = op
        self.plan = plan
        self.bytes = _instance_bytes(op)
        self.request = None
        self.outcome = None

    def resume(self, reply) -> bool:
        """Hand the plan its reply; True once the plan has ended, with its
        report or the package error it raised as the outcome."""
        self.request = None  # the plan holds what it still needs
        try:
            self.request = _resume(self.plan, reply)
            return False
        except StopIteration as stop:
            self.outcome = stop.value
        except MajorMinorError as exc:
            self.outcome = exc
        self.op = self.plan = self.request = None
        return True


def _start(job) -> _Live:
    """The run of a `run_lockstep` job, advanced to its first request."""
    key, alpha1, config, op = job
    run = _Live(key, op, _evaluations(_extragradient_plan(alpha1, config, op)))
    run.resume(None)
    return run


def run_lockstep(jobs):
    """Run independent extragradient solves in lockstep.

    jobs: iterable of (key, alpha1, config, op), each solved as
    `run_extragradient(alpha1, config, op)` would solve it, probes included,
    to the same numbers.  Yields (key, outcome) as each run ends, the
    outcome being its `ExtragradientReport` or the package error the run
    raised.  Jobs are taken one at a time, while the live instances fit in
    `LOCKSTEP_BYTES` together (one is always admitted), so a caller may
    build each job's problem as it is asked for.  Each round gathers one
    request per live run and evaluates the runs of one `stack_key` with
    `evaluate_many`: the budget bounds the live set, so it bounds every stack
    too.
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
            if waiting is None or (live and used + _instance_bytes(waiting[3]) > LOCKSTEP_BYTES):
                break
            run = _start(waiting)
            waiting = None
            if run.outcome is not None:
                yield run.key, run.outcome
                continue
            live.append(run)
            used += run.bytes
        if not live:
            return
        ended = _round(live)
        live = [run for run in live if run not in ended]
        used = sum(run.bytes for run in live)
        for run in ended:
            yield run.key, run.outcome


def _round(live: list[_Live]) -> list[_Live]:
    """Evaluate the request of every live run, one `evaluate_many` per
    `stack_key`, and hand each run its value; returns the runs that ended."""
    stacks: dict = {}
    for run in live:
        stacks.setdefault(run.op.stack_key(), []).append(run)
    ended = []
    for stack in stacks.values():
        with np.errstate(over="ignore", invalid="ignore"):
            values = evaluate_many([run.op for run in stack], [run.request for run in stack])
        ended += [run for run, value in zip(stack, values) if run.resume(value)]
    return ended
