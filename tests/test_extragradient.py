import tracemalloc

import numpy as np
import pytest

from majorminor.ensembles import ControlField
from majorminor.errors import ConfigurationError, SimulationError
from majorminor.extragradient import (
    _PROBE_REFINE,
    _PROBE_SCALE,
    _PROBE_SEED,
    ExtragradientConfig,
    FbsdeOperator,
    estimate_lipschitz_v,
    evaluate_many,
    extragradient_step,
    fit_geometric_rate,
    recover_phi_bar,
    run_extragradient,
    run_lockstep,
    solve_stacked,
)
from majorminor.grids import build_grid, sample_noise
from majorminor.models import LQParams, ModelConstants, make_lq_model, make_zero_model, split_q
from majorminor.oracle import eval_oracle_field, oracle_induced_control, riccati_oracle
from majorminor.solver import InitialCondition, RegressionBasis, sample_initial

CONE = LQParams(c1=1.0, c3=0.5, g1=1.0, b=1.0, p1=1.0)


class ArrayOperator:
    """Synthetic operator on R^n for kernel tests."""

    def __init__(self, fn, dim):
        self.fn = fn
        self.dim = dim

    def __call__(self, x):
        return self.fn(x)

    def inner(self, a, b):
        return float(np.dot(np.ravel(a), np.ravel(b)))


def rotation_op():
    return ArrayOperator(lambda x: np.array([-x[1], x[0]]), 2)


def scaling_op(eta):
    return ArrayOperator(lambda x: eta * x, 3)


def lq_operator(m=8, p=64, n=10, seed=0, params=CONE, constants=None, q0_std=0.1, horizon=1.0):
    constants = constants or ModelConstants(sigma=0.5, sigma0=0.5)
    grid = build_grid(horizon, n)
    noise = sample_noise(grid, m, p, seed=seed)
    init = sample_initial(m, p, seed=seed, x_mean=1.0, x_std=0.3, q0=1.0, q0_std=q0_std)
    primed = split_q(make_lq_model(params, constants))
    return FbsdeOperator(primed, grid, noise, init, RegressionBasis()), grid, noise, init


def test_step_fixed_point():
    op = scaling_op(0.0)
    x = np.array([1.0, -2.0, 3.0])
    _, x_next, _, _ = extragradient_step(x, 0.3, op)
    assert np.allclose(x_next, x)


def test_step_scalar_algebra():
    eta, gamma = 2.0, 0.2
    op = scaling_op(eta)
    x = np.array([1.0, 0.5, -1.0])
    _, x_next, _, _ = extragradient_step(x, gamma, op)
    assert np.allclose(x_next, (1 - gamma * eta + gamma**2 * eta**2) * x)


def test_step_rejects_bad_gamma():
    with pytest.raises(ConfigurationError):
        extragradient_step(np.ones(2), 0.0, scaling_op(1.0))


def test_rotation_bounded_vs_forward_euler():
    # extragradient map has |eig|^2 = 1 - g^2 + g^4 < 1 for 0 < g < 1,
    # plain forward steps have |eig|^2 = 1 + g^2 > 1
    op = rotation_op()
    gamma = 0.5
    x = np.array([1.0, 0.0])
    y = x.copy()
    for _ in range(200):
        _, x, _, _ = extragradient_step(x, gamma, op)
        y = y - gamma * op(y)
    assert np.linalg.norm(x) < 1.0
    assert np.linalg.norm(y) > 10.0


def test_run_geometric_rate_on_linear_operator():
    eta = 1.0
    op = scaling_op(eta)
    config = ExtragradientConfig(gamma=0.5, n_max=60, tol=0.0)
    report = run_extragradient(np.array([1.0, 1.0, 1.0]), config, op)
    assert report.lambda_hat == pytest.approx(0.75, abs=0.01)
    assert report.r_squared > 0.999
    assert not report.diverged


def test_run_divergence_report_on_large_step():
    op = rotation_op()
    config = ExtragradientConfig(gamma=10.0, n_max=60)
    report = run_extragradient(np.array([1.0, 0.0]), config, op)
    assert report.diverged
    assert report.iterations < 60


def test_estimate_lipschitz_exact_for_linear():
    op = scaling_op(1.7)
    assert estimate_lipschitz_v(op, probes=4, seed=0) == pytest.approx(1.7, rel=1e-9)
    rot = rotation_op()
    assert estimate_lipschitz_v(rot, probes=4, seed=0) == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ConfigurationError):
        estimate_lipschitz_v(op, probes=1)


def lipschitz_holding_every_point(op, probes):
    """The probe estimate of `estimate_lipschitz_v`, computed with every
    probe point, value and pair direction kept."""
    rng = np.random.default_rng(_PROBE_SEED)
    points = [op.random_control(rng, _PROBE_SCALE) for _ in range(probes)]
    values = [op(a) for a in points]
    best, best_dir = 0.0, None
    for i in range(probes):
        for j in range(i + 1, probes):
            diff = points[i] - points[j]
            dv = values[i] - values[j]
            denom = np.sqrt(max(op.inner(diff, diff), 0.0))
            if denom > 1e-14:
                ratio = float(np.sqrt(max(op.inner(dv, dv), 0.0)) / denom)
                if ratio > best:
                    best, best_dir = ratio, (1.0 / denom) * diff
    for _ in range(_PROBE_REFINE):
        dv = op(points[0] + best_dir) - values[0]
        norm_dv = np.sqrt(max(op.inner(dv, dv), 0.0))
        if norm_dv <= 1e-14:
            break
        best = max(best, float(norm_dv))
        best_dir = (1.0 / norm_dv) * dv
    return best


def test_lipschitz_probes_hold_few_controls():
    # numpy reports its buffers to tracemalloc.  Keeping the best pair's
    # direction, the last pair's differences and the last probe request
    # alive through the pair scan took 16.3 controls at this size, 13.3 without
    op = lq_operator(m=8, p=100, n=20, seed=2)[0]
    control_bytes = 8 * (8 * 100 * 20 + 8 * 20)
    tracemalloc.start()
    try:
        L_hat = estimate_lipschitz_v(op, probes=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14.5 * control_bytes
    assert L_hat.evaluations == 4 + _PROBE_REFINE
    assert float(L_hat) == lipschitz_holding_every_point(op, 4)


def test_fit_geometric_rate_recovers_slope():
    lam, r2 = fit_geometric_rate([0.9**n for n in range(40)])
    assert lam == pytest.approx(0.9, abs=1e-6)
    assert r2 == pytest.approx(1.0)


def test_zero_model_operator_vanishes_at_zero():
    # sigma = sigma0 = 0, single scenario and particle, g = psi = 0
    constants = ModelConstants(sigma=0.0, sigma0=0.0)
    primed = split_q(make_zero_model(constants))
    grid = build_grid(1.0, 4)
    noise = sample_noise(grid, 1, 1, seed=0)
    init = InitialCondition(X0=np.full((1, 1), 0.7), q0=np.full(1, -0.4))
    op = FbsdeOperator(primed, grid, noise, init, RegressionBasis())
    v0 = op(ControlField.zeros(1, 1, 4))
    assert op.norm(v0) <= 1e-7  # ridge floor of the scenario fits


def test_oracle_start_residual_small_and_monotone_pairs():
    op, grid, noise, init = lq_operator(m=32, p=200, n=20, seed=1)
    constants = ModelConstants(sigma=0.5, sigma0=0.5)
    sol = riccati_oracle(CONE, constants, grid)
    cs = make_lq_model(CONE, constants)
    alpha_star, _ = oracle_induced_control(sol, cs, grid, noise, init)
    v_star = op(alpha_star)
    res = op.norm(v_star)
    scale = op.norm(alpha_star)
    assert res < 0.25 * scale  # coarse-grid discretization floor
    solve = op.last_solve  # the solve behind v_star
    assert np.array_equal(v_star.alpha_x, solve.theta_F - solve.state.U[:, :, : grid.steps])
    quad = FbsdeOperator(op.primed, grid, noise, init, RegressionBasis(quadratic=True))
    assert quad.norm(quad(alpha_star)) < 0.25 * scale  # the quadratic basis keeps the floor

    # monotonicity on random pairs: <v(a)-v(b), a-b> >= -3 SE
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = op.random_control(rng, 0.7)
        b = op.random_control(rng, 0.7)
        va, vb = op(a), op(b)
        ip = op.inner(va - vb, a - b)
        # scenario-level Monte Carlo standard error of the inner product
        diff_x = (va.alpha_x - vb.alpha_x) * (a.alpha_x - b.alpha_x)
        per_scen = diff_x.mean(axis=1).sum(axis=1) * grid.dt
        se = float(per_scen.std(ddof=1) / np.sqrt(per_scen.size))
        assert ip >= -3 * se


def test_run_converges_on_lq_and_recovers_phi_bar():
    op, grid, noise, init = lq_operator(m=24, p=300, n=25, seed=2)
    config = ExtragradientConfig(gamma=None, n_max=40, tol=0.0, safety=0.5)
    report = run_extragradient(op.zero(), config, op)
    assert not report.diverged
    assert report.residuals[-1] < 0.05 * report.residuals[0]
    assert report.lambda_hat is not None and report.lambda_hat < 0.98
    solve = op.last_solve
    phi_bar = recover_phi_bar(op, solve)
    # the auxiliary sweep along the last solve tracks its major value
    err = np.abs(phi_bar - solve.state.phi).mean()
    scale = np.abs(solve.state.phi).mean() + 1e-12
    assert err < 0.25 * scale + 0.05


def test_report_serialization_round_trip():
    op = scaling_op(1.0)
    config = ExtragradientConfig(gamma=0.4, n_max=12)
    report = run_extragradient(np.ones(3), config, op)
    payload = report.to_json()
    assert '"lambda_hat"' in payload
    rows = report.iteration_rows()
    assert len(rows) == report.iterations
    assert rows[0][0] == 1


class FailingOperator(ArrayOperator):
    """Scaling operator whose solve fails once |x| exceeds a bound."""

    def __call__(self, x):
        if np.abs(x).max() > 2.0:
            raise SimulationError("backward sweep produced non-finite values")
        return self.fn(x)


@pytest.mark.parametrize(
    "op, gamma, tol, reason",
    [
        (scaling_op(1.0), 0.5, 1e-3, "tol"),
        (scaling_op(1.0), 0.5, 0.0, "n_max"),
        (rotation_op(), 10.0, 0.0, "residual_growth"),
        (FailingOperator(lambda x: -x, 3), 1.5, 0.0, "non_finite"),
    ],
)
def test_report_says_why_the_run_stopped(op, gamma, tol, reason):
    config = ExtragradientConfig(gamma=gamma, n_max=30, tol=tol)
    report = run_extragradient(np.ones(op.dim), config, op)
    assert report.stop_reason == reason
    assert report.diverged == (reason in ("residual_growth", "non_finite"))
    completed = report.iterations - (reason == "non_finite")
    assert report.evaluations == {"probe": 0, "iterate": 2 * completed}
    assert report.L_hat is None


CONE_BLOWING_UP = LQParams(c1=1.0, c3=0.5, g1=1.0, b=1.0, p1=1.0, r1=-5.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blown-up instance overflows on purpose
def test_evaluate_many_gives_each_instance_its_solo_outcome():
    ops = [
        lq_operator(m=4, p=16, n=10, seed=1)[0],
        lq_operator(m=4, p=16, n=10, seed=3, params=CONE_BLOWING_UP, horizon=8.0)[0],
        lq_operator(m=4, p=16, n=10, seed=2, horizon=0.5)[0],
    ]
    controls = [op.zero() for op in ops]
    with pytest.raises(SimulationError) as solo_error:
        ops[1](controls[1])
    with pytest.raises(SimulationError):
        solve_stacked(ops, controls)
    values = evaluate_many(ops, controls)
    assert isinstance(values[1], SimulationError) and str(values[1]) == str(solo_error.value)
    for i in (0, 2):
        solo = ops[i](controls[i])
        assert np.array_equal(values[i].alpha_x, solo.alpha_x) and np.array_equal(values[i].alpha_q, solo.alpha_q)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blown-up instances overflow on purpose
def test_lockstep_runs_report_what_solo_runs_report():
    ops = [
        lq_operator(m=8, p=32, n=10, seed=1)[0],
        lq_operator(m=8, p=32, n=10, seed=2, horizon=2.0)[0],
        lq_operator(m=8, p=32, n=10, seed=3, params=CONE_BLOWING_UP, horizon=8.0)[0],
        lq_operator(m=8, p=32, n=10, seed=5, params=CONE_BLOWING_UP, horizon=8.0)[0],
        lq_operator(m=8, p=32, n=10, seed=4, constants=ModelConstants(sigma=0.5, sigma0=0.0))[0],
    ]
    config = ExtragradientConfig(n_max=30, tol=1e-2)
    solo = []
    for op in ops:
        try:
            solo.append(run_extragradient(op.zero(), config, op))
        except SimulationError as exc:
            solo.append(exc)
    lockstep = dict(run_lockstep((i, op.zero(), config, op) for i, op in enumerate(ops)))
    outcomes = []
    for i, want in enumerate(solo):
        got = lockstep[i]
        assert type(got) is type(want)
        if isinstance(want, SimulationError):
            assert str(got) == str(want)
            outcomes.append("error")
            continue
        assert got.residuals == want.residuals
        assert (got.stop_reason, got.evaluations, got.L_hat, got.gamma, got.lambda_hat) == (
            want.stop_reason, want.evaluations, want.L_hat, want.gamma, want.lambda_hat,
        )
        assert want.evaluations["probe"] == 12
        outcomes.append(want.stop_reason)
    # runs that end by tolerance, by the cap, on a failed iteration and in
    # their probes, one of them without common noise
    assert set(outcomes) == {"tol", "n_max", "non_finite", "error"}
    # the default config runs in lockstep too, to the solo numbers
    default = ExtragradientConfig()
    want = run_extragradient(ops[0].zero(), default, ops[0])
    got = dict(run_lockstep([(0, ops[0].zero(), default, ops[0])]))[0]
    assert (got.residuals, got.stop_reason) == (want.residuals, want.stop_reason)
