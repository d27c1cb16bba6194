import numpy as np
import pytest

from majorminor.ensembles import ControlField
from majorminor.errors import ConfigurationError
from majorminor.extragradient import (
    ExtragradientConfig,
    FbsdeOperator,
    estimate_lipschitz_v,
    extragradient_step,
    fit_geometric_rate,
    recover_phi_bar,
    run_extragradient,
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
    config = ExtragradientConfig(gamma=0.5, n_max=60, tol=0.0, averaging=False)
    report = run_extragradient(np.array([1.0, 1.0, 1.0]), config, op)
    assert report.lambda_hat == pytest.approx(0.75, abs=0.01)
    assert report.r_squared > 0.999
    assert not report.diverged


def test_run_divergence_report_on_large_step():
    op = rotation_op()
    config = ExtragradientConfig(gamma=10.0, n_max=60, averaging=False)
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
    config = ExtragradientConfig(gamma=None, n_max=40, tol=0.0, averaging=True, safety=0.5)
    report = run_extragradient(op.zero(), config, op)
    assert not report.diverged
    assert report.residuals[-1] < 0.05 * report.residuals[0]
    assert report.lambda_hat is not None and report.lambda_hat < 0.98
    phi_bar = recover_phi_bar(op, report.averages)
    solve = op.last_solve
    # averaged-value recovery tracks the converged major value
    err = np.abs(phi_bar - solve.state.phi).mean()
    scale = np.abs(solve.state.phi).mean() + 1e-12
    assert err < 0.25 * scale + 0.05


def test_report_serialization_round_trip():
    op = scaling_op(1.0)
    config = ExtragradientConfig(gamma=0.4, n_max=12, averaging=False)
    report = run_extragradient(np.ones(3), config, op)
    payload = report.to_json()
    assert '"lambda_hat"' in payload
    rows = report.iteration_rows()
    assert len(rows) == report.iterations
    assert rows[0][0] == 1
