import concurrent.futures
import math
import threading

import numpy as np
import pytest

from majorminor import grids
from majorminor.ensembles import conditional_features
from majorminor.errors import OracleBlowUpError
from majorminor.grids import build_grid, path_array, sample_noise
from majorminor.models import LQParams, ModelConstants, make_lq_model, split_q
from majorminor.oracle import (
    eval_oracle_field,
    oracle_induced_control,
    picard_solve,
    riccati_oracle,
)
from majorminor.solver import RegressionBasis, sample_initial

CONE = LQParams(c1=1.0, c3=0.5, g1=1.0, b=1.0, p1=1.0)


def test_decoupled_scalar_analytic():
    # c1=c2=c3=g2=0, g1=1: a' = a^2 with a(T)=1, so a(0) = 1/(1+T) = 0.5
    params = LQParams(g1=1.0)
    sol = riccati_oracle(params, ModelConstants(), build_grid(1.0, 50))
    a0 = sol.coefficients_at(0.0)[0]
    assert a0 == pytest.approx(0.5, abs=1e-8)


def test_zero_params_zero_solution():
    sol = riccati_oracle(LQParams(), ModelConstants(), build_grid(1.0, 10))
    for table in (sol.a, sol.b_u, sol.c_u, sol.k2, sol.k12, sol.kc, sol.k0):
        assert np.allclose(table, 0.0)


def test_terminal_values_match():
    params = LQParams(c1=0.5, g1=2.0, g2=0.3, b=1.0, p1=0.7, p2=0.2)
    sol = riccati_oracle(params, ModelConstants(), build_grid(0.5, 20))
    assert sol.a[-1] == pytest.approx(2.0)
    assert sol.b_u[-1] == pytest.approx(0.3)
    assert sol.c_u[-1] == pytest.approx(0.0)
    assert sol.k2[-1] == pytest.approx(0.7)
    assert sol.k12[-1] == pytest.approx(0.2)
    assert sol.kc[-1] == pytest.approx(0.0)


def test_blow_up_reported_with_time():
    # a' = a^2, a(T) = -3 reaches -inf at forward time T - 1/3
    params = LQParams(g1=-3.0)
    with pytest.raises(OracleBlowUpError) as err:
        riccati_oracle(params, ModelConstants(), build_grid(1.0, 300))
    assert err.value.blow_up_time == pytest.approx(1.0 - 1.0 / 3.0, abs=0.02)


def test_eval_oracle_field_values():
    sol = riccati_oracle(LQParams(g1=1.0), ModelConstants(), build_grid(1.0, 50))
    u, phi, zphi = eval_oracle_field(sol, 0.0, 2.0, 0.0, 0.0)
    assert u == pytest.approx(1.0, abs=1e-6)  # a(0) = 0.5 times x = 2
    assert phi == pytest.approx(0.0)
    u, phi, zphi = eval_oracle_field(sol, 1.0, 0.0, 0.0, 0.0)
    assert u == 0.0 and phi == 0.0 and zphi == 0.0


def test_eval_oracle_gradient_quadratic():
    # k2(T) = p1: at terminal, d_q phi = p1 * q
    sol = riccati_oracle(LQParams(p1=1.0, b=1.0), ModelConstants(), build_grid(1.0, 50))
    _, _, zphi = eval_oracle_field(sol, 1.0, 0.0, 3.0, 0.0)
    assert zphi == pytest.approx(3.0)


def test_oracle_self_consistency_one_step_residuals():
    # noiseless characteristics: one-step residuals of the backward values
    # shrink like dt^2 (ratio ~4 when halving dt)
    params = CONE
    constants = ModelConstants(sigma=0.0, sigma0=0.0)
    residuals = {}
    for steps in (20, 40):
        grid = build_grid(1.0, steps)
        sol = riccati_oracle(params, constants, grid, refine=20)
        dt = grid.dt
        x, q, mbar = 1.0, 1.0, 1.0
        worst = 0.0
        for k in range(steps):
            t0, t1 = grid.nodes[k], grid.nodes[k + 1]
            u0, phi0, z0 = eval_oracle_field(sol, t0, x, q, mbar)
            # forward Euler on the characteristics
            x1 = x - u0 * dt
            q1 = q - (params.b * q + z0) * dt
            m1 = mbar - u0 * dt  # single-particle cloud: mbar follows x
            u1, phi1, z1 = eval_oracle_field(sol, t1, x1, q1, m1)
            g_val = params.c1 * x1 + params.c3 * (x1 - m1)
            lh_val = -0.5 * z1**2
            res_u = abs(u0 - (u1 + g_val * dt))
            res_phi = abs(phi0 - (phi1 + lh_val * dt))
            worst = max(worst, res_u, res_phi)
            x, q, mbar = x1, q1, m1
        residuals[steps] = worst
    ratio = residuals[20] / residuals[40]
    assert 2.5 < ratio < 6.0


def test_lq_feedback_matches_oracle_state_mean():
    # feeding the oracle feedback through the particle simulator reproduces
    # the oracle mean dynamics within Monte Carlo + O(dt)
    grid = build_grid(1.0, 50)
    constants = ModelConstants(sigma=0.5, sigma0=0.5)
    cs = make_lq_model(CONE, constants)
    sol = riccati_oracle(CONE, constants, grid)
    noise = sample_noise(grid, 16, 800, seed=4)
    init = sample_initial(16, 800, seed=4, x_mean=1.0, x_std=0.3, q0=1.0)
    control, paths = oracle_induced_control(sol, cs, grid, noise, init)
    # ODE for the ensemble means: dm/dt = -((a+c_u) m + b_u q), dq baseline
    mbar = paths["mean_x"].mean(axis=0)
    a, b_u, c_u, k2, k12, _, _ = sol.coefficients_at(grid.nodes)
    m_ode = np.empty_like(mbar)
    q_ode = np.empty_like(mbar)
    m_ode[0], q_ode[0] = 1.0, 1.0
    for k in range(grid.steps):
        m_ode[k + 1] = m_ode[k] - ((a[k] + c_u[k]) * m_ode[k] + b_u[k] * q_ode[k]) * grid.dt
        q_ode[k + 1] = q_ode[k] - ((CONE.b + k2[k]) * q_ode[k] + k12[k] * m_ode[k]) * grid.dt
    mc_se = 0.3 / np.sqrt(16 * 800)
    assert np.max(np.abs(mbar - m_ode)) < 3 * mc_se + 2 * grid.dt
    qbar = paths["q"].mean(axis=0)
    q_se = np.sqrt(2 * 0.5 * grid.nodes + 1e-12) / np.sqrt(16)
    assert np.max(np.abs(qbar - q_ode) - 3 * q_se) < 2 * grid.dt


def _assert_oracle_roll_matches_the_recursion():
    # the recursion written with whole (M, P, N+1) particle paths, which the
    # package keeps one (M, P) slab at a time
    grid = build_grid(1.0, 12)
    constants = ModelConstants(sigma=0.5, sigma0=0.5)
    cs = make_lq_model(CONE, constants)
    sol = riccati_oracle(CONE, constants, grid)
    m, p, n = 6, 40, grid.steps
    noise = sample_noise(grid, m, p, seed=9)
    init = sample_initial(m, p, seed=9, x_mean=1.0, x_std=0.3, q0=1.0, q0_std=0.1)
    sx, sq = math.sqrt(2.0 * constants.sigma), math.sqrt(2.0 * constants.sigma0)
    X = path_array((m, p, n + 1))
    q = np.empty((m, n + 1))
    zphi = np.empty((m, n))
    alpha_x = path_array((m, p, n))
    alpha_q = np.empty((m, n))
    X[:, :, 0] = init.X0
    q[:, 0] = init.q0
    for k in range(n):
        xk, qk = X[:, :, k], q[:, k][:, None]
        u_k, _, z_k = eval_oracle_field(sol, grid.nodes[k], xk, qk, xk.mean(axis=1, keepdims=True))
        zphi[:, k] = z_k[:, 0]
        feats = conditional_features(xk, u_k)
        alpha_x[:, :, k] = cs.F(xk, qk, u_k, z_k, feats)
        alpha_q[:, k] = cs.Hz(qk, z_k, feats)[:, 0]
        X[:, :, k + 1] = xk - alpha_x[:, :, k] * grid.dt + sx * noise.dB[:, :, k]
        q[:, k + 1] = q[:, k] - alpha_q[:, k] * grid.dt + sq * noise.dW0[:, k]

    control, paths = oracle_induced_control(sol, cs, grid, noise, init)
    assert np.array_equal(control.alpha_x, alpha_x) and np.array_equal(control.alpha_q, alpha_q)
    assert {name: path.shape for name, path in paths.items()} == {
        "q": (m, n + 1), "Zphi": (m, n), "mean_x": (m, n + 1),
    }
    assert np.array_equal(paths["q"], q) and np.array_equal(paths["Zphi"], zphi)
    mean_x = np.stack([X[:, :, k].mean(axis=1) for k in range(n + 1)], axis=1)
    assert np.array_equal(paths["mean_x"], mean_x)


def test_oracle_control_matches_the_particle_path_recursion():
    _assert_oracle_roll_matches_the_recursion()


def test_threaded_oracle_roll_matches_the_particle_path_recursion(monkeypatch):
    # every slab and the noise bundle count as large: the 6 scenarios are
    # sampled and roll in blocks of 1 and 2 on 4 threads
    pools = []
    pool_type = concurrent.futures.ThreadPoolExecutor

    def counting_pool(max_workers):
        pools.append(max_workers)
        return pool_type(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting_pool)
    monkeypatch.setattr(grids, "THREADED_ELEMENTS", 1)
    monkeypatch.setattr(grids, "SAMPLING_THREADED_ELEMENTS", 1)
    monkeypatch.setattr(grids, "scenario_threads", lambda: 4)
    threads = threading.active_count()
    _assert_oracle_roll_matches_the_recursion()
    assert pools == [4, 4] and threading.active_count() == threads  # the noise, then the roll


def _numpy_riccati_tables(params, constants, grid, refine=10):
    """RK4 on float64 arrays, the form the package's float RK4 reproduces."""

    def rhs(y, p, lam, sigma0):
        a, b_u, c_u, k2, k12, kc, k0 = y
        return np.array(
            [
                a * a - (p.c1 + p.c3),
                b_u * (a + p.b + k2 + c_u) - p.c2,
                c_u * (2.0 * a + c_u) + b_u * k12 + p.c3,
                2.0 * k2 * (p.b + k2) + 2.0 * k12 * b_u - lam * k2 + k2 * k2 + p.r1,
                k12 * (p.b + 3.0 * k2 + a + c_u - lam) + kc * b_u + p.r2,
                2.0 * kc * (a + c_u) - lam * kc + 3.0 * k12 * k12,
                -lam * k0 - sigma0 * k2,
            ]
        )

    n = grid.steps * refine
    times = np.linspace(0.0, grid.horizon, n + 1)
    h = grid.horizon / n
    lam = constants.discount
    tables = np.empty((7, n + 1))
    y = np.array([params.g1, params.g2, 0.0, params.p1, params.p2, 0.0, 0.0])
    tables[:, n] = y
    for i in range(n, 0, -1):
        k1 = rhs(y, params, lam, constants.sigma0)
        k2 = rhs(y - 0.5 * h * k1, params, lam, constants.sigma0)
        k3 = rhs(y - 0.5 * h * k2, params, lam, constants.sigma0)
        k4 = rhs(y - h * k3, params, lam, constants.sigma0)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > 1e8:
            raise OracleBlowUpError(times[i - 1])
        tables[:, i - 1] = y
    return times, tables


@pytest.mark.parametrize(
    "params,constants,grid",
    [
        (CONE, ModelConstants(), build_grid(1.0, 50)),
        (CONE, ModelConstants(sigma0=1.3, discount=0.4), build_grid(2.0, 30)),
        (
            LQParams(c1=0.7, c2=0.2, c3=-0.3, g1=1.5, g2=-0.4, b=0.8, p1=0.6, p2=0.3, r1=0.5, r2=-0.25),
            ModelConstants(sigma0=0.8, discount=0.1),
            build_grid(1.5, 40),
        ),
    ],
    ids=["cone", "discount", "all-params"],
)
def test_riccati_tables_equal_numpy_rk4(params, constants, grid):
    times, tables = _numpy_riccati_tables(params, constants, grid)
    sol = riccati_oracle(params, constants, grid)
    assert np.array_equal(sol.times, times)
    fields = (sol.a, sol.b_u, sol.c_u, sol.k2, sol.k12, sol.kc, sol.k0)
    for row, table in zip(tables, fields):
        assert np.array_equal(table, row)


def test_riccati_blow_up_time_equals_numpy_rk4():
    params, grid = LQParams(g1=-3.0), build_grid(1.0, 300)
    with pytest.raises(OracleBlowUpError) as expected:
        _numpy_riccati_tables(params, ModelConstants(), grid)
    with pytest.raises(OracleBlowUpError) as err:
        riccati_oracle(params, ModelConstants(), grid)
    assert err.value.blow_up_time == expected.value.blow_up_time


def test_picard_zero_model_converges_one_sweep():
    from majorminor.models import make_zero_model

    grid = build_grid(1.0, 5)
    noise = sample_noise(grid, 4, 8, seed=0)
    init = sample_initial(4, 8, seed=0)
    primed = split_q(make_zero_model(ModelConstants(sigma=0.1, sigma0=0.1)))
    res = picard_solve(primed, grid, noise, init, RegressionBasis(), tol=1e-9)
    assert res.converged and res.sweeps <= 2
    assert not res.diverged and res.reason == ""


def test_picard_cross_validates_oracle_short_horizon():
    # the mandated gate: fine-grid Picard at T = 0.25 agrees with the
    # Riccati field at the probe point within 1e-3 + Monte Carlo error
    grid = build_grid(0.25, 100)
    constants = ModelConstants(sigma=0.5, sigma0=0.5)
    cs = make_lq_model(CONE, constants)
    primed = split_q(cs)
    m, p = 64, 1500
    noise = sample_noise(grid, m, p, seed=11)
    init = sample_initial(m, p, seed=11, x_mean=1.0, x_std=0.3, q0=1.0, q0_std=0.1)
    res = picard_solve(primed, grid, noise, init, RegressionBasis(), tol=1e-8, max_iter=30)
    assert res.converged
    sol = riccati_oracle(CONE, constants, grid)
    st = res.solve.state
    mbar0 = st.X[:, :, 0].mean(axis=1)
    u_ref, phi_ref, _ = eval_oracle_field(sol, 0.0, st.X[:, :, 0], st.qf[:, 0][:, None], mbar0[:, None])
    u_err = np.abs(st.U[:, :, 0] - u_ref)
    phi_err = np.abs(st.phi[:, 0] - phi_ref[:, 0])
    u_se = st.U[:, :, 0].std() / np.sqrt(m)
    phi_se = st.phi[:, 0].std() / np.sqrt(m) + 1e-4
    assert np.mean(u_err) < 1e-3 + 3 * u_se
    assert np.mean(phi_err) < 1e-3 + 3 * phi_se


def test_picard_divergence_reported_long_horizon():
    # strong coupling, long horizon, small common noise: no contraction
    params = LQParams(c1=1.0, c2=0.8, c3=0.5, g1=1.0, g2=0.5, b=1.0, r1=0.4, r2=0.4, p1=1.0, p2=0.3)
    constants = ModelConstants(sigma=0.2, sigma0=0.05)
    grid = build_grid(5.0, 60)
    cs = make_lq_model(params, constants)
    noise = sample_noise(grid, 8, 64, seed=3)
    init = sample_initial(8, 64, seed=3, x_mean=1.0, x_std=0.3, q0=1.0)
    res = picard_solve(split_q(cs), grid, noise, init, RegressionBasis(), tol=1e-8, max_iter=25)
    assert res.diverged
    assert res.reason == "sweep produced non-finite values (no contraction)"
