import concurrent.futures
import math
import threading

import numpy as np
import pytest

import majorminor.extragradient as extragradient_module
from majorminor import grids
from majorminor.ensembles import conditional_features, norm_T
from majorminor.errors import OracleBlowUpError, SimulationError
from majorminor.extragradient import (
    ExtragradientConfig,
    FbsdeOperator,
    extragradient_plan,
    run_extragradient,
    run_lockstep,
)
from majorminor.grids import build_grid, path_array, sample_noise
from majorminor.models import LQParams, ModelConstants, make_lq_model, make_zero_model, split_q
from majorminor.oracle import (
    StateOperator,
    eval_oracle_field,
    oracle_induced_control,
    picard_control,
    picard_plan,
    picard_solve,
    riccati_oracle,
)
from majorminor.solver import RegressionBasis, decoupled_solve, sample_initial

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
        feats = conditional_features(xk)
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
    grid = build_grid(1.0, 5)
    noise = sample_noise(grid, 4, 8, seed=0)
    init = sample_initial(4, 8, seed=0)
    primed = split_q(make_zero_model(ModelConstants(sigma=0.1, sigma0=0.1)))
    res = picard_solve(FbsdeOperator(primed, grid, noise, init, RegressionBasis()), tol=1e-9)
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
    res = picard_solve(FbsdeOperator(primed, grid, noise, init, RegressionBasis()), tol=1e-8, max_iter=30)
    assert res.converged
    sol = riccati_oracle(CONE, constants, grid)
    st = res.state
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
    res = picard_solve(FbsdeOperator(split_q(cs), grid, noise, init, RegressionBasis()), tol=1e-8, max_iter=25)
    assert res.diverged
    assert res.reason == "sweep produced non-finite values (no contraction)"


@pytest.mark.parametrize("clamp", [math.inf, 2.0], ids=["unclamped", "clamp2"])
def test_picard_control_equals_the_per_step_maps(clamp):
    # one call of F and of DzH on the (N M, P) slab of all steps gives the
    # bits of the per-step loop of `picard_solve` that it replaced
    grid = build_grid(1.0, 10)
    primed = split_q(make_lq_model(CONE, ModelConstants(sigma=0.5, sigma0=1.0, clamp_m=clamp)))
    noise, init = sample_noise(grid, 12, 64, seed=1234), sample_initial(12, 64, seed=1234)
    op = FbsdeOperator(primed, grid, noise, init, RegressionBasis())
    solve = op.solve(op.random_control(np.random.default_rng(0)))
    st, cs = solve.state, primed.base
    assert np.abs(st.Zphi).max() > 2.0  # the clamp bites
    X = st.X
    alpha_x = path_array((12, 64, 10))
    alpha_q = np.empty((12, 10))
    for k in range(10):
        xk = X[:, :, k]
        uk = st.u(k, X)
        qmid = 0.5 * (st.qf[:, k] + st.qb[:, k])[:, None]
        zk = st.Zphi[:, k][:, None]
        feats = conditional_features(xk)
        alpha_x[:, :, k] = cs.F(xk, qmid, uk, zk, feats)
        alpha_q[:, k] = cs.Hz(qmid, zk, feats)[:, 0]
    got = picard_control(cs, st)
    assert np.array_equal(got.alpha_x, alpha_x) and np.array_equal(got.alpha_q, alpha_q)
    assert got.alpha_x.strides == alpha_x.strides
    # U and the slice of all steps hold the bits of the u(k) slabs
    U, u_steps = st.U, st.u(slice(None), X)
    for k in range(11):
        assert np.array_equal(U[:, :, k], st.u(k, X)), k
        assert k == 10 or np.array_equal(u_steps[k], st.u(k, X)), k


def old_picard_loop(op, tol, max_iter):
    """The loop `picard_solve` ran before Picard was a plan, kept as the
    reference: (converged, diverged, sweeps, reason, last solve)."""
    control = op.zero()
    distances = []
    solve = None
    for sweep in range(1, max_iter + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                solve = decoupled_solve(control, op.primed, op.noise, op.init, op.basis, op.grid)
        except SimulationError:
            return False, True, sweep, "sweep produced non-finite values (no contraction)", solve
        new_control = picard_control(op.primed.base, solve.state)
        distances = [*distances[-2:], norm_T(new_control - control, op.grid)]
        control = new_control
        if distances[-1] <= tol:
            return True, False, sweep, "", solve
        if len(distances) == 3 and distances[2] > distances[1] > distances[0]:
            return False, True, sweep, "successive-sweep distance increased over 3 sweeps", solve
    return False, False, max_iter, "", solve


def picard_operator(horizon, steps, m, p, seed, params=CONE, constants=None, q0_std=0.0):
    constants = constants or ModelConstants(sigma=0.5, sigma0=0.5)
    grid = build_grid(horizon, steps)
    noise = sample_noise(grid, m, p, seed=seed)
    init = sample_initial(m, p, seed=seed, x_mean=1.0, x_std=0.3, q0=1.0, q0_std=q0_std)
    cs = make_zero_model(constants) if params is None else make_lq_model(params, constants)
    return FbsdeOperator(split_q(cs), grid, noise, init, RegressionBasis())


def assert_same_last_solve(got, want):
    """A `PicardResult`'s state against the reference's last solve: the
    state's arrays, its X, and the bits of the control it was solved at."""
    if want is None:
        assert got is None
        return
    st = want.state
    for name in ("X0", "U_coef", "U_T", "qf", "qb", "phi", "Zphi"):
        assert np.array_equal(getattr(got, name), getattr(st, name)), name
    assert np.array_equal(got.X, st.X)
    assert np.array_equal(got.control.alpha_x, st.control.alpha_x)
    assert np.array_equal(got.control.alpha_q, st.control.alpha_q)


# the problems of the Picard tests above, the short horizon at a smaller
# size, plus a clamped one whose distance grows and one stopped by the cap
PICARD_PROBLEMS = {
    "zero-model": (
        lambda: picard_operator(1.0, 5, 4, 8, 0, params=None, constants=ModelConstants(sigma=0.1, sigma0=0.1)),
        1e-9, 40,
    ),
    "short-horizon": (lambda: picard_operator(0.25, 20, 12, 64, 11, q0_std=0.1), 1e-8, 30),
    "divergent-horizon": (
        lambda: picard_operator(
            5.0, 60, 8, 64, 3,
            params=LQParams(c1=1.0, c2=0.8, c3=0.5, g1=1.0, g2=0.5, b=1.0, r1=0.4, r2=0.4, p1=1.0, p2=0.3),
            constants=ModelConstants(sigma=0.2, sigma0=0.05),
        ),
        1e-8, 25,
    ),
    "late-overflow": (lambda: picard_operator(2.0, 10, 12, 64, 3), 5e-3, 25),
    "growing-distance": (lambda: picard_operator(2.0, 10, 12, 64, 3, constants=ModelConstants(clamp_m=2.0)), 5e-3, 25),
    "sweep-cap": (lambda: picard_operator(0.25, 20, 12, 64, 11, q0_std=0.1), 1e-8, 3),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergent problems overflow on purpose
@pytest.mark.parametrize("name", list(PICARD_PROBLEMS))
def test_picard_solve_returns_what_the_old_loop_returned(name):
    make, tol, max_iter = PICARD_PROBLEMS[name]
    op = make()
    converged, diverged, sweeps, reason, solve = old_picard_loop(op, tol, max_iter)
    res = picard_solve(op, tol=tol, max_iter=max_iter)
    assert (res.converged, res.diverged, res.sweeps, res.reason) == (converged, diverged, sweeps, reason)
    assert_same_last_solve(res.state, solve)


def test_picard_problems_cover_every_outcome():
    outcomes = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for make, tol, max_iter in PICARD_PROBLEMS.values():
            converged, diverged, sweeps, reason, solve = old_picard_loop(make(), tol, max_iter)
            outcomes.add((converged, diverged, reason, solve is None))
    assert outcomes == {
        (True, False, "", False),
        (False, False, "", False),
        (False, True, "sweep produced non-finite values (no contraction)", True),
        (False, True, "sweep produced non-finite values (no contraction)", False),
        (False, True, "successive-sweep distance increased over 3 sweeps", False),
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the failing instances overflow on purpose
def test_a_picard_run_in_the_lockstep_returns_what_it_returns_alone(monkeypatch):
    # Picard runs share each round's stacked solve with EG runs of alike
    # 12x64x10 instances, one of which fails and sends that round's solves
    # through their own: each Picard run returns what `picard_solve` does
    ops = [picard_operator(horizon, 10, 12, 64, seed) for seed, horizon in enumerate((0.5, 1.0, 1.0, 0.25, 8.0))]
    eg = ExtragradientConfig(gamma=0.1, n_max=3)
    failing = ExtragradientConfig(gamma=50.0, n_max=3)
    solo_eg = {i: run_extragradient(ops[i].zero, config, ops[i]) for i, config in ((0, eg), (1, failing))}
    assert solo_eg[1].stop_reason == "non_finite"
    solo_picard = {i: picard_solve(ops[i], tol=1e-6, max_iter=6) for i in (2, 3, 4)}
    assert {solo_picard[i].reason for i in (2, 3, 4)} == {
        "", "successive-sweep distance increased over 3 sweeps", "sweep produced non-finite values (no contraction)"
    }

    stacks = []
    real = extragradient_module.evaluate_many
    monkeypatch.setattr(extragradient_module, "evaluate_many", lambda o, c: stacks.append(len(o)) or real(o, c))
    jobs = [(i, ops[i], extragradient_plan(ops[i].zero, config, ops[i])) for i, config in ((0, eg), (1, failing))]
    views = {i: StateOperator.of(ops[i]) for i in (2, 3, 4)}
    jobs += [(i, view, picard_plan(view, 1e-6, 6)) for i, view in views.items()]
    got = dict(run_lockstep(jobs))
    assert stacks[0] == 5
    for i, want in solo_eg.items():
        assert (got[i].residuals, got[i].stop_reason, got[i].evaluations) == (
            want.residuals, want.stop_reason, want.evaluations
        )
    for i, want in solo_picard.items():
        res = got[i]
        assert (res.converged, res.diverged, res.sweeps, res.reason) == (
            want.converged, want.diverged, want.sweeps, want.reason
        )
        if want.state is None:
            assert res.state is None
            continue
        for name in ("X0", "U_coef", "U_T", "qf", "qb", "phi", "Zphi"):
            assert np.array_equal(getattr(res.state, name), getattr(want.state, name)), name
        assert np.array_equal(res.state.control.alpha_x, want.state.control.alpha_x)
        assert np.array_equal(res.state.X, want.state.X)


def test_a_stacked_state_is_the_solo_state_copied_out():
    ops = [picard_operator(horizon, 10, 12, 64, seed) for seed, horizon in enumerate((0.5, 1.0))]
    views = [StateOperator.of(op) for op in ops]
    controls = [op.random_control(np.random.default_rng(i), 0.3) for i, op in enumerate(ops)]
    states = extragradient_module.evaluate_many(views, controls)
    for view, control, state in zip(views, controls, states):
        solo = view(control)
        assert state.control is None and state.noise is None
        assert state.primed is view.primed and state.grid is view.grid
        for name in ("X0", "U_coef", "U_T", "qf", "qb", "phi", "Zphi"):
            assert np.array_equal(getattr(state, name), getattr(solo, name)), name
            assert getattr(state, name).base is None, name  # a copy, not a view of the stack
