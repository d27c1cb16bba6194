import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majorminor.extragradient as extragradient_module
from majorminor.cli import build_problem, parse_config
from majorminor.ensembles import ControlField, conditional_features
from majorminor.errors import ConfigurationError, ContractError, RegressionError, SimulationError
from majorminor.extragradient import FbsdeOperator, run_lockstep, solve_stacked
from majorminor.grids import build_grid, path_array, sample_noise
from majorminor.models import (
    LQParams,
    ModelConstants,
    PrimedCoefficientSet,
    clamp_coefficients,
    make_lq_model,
    make_zero_model,
    split_q,
    theta_inverse,
)
from majorminor.oracle import oracle_induced_control, riccati_oracle
from majorminor.solver import (
    QUADRATIC_MIN_SCENARIOS,
    AffineDesign,
    NormalEquations,
    RegressionBasis,
    _model_calls,
    _scenario_q_derivatives,
    decoupled_solve,
    regress_conditional,
    sample_initial,
    simulate_forward,
    solve_backward,
)

CONE = LQParams(c1=1.0, c3=0.5, g1=1.0, b=1.0, p1=1.0)


def make_setup(m=4, p=16, n=5, horizon=1.0, seed=0, sigma=0.5, sigma0=0.5, model=None):
    grid = build_grid(horizon, n)
    noise = sample_noise(grid, m, p, seed=seed)
    constants = ModelConstants(sigma=sigma, sigma0=sigma0)
    cs = model if model is not None else make_lq_model(CONE, constants)
    primed = split_q(cs)
    init = sample_initial(m, p, seed=seed, x_mean=1.0, x_std=0.5, q0=1.0)
    return grid, noise, primed, init


def test_forward_zero_control_zero_noise_constant():
    grid, noise, primed, init = make_setup(sigma=0.0, sigma0=0.0, model=make_zero_model())
    control = ControlField.zeros(4, 16, 5)
    X, qf = simulate_forward(control, noise, primed, init, grid)
    assert np.allclose(X, X[:, :, :1])
    assert np.allclose(qf, qf[:, :1])


def test_forward_constant_drift_exact_mean():
    grid, noise, primed, init = make_setup(m=8, p=64, n=10)
    c = 0.37
    control = ControlField(np.full((8, 64, 10), c), np.zeros((8, 10)))
    X, _ = simulate_forward(control, noise, primed, init, grid)
    # Euler is exact for constant drift; the Brownian increments average out
    # exactly in the ensemble mean only in expectation, so subtract them.
    drift_free = X[:, :, -1] - np.sqrt(2 * 0.5) * noise.dB.sum(axis=2)
    assert np.allclose(drift_free, init.X0 - c * grid.horizon)


def test_forward_rejects_non_finite_control():
    grid, noise, primed, init = make_setup()
    alpha_x = np.zeros((4, 16, 5))
    alpha_x[0, 0, 3] = np.nan
    with pytest.raises(SimulationError) as err:
        simulate_forward(ControlField(alpha_x, np.zeros((4, 5))), noise, primed, init, grid)
    assert err.value.step == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the sweep overflows on purpose
def test_a_finite_control_whose_sum_overflows_is_not_a_non_finite_drift():
    grid, noise, primed, init = make_setup()
    control = ControlField(np.full((4, 16, 5), -1e308), np.zeros((4, 5)))
    assert not np.isfinite(control.alpha_x.sum())
    # the forward pass runs; the sweep reports the overflow
    with pytest.raises(SimulationError, match="backward sweep produced non-finite values") as err:
        decoupled_solve(control, primed, noise, init, RegressionBasis(), grid)
    assert err.value.step is None


def test_regress_affine_targets_zero_residual():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 1))
    design = np.concatenate([np.ones((40, 1)), x], axis=1)
    targets = 3.0 * x[:, 0] - 1.5
    fit = regress_conditional(design, targets, ridge=0.0)
    assert np.max(np.abs(fit.residuals)) < 1e-12
    assert fit(design) == pytest.approx(targets)


def test_regress_constant_target():
    design = np.concatenate([np.ones((10, 1)), np.linspace(-1, 1, 10)[:, None]], axis=1)
    fit = regress_conditional(design, np.full(10, 5.0), ridge=0.0)
    assert np.allclose(fit.fitted, 5.0)


def test_regress_quadratic_on_symmetric_cloud():
    # hand solve on {-1, 0, 1}: slope 0, intercept = sample second moment 2/3
    x = np.array([-1.0, 0.0, 1.0])
    design = np.stack([np.ones(3), x], axis=1)
    fit = regress_conditional(design, x**2, ridge=0.0)
    assert fit.coef[0] == pytest.approx(2.0 / 3.0)
    assert fit.coef[1] == pytest.approx(0.0)


def test_regress_rank_deficient_without_ridge():
    design = np.ones((8, 2))  # duplicated constant column
    with pytest.raises(RegressionError):
        regress_conditional(design, np.ones(8), ridge=0.0)
    fit = regress_conditional(design, np.ones(8), ridge=1e-8)
    assert np.allclose(fit.fitted, 1.0, atol=1e-6)


def loo_residuals(design, targets, ridge):
    """Leave-one-out residuals e/(1-h) of the ridged fit of targets on
    design, h clipped at 0.8: the arithmetic of the sweep's carrier fits,
    and the slab-level reference of `AffineDesign.loo_divisor`."""
    eq = NormalEquations(design, ridge)
    resid = eq.fit(targets).residuals
    h = eq.leverage()
    return resid / (1.0 - (h if resid.ndim == h.ndim else h[..., None]))


def random_problem(seed, batch, n, k, r):
    """Constant column plus Gaussian features, and r Gaussian targets."""
    rng = np.random.default_rng(seed)
    design = np.concatenate([np.ones((*batch, n, 1)), rng.standard_normal((*batch, n, k - 1))], axis=-1)
    return design, rng.standard_normal((*batch, n, r))


fit_shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 30),
    k=st.integers(1, 4),
    r=st.integers(1, 3),
)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 4), ridge=st.sampled_from([0.0, 1e-8, 1e-2]), **fit_shapes)
def test_regress_batched_equals_loop_of_fits(seed, batch, n, k, r, ridge):
    design, targets = random_problem(seed, (batch,), n, k, r)
    fit = regress_conditional(design, targets, ridge)
    loo = loo_residuals(design, targets, ridge)
    for b in range(batch):
        one = regress_conditional(design[b], targets[b], ridge)
        np.testing.assert_allclose(fit.coef[b], one.coef, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fit.fitted[b], one.fitted, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(loo[b], loo_residuals(design[b], targets[b], ridge), rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(ridge=st.sampled_from([0.0, 1e-8, 1e-2]), **fit_shapes)
def test_regress_stacked_columns_equal_single_fits(seed, n, k, r, ridge):
    design, targets = random_problem(seed, (), n, k, r)
    fit = regress_conditional(design, targets, ridge)
    loo = loo_residuals(design, targets, ridge)
    for j in range(r):
        one = regress_conditional(design, targets[:, j], ridge)
        assert one.coef.shape == (k,) and one.residuals.shape == (n,)
        np.testing.assert_allclose(fit.coef[:, j], one.coef, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fit.residuals[:, j], one.residuals, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(loo[:, j], loo_residuals(design, targets[:, j], ridge), rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(**fit_shapes)
def test_regress_loo_matches_brute_force_without_ridge(seed, n, k, r):
    design, targets = random_problem(seed, (), n, k, r)
    loo = loo_residuals(design, targets, ridge=0.0)
    leverage = np.einsum("nk,kn->n", design, np.linalg.pinv(design))
    for i in np.nonzero(leverage < 0.8)[0]:
        rest = np.arange(n) != i
        held_out = regress_conditional(design[rest], targets[rest], ridge=0.0)
        np.testing.assert_allclose(loo[i], targets[i] - held_out(design[i]), rtol=1e-7, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 3), ridge=st.sampled_from([0.0, 1e-8, 1e-2]), **fit_shapes)
def test_regress_equivariant_under_row_permutation(seed, batch, n, k, r, ridge):
    design, targets = random_problem(seed, (batch,), n, k, r)
    perm = np.random.default_rng(seed + 1).permutation(n)
    fit = regress_conditional(design, targets, ridge)
    moved = regress_conditional(design[:, perm], targets[:, perm], ridge)
    np.testing.assert_allclose(moved.coef, fit.coef, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(moved.fitted, fit.fitted[:, perm], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        loo_residuals(design[:, perm], targets[:, perm], ridge),
        loo_residuals(design, targets, ridge)[:, perm],
        rtol=1e-9,
        atol=1e-12,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 4),
    n=st.integers(4, 40),
    shift=st.floats(-3.0, 3.0),
    spread=st.floats(0.1, 3.0),
    ridge=st.sampled_from([0.0, 1e-8, 1e-2]),
    outlier=st.booleans(),
)
def test_affine_design_matches_regress_conditional(seed, batch, n, shift, spread, ridge, outlier):
    rng = np.random.default_rng(seed)
    x = shift + spread * rng.standard_normal((batch, n))
    if outlier:
        # one particle far out: its leverage passes the 0.8 clip
        x[:, -1] = shift + 30.0 * spread
    y = rng.standard_normal() * x + rng.standard_normal((batch, n))
    design_ref = np.stack([np.ones_like(x), x], axis=-1)
    ref = regress_conditional(design_ref, y, ridge)
    tol = dict(rtol=1e-10, atol=1e-10 * np.abs(y).max())
    # the solver passes the sums it computed for all steps at once
    for design in (AffineDesign(x, ridge), AffineDesign(x, ridge, x.sum(axis=-1), (x * x).sum(axis=-1))):
        coef = design.coef_from_sums(design.sums(y))
        np.testing.assert_allclose(coef, ref.coef, **tol)
        fitted = design(coef)
        np.testing.assert_allclose(fitted, ref.fitted, **tol)
        divisor = design.loo_divisor()
        np.testing.assert_allclose((y - fitted) / divisor, loo_residuals(design_ref, y, ridge), **tol)
        if outlier and ridge < 1e-2:
            assert np.all(divisor[:, -1] == 0.2)
    # fits that share the design take their sums with a further leading axis
    both = design.coef_from_sums(np.stack([design.sums(y), design.sums(2.0 * y)]))
    np.testing.assert_allclose(both, [coef, 2.0 * coef], **tol)


@settings(max_examples=30, deadline=None)
@given(value=st.floats(-1e3, 1e3), n=st.integers(1, 40))
def test_affine_design_rank_deficient_without_ridge(value, n):
    with pytest.raises(RegressionError):
        AffineDesign(np.full((3, n), value), ridge=0.0)


def test_zero_model_solve_all_zero():
    grid, noise, primed, init = make_setup(model=make_zero_model(ModelConstants(sigma=0.3, sigma0=0.4)))
    control = ControlField.zeros(4, 16, 5)
    out = decoupled_solve(control, primed, noise, init, RegressionBasis(), grid)
    assert np.allclose(out.state.U, 0.0)
    assert np.allclose(out.state.phi, 0.0)
    assert np.allclose(out.state.Zphi, 0.0, atol=1e-10)


def test_martingale_phi_recovers_forward_copy():
    # psi(q) = q, all drivers zero: phi_k = qf_k and Zphi ~ 1
    constants = ModelConstants(sigma=0.0, sigma0=0.5)
    cs = replace(make_zero_model(constants), psi=lambda q, f: q.copy())
    grid, noise, primed, init = make_setup(m=512, p=4, n=4, model=cs)
    control = ControlField.zeros(512, 4, 4)
    out = decoupled_solve(control, primed, noise, init, RegressionBasis(), grid)
    # phi_k = E[qf_T | F0_k] = qf_k up to the cross-scenario regression noise,
    # which scales like sqrt(2 sigma0 dt) * sqrt(k_features / M) per step
    per_step = np.sqrt(2 * 0.5 * grid.dt) * np.sqrt(4 / 512)
    tol = 5 * per_step * np.sqrt(grid.steps)
    assert np.max(np.abs(out.state.phi - out.state.qf)) < tol
    # in-sample regression slopes carry O(1/sqrt(M)) noise per step, and the
    # chi-square control variate has no prior at the terminal step
    assert abs(out.state.Zphi.mean() - 1.0) < 0.05
    assert np.abs(out.state.Zphi.mean(axis=0) - 1.0).max() < 0.15
    assert np.abs(out.state.Zphi - 1.0).max() < 0.6


def test_gaussian_projection_affine_terminal():
    # g = g1 x, zero drivers, alpha = 0: U_k tracks g1 * X_k
    params = LQParams(g1=0.8)
    constants = ModelConstants(sigma=0.5, sigma0=0.5)
    cs = make_lq_model(params, constants)
    grid, noise, primed, init = make_setup(m=4, p=4000, n=10, model=cs)
    control = ControlField.zeros(4, 4000, 10)
    out = decoupled_solve(control, primed, noise, init, RegressionBasis(), grid)
    err = np.abs(out.state.U[:, :, 0] - 0.8 * out.state.X[:, :, 0])
    assert err.max() < 0.8 * 10 * 3.0 / np.sqrt(4000)


def test_terminal_consistency_exact():
    grid, noise, primed, init = make_setup()
    control = ControlField.zeros(4, 16, 5)
    out = decoupled_solve(control, primed, noise, init, RegressionBasis(), grid)
    feats = conditional_features(out.state.X[:, :, -1])
    g_val = primed.g(out.state.X[:, :, -1], out.state.qf[:, -1][:, None], feats)
    psi_val = primed.psi(out.state.qf[:, -1][:, None], feats)[:, 0]
    assert np.array_equal(out.state.U[:, :, -1], g_val)
    assert np.array_equal(out.state.phi[:, -1], psi_val)
    assert np.array_equal(out.state.qb[:, -1], out.state.qf[:, -1])


def test_scenario_quantities_have_no_particle_axis():
    grid, noise, primed, init = make_setup()
    out = decoupled_solve(ControlField.zeros(4, 16, 5), primed, noise, init, RegressionBasis(), grid)
    assert out.state.phi.shape == (4, 6)
    assert out.state.qb.shape == (4, 6)
    assert out.state.Zphi.shape == (4, 5)
    assert out.theta_H.shape == (4, 5)


def test_clamp_respected_by_coefficient_evaluations():
    # wrap a clamped set with a recorder on the z argument
    seen = []
    constants = ModelConstants(sigma=0.5, sigma0=2.0)
    cs = make_lq_model(LQParams(c1=1.0, g1=1.0, b=1.0, p1=4.0), constants)
    clamped = clamp_coefficients(cs, 0.05)
    inner_lh = clamped.LH

    def spy_lh(q, z, f):
        seen.append(float(np.max(np.abs(np.clip(z, -0.05, 0.05)))))
        return inner_lh(q, z, f)

    from dataclasses import replace

    spied = replace(clamped, LH=spy_lh)
    primed = split_q(spied)
    grid = build_grid(1.0, 6)
    noise = sample_noise(grid, 8, 32, seed=2)
    init = sample_initial(8, 32, seed=2, x_mean=1.0, x_std=0.5, q0=2.0)
    decoupled_solve(ControlField.zeros(8, 32, 6), primed, noise, init, RegressionBasis(), grid)
    assert seen and max(seen) <= 0.05 + 1e-15


def test_quadratic_basis_needs_enough_scenarios():
    grid, noise, primed, init = make_setup(m=12)
    basis = RegressionBasis(quadratic=True)
    with pytest.raises(ConfigurationError, match=f">= {QUADRATIC_MIN_SCENARIOS} scenarios, got 12"):
        decoupled_solve(ControlField.zeros(12, 16, 5), primed, noise, init, basis, grid)


@pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf])
def test_regression_basis_rejects_a_ridge_that_is_not_finite_and_nonnegative(ridge):
    with pytest.raises(ConfigurationError) as err:
        RegressionBasis(ridge=ridge)
    assert err.value.violations == [f"ridge must be finite and >= 0, got {ridge}"]


def test_sample_initial_deterministic():
    a = sample_initial(3, 5, seed=9, x_mean=0.0, x_std=1.0, q0=1.0, q0_std=0.2)
    b = sample_initial(3, 5, seed=9, x_mean=0.0, x_std=1.0, q0=1.0, q0_std=0.2)
    assert np.array_equal(a.X0, b.X0)
    assert np.array_equal(a.q0, b.q0)
    c = sample_initial(3, 5, seed=10, x_mean=0.0, x_std=1.0, q0=1.0, q0_std=0.2)
    assert not np.array_equal(a.X0, c.X0)


def test_decoupled_solve_leaves_noise_bundle_unchanged():
    grid, noise, primed, init = make_setup()
    decoupled_solve(ControlField.zeros(4, 16, 5), primed, noise, init, RegressionBasis(), grid)
    assert set(vars(noise)) == {f.name for f in fields(noise)}


def test_package_path_arrays_are_time_major():
    grid, noise, primed, init = make_setup()
    op = FbsdeOperator(primed, grid, noise, init, RegressionBasis())
    probe = op.random_control(np.random.default_rng(5), 0.3)
    sol = riccati_oracle(CONE, primed.constants, grid)
    oracle_control, _ = oracle_induced_control(sol, primed.base, grid, noise, init)
    X, _ = simulate_forward(probe, noise, primed, init, grid)
    arrays = {
        "sample_noise": noise.dB,
        "ControlField.zeros": ControlField.zeros(4, 16, 5).alpha_x,
        "random_control": probe.alpha_x,
        "oracle_induced_control": oracle_control.alpha_x,
        "simulate_forward": X,
    }
    for name, a in arrays.items():
        assert np.moveaxis(a, 2, 0).flags.c_contiguous, name
    # probes keep the (M, P, N) draw order of their seed
    draw = 0.3 * np.random.default_rng(5).standard_normal((4, 16, 5))
    assert np.array_equal(probe.alpha_x, draw)


def test_decoupled_solve_independent_of_control_layout():
    grid, noise, primed, init = make_setup()
    rng = np.random.default_rng(11)
    c_order = ControlField(0.5 * rng.standard_normal((4, 16, 5)), 0.5 * rng.standard_normal((4, 5)))
    alpha_x = path_array((4, 16, 5))
    alpha_x[...] = c_order.alpha_x
    time_major = ControlField(alpha_x, c_order.alpha_q)
    a, b = (
        decoupled_solve(c, primed, noise, init, RegressionBasis(), grid) for c in (c_order, time_major)
    )
    assert np.array_equal(a.theta_F, b.theta_F) and np.array_equal(a.theta_H, b.theta_H)
    for name in ("X", "U", "qf", "qb", "phi", "Zphi"):
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name)), name


# v at the 12x64x10 cone config, seed 1234, recorded before the within-scenario
# fits became closed-form: both block norms, then v.alpha_x at [0,0,0],
# [5,17,9], [11,63,4] and v.alpha_q at [0,0], [7,9]
GOLDEN_V = {
    "zero": (
        172.69050115530268, 31.75750241642191, -1.8687472468757214, -0.8331898357941444,
        -1.5027521190169995, -0.8663264878131446, -2.449911729785598,
    ),
    "random": (
        195.47752953709147, 89.2173332538159, -1.7857200739837635, -1.479579136772469,
        -1.4135624455433862, -4.910651694176658, 0.061640194651006064,
    ),
}


# the solve behind that v, recorded before the states became scalar: the
# norms of U, phi, qb, Zphi, theta_F and theta_H
GOLDEN_SOLVE = {
    "zero": (
        177.20622456950844, 18.128645603030176, 13.920538777973121, 26.209108547678795,
        0.0, 56.894813183529735,
    ),
    "random": (
        179.69641737887275, 204.42926627993498, 14.597975115554583, 89.4181547101618,
        87.75298951416634, 179.63968636046636,
    ),
}


@pytest.mark.parametrize("start", sorted(GOLDEN_V))
def test_operator_matches_recorded_values(start):
    doc = {
        "model": {"kind": "lq", "params": {"c1": 1.0, "c3": 0.5, "g1": 1.0, "b": 1.0, "p1": 1.0}},
        "grid": {"steps": 10},
        "ensemble": {"scenarios": 12, "particles": 64},
        "seed": 1234,
    }
    op = build_problem(parse_config(json.dumps(doc)))[0]
    alpha = op.zero() if start == "zero" else op.random_control(np.random.default_rng(0))
    solve = op.solve(alpha)
    v = op.value_in(solve)
    got = (
        np.linalg.norm(v.alpha_x), np.linalg.norm(v.alpha_q),
        v.alpha_x[0, 0, 0], v.alpha_x[5, 17, 9], v.alpha_x[11, 63, 4],
        v.alpha_q[0, 0], v.alpha_q[7, 9],
    )
    np.testing.assert_allclose(got, GOLDEN_V[start], rtol=1e-9, atol=0)
    st = solve.state
    blocks = (st.U, st.phi, st.qb, st.Zphi, solve.theta_F, solve.theta_H)
    np.testing.assert_allclose([np.linalg.norm(b) for b in blocks], GOLDEN_SOLVE[start], rtol=1e-9, atol=0)


# v of the stack of `stack_operators(12, 64, 10, False)` at the random
# controls of `rng(i)` at scale 0.5, recorded before the stack's model maps
# were called once per group: per instance, the entries of GOLDEN_V
GOLDEN_STACK_V = (
    (
        136.92050829560188, 24.631687010794906, 0.003075289399393097, -1.973436142107666,
        0.09800635830804712, -1.1192748224734514, -4.378867578544923,
    ),
    (
        176.9864985195118, 30.950522884884293, -2.5829531970276527, -2.4122480591155635,
        -1.6585243994828271, -2.1445249137246463, -1.2972797822025786,
    ),
    (
        277.2484192182022, 32.53654825353991, -1.6053852767800623, -0.8089826248748117,
        -9.102749092901519, -1.451405629612751, 5.366107349068947,
    ),
)
# the norm of its se_zphi
GOLDEN_STACK_SE_ZPHI = 4.378738759401032


def test_stacked_operator_matches_recorded_values():
    ops = stack_operators(12, 64, 10, False)
    controls = [op.random_control(np.random.default_rng(i), 0.5) for i, op in enumerate(ops)]
    solve = solve_stacked(ops, controls)
    for i, op in enumerate(ops):
        v = op.value_in(solve, (i,))
        got = (
            np.linalg.norm(v.alpha_x), np.linalg.norm(v.alpha_q),
            v.alpha_x[0, 0, 0], v.alpha_x[5, 17, 9], v.alpha_x[11, 63, 4],
            v.alpha_q[0, 0], v.alpha_q[7, 9],
        )
        np.testing.assert_allclose(got, GOLDEN_STACK_V[i], rtol=1e-9, atol=0)
    assert list(solve.diagnostics) == ["se_zphi"]
    np.testing.assert_allclose(np.linalg.norm(solve.diagnostics["se_zphi"]), GOLDEN_STACK_SE_ZPHI, rtol=1e-9, atol=0)


def stack_operators(m, p, n, quadratic, edit_middle=None):
    """Three instances of one size that differ in seed, dt and sigma0;
    `edit_middle` edits the config of the second one."""
    ops = []
    for seed, horizon, sigma0 in ((1, 0.5, 0.25), (2, 1.0, 1.0), (3, 2.0, 2.0)):
        doc = {
            "model": {"kind": "lq", "params": {"c1": 1.0, "c3": 0.5, "g1": 1.0, "b": 1.0, "p1": 1.0}},
            "constants": {"sigma0": sigma0},
            "grid": {"horizon": horizon, "steps": n},
            "ensemble": {"scenarios": m, "particles": p},
            "basis": {"quadratic": quadratic},
            "seed": seed,
        }
        if seed == 2 and edit_middle is not None:
            edit_middle(doc)
        ops.append(build_problem(parse_config(doc))[0])
    return ops


@pytest.mark.parametrize("start", ["zero", "random"])
@pytest.mark.parametrize("size", [(12, 64, 10, False), (32, 100, 20, True)], ids=["12x64x10", "32x100x20-quadratic"])
def test_stacked_solve_is_bit_identical_to_solo_solves(size, start):
    ops = stack_operators(*size)
    controls = [
        op.zero() if start == "zero" else op.random_control(np.random.default_rng(i), 0.5) for i, op in enumerate(ops)
    ]
    stacked = solve_stacked(ops, controls)
    for i, (op, control) in enumerate(zip(ops, controls)):
        solo = decoupled_solve(control, op.primed, op.noise, op.init, op.basis, op.grid)
        for name in ("X", "U", "qf", "qb", "phi", "Zphi"):
            assert np.array_equal(getattr(stacked.state, name)[i], getattr(solo.state, name)), name
        assert np.array_equal(stacked.theta_F[i], solo.theta_F) and np.array_equal(stacked.theta_H[i], solo.theta_H)
        for name, values in solo.diagnostics.items():
            assert np.array_equal(stacked.diagnostics[name][i], values), name
        v_stacked, v_solo = op.value_in(stacked, (i,)), op(control)
        assert np.array_equal(v_stacked.alpha_x, v_solo.alpha_x) and np.array_equal(v_stacked.alpha_q, v_solo.alpha_q)


def reference_sweep(op, control):
    """The backward sweep of one instance with its within-scenario fits on
    (M, P) slabs, as the sweep computed them before it fitted from sums:
    the leave-one-out residuals of the next U, the U target dt G + u_next -
    mart_u and the minor-integrand target u_resid dB / dt are formed
    particle by particle and fitted on the design [1, x] by
    `regress_conditional`.  The scenario fits are the sweep's own.  For an
    affine basis below `QUADRATIC_MIN_SCENARIOS` scenarios and sigma0 > 0;
    returns U_coef, Zphi, gap_F and theta_H, time-major."""
    primed, grid, basis, ridge = op.primed, op.grid, op.basis, op.basis.ridge
    constants = primed.constants
    X, qf = simulate_forward(control, op.noise, primed, op.init, grid)
    m, p, n = control.alpha_x.shape
    assert not basis.quadratic and m < QUADRATIC_MIN_SCENARIOS and constants.sigma0 > 0
    dt, sq, lam = grid.dt, math.sqrt(2.0 * constants.sigma0), constants.discount
    x, dB, ax = (np.moveaxis(a, -1, 0) for a in (X, op.noise.dB, control.alpha_x))
    dW0, aq, q = (np.moveaxis(a, -1, 0) for a in (op.noise.dW0, control.alpha_q, qf[:, :n]))
    mean_x, mean_a = x[:n].mean(axis=-1), ax.mean(axis=-1)
    S = basis.scenario_design(q, mean_x, mean_a)
    eq = NormalEquations(S, ridge)
    loo_s = 1.0 - eq.leverage()
    chi_abs = dW0 * dW0 - dt
    chi, curv = chi_abs / dt, constants.sigma0 * chi_abs
    feats = conditional_features(x[n])
    u_next = primed.g(x[n], qf[:, n:], feats)
    carry = np.stack([primed.psi(qf[:, n:], feats)[:, 0], qf[:, n]], axis=-1)
    U_coef, gap = np.empty((n, m, 2)), np.empty((n, m, p))
    Zphi, theta_H = np.empty((n, m)), np.empty((n, m))
    coef_carry = coef_zw = coef_zb = None
    for k in range(n - 1, -1, -1):
        coef_cv = eq.coef(carry, (k,))
        coef_carry = coef_cv if coef_carry is None else coef_carry
        grad, hess = _scenario_q_derivatives(coef_carry, q[k], mean_x[k], mean_a[k])
        pred_z = grad * np.array([1.0, sq])
        pred_zw = S[k] @ coef_zw if coef_zw is not None else 0.0
        design = np.stack([np.ones((m, p)), x[k]], axis=-1)
        u_resid = loo_residuals(design, u_next, ridge)
        zt_phi = (carry - S[k] @ coef_cv)[:, 0] / loo_s[k] * dW0[k] / (sq * dt) - pred_z[:, 0] * chi[k]
        zt_w = u_resid.mean(axis=-1) * dW0[k] / dt - pred_zw * chi[k]
        coef_z = eq.coef(np.stack([zt_phi, zt_w], axis=-1), (k,))
        Zphi[k] = (S[k] @ coef_z)[:, 0]
        coef_zw = coef_z[:, 1]
        thF, thH, drv_u, lh, hz = _model_calls(
            primed, x[k], q[k][:, None], Zphi[k][:, None], ax[k], aq[k][:, None], mean_x[k][:, None]
        )
        theta_H[k] = thH[:, 0]
        mart_u = (pred_zw * dW0[k])[:, None]
        if coef_zb is not None:
            mart_u = mart_u + (coef_zb[:, :1] + coef_zb[:, 1:] * x[k]) * dB[k]
        targets_u = np.stack([dt * drv_u + u_next - mart_u, u_resid * dB[k] / dt], axis=-1)
        coef = regress_conditional(design, targets_u, ridge).coef  # (M, 2, 2)
        U_coef[k], coef_zb = coef[..., 0], coef[..., 1]
        u_next = U_coef[k][:, :1] + U_coef[k][:, 1:] * x[k]
        gap[k] = thF - u_next
        drv = np.stack([lh[:, 0] + lam * carry[:, 0], hz[:, 0]], axis=-1)
        mart = pred_z * dW0[k][:, None] * np.array([sq, 1.0])
        targets = dt * drv + carry - mart - curv[k][:, None] * hess[None, :]
        coef_carry = eq.coef(targets, (k,))
        carry = S[k] @ coef_carry
    return U_coef, Zphi, gap, theta_H


@pytest.mark.parametrize("stacked", [False, True], ids=["one-instance", "stack-of-three"])
def test_the_sweep_from_sums_matches_the_slab_level_fits(stacked):
    ops = stack_operators(12, 64, 10, False)
    controls = [op.random_control(np.random.default_rng(i), 0.5) for i, op in enumerate(ops)]
    if stacked:
        solve = solve_stacked(ops, controls)
        outputs = [
            (solve.state.U_coef[:, i], np.moveaxis(solve.state.Zphi[i], -1, 0), solve.gap_F[i], solve.theta_H[i])
            for i in range(len(ops))
        ]
    else:
        ops, controls = ops[:1], controls[:1]
        solve = ops[0].solve(controls[0])
        outputs = [(solve.state.U_coef, np.moveaxis(solve.state.Zphi, -1, 0), solve.gap_F, solve.theta_H)]
    for op, control, (U_coef, Zphi, gap_F, theta_H) in zip(ops, controls, outputs):
        ref = reference_sweep(op, control)
        got = (U_coef, Zphi, np.moveaxis(gap_F, -1, 0), np.moveaxis(theta_H, -1, 0))
        for name, a, b in zip(("U_coef", "Zphi", "gap_F", "theta_H"), got, ref):
            # gap_F = theta_F - u cancels to near 0 at some particles, so the
            # tolerance is also taken relative to each array's largest entry
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(), err_msg=name)


# configs that give the middle instance of a stack maps of its own
OTHER_MAPS = {
    "params": lambda doc: doc["model"].update(params={"c1": 2.0, "c2": 0.3, "c3": 0.5, "g1": 1.0, "b": 0.5, "r1": 0.2}),
    "clamp": lambda doc: doc["constants"].update(clamp_m=0.3),
    "zero": lambda doc: doc.update(model={"kind": "zero"}),
}


def value_plan(control):
    """A plan that asks for v at one control and returns it."""
    return (yield control)


@pytest.mark.parametrize("kind", sorted(OTHER_MAPS))
def test_a_stack_of_instances_with_different_maps_gives_each_its_solo_solve(kind, monkeypatch):
    ops = stack_operators(12, 64, 10, False, OTHER_MAPS[kind])
    # the outer instances share their maps, the middle one does not
    assert ops[0].primed.base.G is ops[2].primed.base.G is not ops[1].primed.base.G
    assert ops[0].primed.base.theta is ops[2].primed.base.theta is not ops[1].primed.base.theta
    assert ops[0].stack_key() == ops[2].stack_key() != ops[1].stack_key()
    controls = [op.random_control(np.random.default_rng(i), 0.5) for i, op in enumerate(ops)]
    # a stack is one model: a solve that mixes models is refused, not split
    with pytest.raises(ContractError, match="model maps"):
        solve_stacked(ops, controls)
    with pytest.raises(ContractError, match="model maps"):
        extragradient_module.evaluate_many(ops, controls)
    # run_lockstep stacks the instances of one model only
    stacks = []
    real = extragradient_module.evaluate_many

    def recording(stack, requests):
        stacks.append(sorted(ops.index(op) for op in stack))
        return real(stack, requests)

    monkeypatch.setattr(extragradient_module, "evaluate_many", recording)
    values = dict(run_lockstep((i, op, value_plan(c)) for i, (op, c) in enumerate(zip(ops, controls))))
    assert sorted(stacks) == [[0, 2], [1]]
    for i, (op, control) in enumerate(zip(ops, controls)):
        solo = op(control)
        assert np.array_equal(values[i].alpha_x, solo.alpha_x) and np.array_equal(values[i].alpha_q, solo.alpha_q)


def test_a_stack_calls_shared_maps_once_per_step(monkeypatch):
    calls = []
    gp = PrimedCoefficientSet.Gp

    def counted(self, *args):
        calls.append(args[0].shape)
        return gp(self, *args)

    monkeypatch.setattr(PrimedCoefficientSet, "Gp", counted)
    ops = stack_operators(12, 64, 10, False)
    solve_stacked(ops, [op.zero() for op in ops])
    # N calls, each on the three instances' scenarios side by side
    assert calls == [(3 * 12, 64)] * 10


def test_v_is_the_pair_inverse_minus_u_at_every_step_solo_and_stacked():
    ops = stack_operators(12, 64, 10, False)
    controls = [op.random_control(np.random.default_rng(i), 0.5) for i, op in enumerate(ops)]
    stacked = solve_stacked(ops, controls)
    for i, (op, control) in enumerate(zip(ops, controls)):
        solve = op.solve(control)
        v_solo = op.value_in(solve)
        st = solve.state
        assert v_solo.alpha_x is solve.gap_F  # the solo value is the solve's own path
        v_stacked = op.value_in(stacked, (i,))
        assert np.shares_memory(v_stacked.alpha_x, stacked.gap_F) is False
        for k in range(op.grid.steps):
            # the pair inverse recomputed at the solve's X, qf and Zphi and the control
            thF, _ = theta_inverse(
                op.primed, st.X[:, :, k], st.qf[:, k][:, None], st.Zphi[:, k][:, None],
                control.alpha_x[:, :, k], control.alpha_q[:, k][:, None],
            )
            gap = thF - st.u(k)
            assert np.array_equal(v_solo.alpha_x[:, :, k], gap), k
            assert np.array_equal(v_stacked.alpha_x[:, :, k], gap), k
            assert np.array_equal(stacked.state.u(k)[i], st.u(k)), k


@pytest.mark.parametrize("stack", [False, True], ids=["solo", "stacked"])
def test_U_path_is_the_slabs_u_k_and_the_terminal_slab(stack):
    ops = stack_operators(4, 16, 5, False)
    controls = [op.random_control(np.random.default_rng(i), 0.5) for i, op in enumerate(ops)]
    if stack:
        solve = solve_stacked(ops, controls)
        alpha_x = np.array([c.alpha_x for c in controls])
    else:
        op, control = ops[0], controls[0]
        solve = decoupled_solve(control, op.primed, op.noise, op.init, op.basis, op.grid)
        alpha_x = control.alpha_x
    st = solve.state
    n = ops[0].grid.steps
    U = st.U
    assert U.strides == path_array(U.shape).strides
    assert np.array_equal(U, np.stack([st.u(k) for k in range(n)] + [st.U_T], axis=-1))
    assert st.u(n) is st.U_T and st.u(-1) is st.U_T
    with pytest.raises(IndexError):
        st.u(n + 1)
    # theta_F = U + gap_F is the pair inverse, on the LQ cone the control
    # itself, up to rounding
    np.testing.assert_allclose(solve.theta_F, alpha_x, rtol=0, atol=1e-13 * np.abs(U).max())


@pytest.mark.parametrize("stack", [False, True], ids=["solo", "stacked"])
def test_state_X_is_the_forward_pass_run_again(stack):
    ops = stack_operators(4, 16, 5, False)
    controls = [op.random_control(np.random.default_rng(i), 0.5) for i, op in enumerate(ops)]
    if stack:
        solve = solve_stacked(ops, controls)
    else:
        op, control = ops[0], controls[0]
        solve = decoupled_solve(control, op.primed, op.noise, op.init, op.basis, op.grid)
    st = solve.state
    X = st.X
    for i, (op, control) in enumerate(zip(ops, controls if stack else controls[:1])):
        forward, _ = simulate_forward(control, op.noise, op.primed, op.init, op.grid)
        assert np.array_equal(X[i] if stack else X, forward)
    assert np.array_equal(st.X0, X[..., 0])
    for k in range(ops[0].grid.steps + 1):
        assert np.array_equal(st.u(k), st.u(k, X)), k


def test_the_sweep_writes_gap_F_over_the_forward_path_it_is_given():
    grid, noise, primed, init = make_setup()
    op = FbsdeOperator(primed, grid, noise, init, RegressionBasis())
    control = op.random_control(np.random.default_rng(3), 0.5)
    forward = simulate_forward(control, noise, primed, init, grid)
    X = forward[0]
    X_before = X.copy()
    solve = solve_backward(forward, control, primed, noise, RegressionBasis(), grid)
    # one particle output path: gap_F is slabs 1..N of X, and the state
    # keeps slab 0 of it
    assert np.shares_memory(solve.gap_F, X) and np.shares_memory(solve.state.X0, X)
    assert np.array_equal(X[:, :, 1:], solve.gap_F)
    assert np.array_equal(solve.state.X, X_before)
    assert np.array_equal(op.solve(control).gap_F, solve.gap_F)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the forward pass overflows on purpose
def test_a_finite_control_that_overflows_X_raises():
    grid, noise, primed, init = make_setup(horizon=10.0)
    alpha_x = np.zeros((4, 16, 5))
    alpha_x[0, 0, 0] = -1e308  # times dt = 2
    control = ControlField(alpha_x, np.zeros((4, 5)))
    assert not np.isfinite(simulate_forward(control, noise, primed, init, grid)[0]).all()
    with pytest.raises(SimulationError, match="backward sweep produced non-finite values"):
        decoupled_solve(control, primed, noise, init, RegressionBasis(), grid)
