import dataclasses
import tracemalloc

import numpy as np
import pytest

import majorminor.extragradient as extragradient_module
from majorminor.ensembles import ControlField
from majorminor.errors import ConfigurationError, SimulationError
from majorminor.extragradient import (
    _PROBE_REFINE,
    _PROBE_SCALE,
    _PROBE_SEED,
    LOCKSTEP_BYTES,
    ExtragradientConfig,
    FbsdeOperator,
    estimate_lipschitz_v,
    evaluate_many,
    extragradient_plan,
    extragradient_step,
    fit_geometric_rate,
    _instance_bytes,
    recover_phi_bar,
    run_extragradient,
    run_lockstep,
    solve_stacked,
)
from majorminor.grids import build_grid, sample_noise
from majorminor.models import LQParams, ModelConstants, make_lq_model, make_zero_model, split_q
from majorminor.oracle import oracle_induced_control, riccati_oracle
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


def assigned_gamma():
    config = ExtragradientConfig(n_max=5)
    config.gamma = 0.5
    return config


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: ExtragradientConfig(n_max=5, safety=-0.5), ConfigurationError, "safety must be positive, got -0.5"),
        (lambda: ExtragradientConfig(n_max=5, safety=0.0), ConfigurationError, "safety must be positive, got 0.0"),
        (lambda: ExtragradientConfig(n_max=5, safety=float("inf")), ConfigurationError, "safety must be finite, got inf"),
        (lambda: ExtragradientConfig(n_max=5, gamma=float("inf")), ConfigurationError, "gamma must be finite, got inf"),
        (lambda: ExtragradientConfig(n_max=5, gamma=float("nan")), ConfigurationError, "gamma must be positive, got nan"),
        (lambda: ExtragradientConfig(n_max=5, tol=-1e-3), ConfigurationError, "tol must be >= 0, got -0.001"),
        # with gamma set no probe runs, and probes=1 is still rejected
        (lambda: ExtragradientConfig(n_max=5, gamma=0.5, probes=1), ConfigurationError, "probes must be >= 2, got 1"),
        (assigned_gamma, dataclasses.FrozenInstanceError, "cannot assign to field 'gamma'"),
    ],
    ids=[
        "safety-negative", "safety-zero", "safety-inf", "gamma-inf", "gamma-nan", "tol-negative",
        "probes-one-with-gamma", "assigned-field",
    ],
)
def test_config_rejects_bad_keys_before_any_evaluation(make, error, message):
    calls = []
    op = ArrayOperator(lambda x: calls.append(1) or 1.7 * x, 3)
    with pytest.raises(error) as err:
        run_extragradient(np.ones(3), make(), op)
    assert calls == []
    assert getattr(err.value, "violations", [str(err.value)]) == [message]


def test_estimate_lipschitz_exact_for_linear():
    op = scaling_op(1.7)
    assert estimate_lipschitz_v(op, probes=4, seed=0) == pytest.approx(1.7, rel=1e-9)
    rot = rotation_op()
    assert estimate_lipschitz_v(rot, probes=4, seed=0) == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ConfigurationError):
        estimate_lipschitz_v(op, probes=1)


def probe_point(op, rng):
    """A probe point, drawn as the probe plan draws it."""
    if hasattr(op, "random_control"):
        return op.random_control(rng, _PROBE_SCALE)
    return _PROBE_SCALE * rng.standard_normal(op.dim)


def lipschitz_holding_every_point(op, probes):
    """The probe estimate of `estimate_lipschitz_v` and its number of
    evaluations, computed with every probe point, value and pair direction
    kept."""
    rng = np.random.default_rng(_PROBE_SEED)
    points = [probe_point(op, rng) for _ in range(probes)]
    values = [op(a) for a in points]
    evaluations = probes
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
        evaluations += 1
        norm_dv = np.sqrt(max(op.inner(dv, dv), 0.0))
        if norm_dv <= 1e-14:
            break
        best = max(best, float(norm_dv))
        best_dir = (1.0 / norm_dv) * dv
    return best, evaluations


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
    assert float(L_hat) == lipschitz_holding_every_point(op, 4)[0]


def test_extragradient_loop_holds_its_iterate_and_one_point():
    # numpy reports its buffers to tracemalloc.  Besides the solve that runs,
    # the loop holds its iterate and, during the trial solve, the trial
    # point: the peak reads 4.23 controls.  Keeping v at the iterate through
    # the trial solve read 5.28, and that with the start control held for the
    # whole run and a step's five arrays formed together, 6.30
    op = lq_operator(m=8, p=100, n=20, seed=2)[0]
    control_bytes = 8 * (8 * 100 * 20 + 8 * 20)
    config = ExtragradientConfig(gamma=0.1, n_max=4)
    tracemalloc.start()
    try:
        report = run_extragradient(op.zero(), config, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.evaluations == {"probe": 0, "iterate": 8}
    assert peak < 4.75 * control_bytes


def test_a_run_builds_its_start_after_its_probes():
    # numpy reports its buffers to tracemalloc.  A start given as op.zero is
    # built once the probes are done, so a one-iteration run that probes peaks
    # where the probes alone do (6.43 controls), solo and in lockstep; a start
    # built before the run and held through its probes reads 7.43
    op = lq_operator(m=8, p=100, n=20, seed=2)[0]
    control_bytes = 8 * (8 * 100 * 20 + 8 * 20)
    config = ExtragradientConfig(n_max=1)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / control_bytes
        finally:
            tracemalloc.stop()

    probes = peak(lambda: estimate_lipschitz_v(op, config.probes))
    solo = peak(lambda: run_extragradient(op.zero, config, op))
    lockstep = peak(lambda: dict(run_lockstep([(0, op, extragradient_plan(op.zero, config, op))])))
    assert solo < probes + 0.2 and lockstep < probes + 0.2
    # the start is the zero control either way
    want = run_extragradient(op.zero(), config, op)
    got = dict(run_lockstep([(0, op, extragradient_plan(op.zero, config, op))]))[0]
    assert got.residuals == want.residuals
    assert np.array_equal(got.final_alpha.alpha_x, want.final_alpha.alpha_x)


def linear_op(seed, dim):
    """A synthetic monotone operator x -> (I + K) x with K skew."""
    k = np.random.default_rng(seed).standard_normal((dim, dim))
    matrix = np.eye(dim) + (k - k.T)
    return ArrayOperator(lambda x: matrix @ x, dim)


@pytest.mark.parametrize("op", [
    lq_operator(m=12, p=64, n=10, seed=1234)[0],
    lq_operator(m=12, p=64, n=10, seed=1)[0],  # its probes reach 3.7e26
    linear_op(0, 6),
], ids=["lq-seed1234", "lq-seed1", "ndarray"])
def test_lipschitz_probes_drawn_again_give_the_held_points_bits(op):
    L_hat = estimate_lipschitz_v(op, probes=4)
    assert (float(L_hat), L_hat.evaluations) == lipschitz_holding_every_point(op, 4)
    assert L_hat.evaluations == 12


@pytest.mark.parametrize("scale", [1.0, 0.4])
def test_random_control_is_one_whole_draw_to_the_bit(scale):
    # drawn scenario by scenario into the path, it equals the one-shot draw
    # in (M, P, N) order and leaves the generator where that draw does
    op = lq_operator(m=4, p=16, n=10, seed=3)[0]
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = op.random_control(got_rng, scale)
    want_x = scale * want_rng.standard_normal((4, 16, 10))
    want_q = scale * want_rng.standard_normal((4, 10))
    assert np.array_equal(got.alpha_x, want_x) and np.array_equal(got.alpha_q, want_q)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("scale", [1.0, 0.4])
def test_random_difference_is_the_difference_of_two_draws_to_the_bit(scale):
    op = lq_operator(m=4, p=16, n=10, seed=3)[0]
    gens = [np.random.default_rng(seed) for seed in (11, 12, 11, 12)]
    got = op.random_difference(gens[0], gens[1], scale)
    want = op.random_control(gens[2], scale) - op.random_control(gens[3], scale)
    assert np.array_equal(got.alpha_x, want.alpha_x) and np.array_equal(got.alpha_q, want.alpha_q)
    assert [g.bit_generator.state for g in gens[:2]] == [g.bit_generator.state for g in gens[2:]]


def test_step_points_are_alpha_minus_gamma_v_to_the_bit():
    gamma = 0.3
    lq = lq_operator(m=12, p=64, n=10, seed=1234)[0]
    cases = [
        (lq, lq.random_control(np.random.default_rng(5), 0.5)),
        (linear_op(1, 5), np.random.default_rng(6).standard_normal(5)),
    ]
    for op, alpha in cases:
        alpha_half, alpha_next, v_n, v_half = extragradient_step(alpha, gamma, op)
        for point, v in ((alpha_half, v_n), (alpha_next, v_half)):
            want = alpha - gamma * v
            if isinstance(want, ControlField):
                assert np.array_equal(point.alpha_x, want.alpha_x)
                assert np.array_equal(point.alpha_q, want.alpha_q)
            else:
                assert np.array_equal(point, want)


def frozen(control):
    """The control with its arrays made read-only."""
    for a in (control.alpha_x, control.alpha_q) if isinstance(control, ControlField) else (control,):
        a.setflags(write=False)
    return control


class FrozenValues(FbsdeOperator):
    """An FBSDE operator whose values are read-only, solo and stacked."""

    def value_in(self, solve, slot=()):
        return frozen(super().value_in(solve, slot))


def test_plans_never_write_into_arrays_they_were_sent():
    # values and start points are read-only, so a plan that wrote into one
    # would raise; the probe and extragradient plans run alone and in lockstep
    linear = linear_op(2, 4)
    op = ArrayOperator(lambda x: frozen(linear(x)), 4)
    report = run_extragradient(frozen(np.ones(4)), ExtragradientConfig(n_max=5), op)
    assert report.evaluations == {"probe": 12, "iterate": 10}
    ops = []
    for seed in (2, 3):
        lq, grid, noise, init = lq_operator(m=8, p=32, n=10, seed=seed)
        ops.append(FrozenValues(lq.primed, grid, noise, init, lq.basis))
    config = ExtragradientConfig(n_max=3)
    reports = dict(run_lockstep((i, op, extragradient_plan(frozen(op.zero()), config, op)) for i, op in enumerate(ops)))
    assert [reports[i].evaluations for i in range(2)] == [{"probe": 12, "iterate": 6}] * 2
    assert not ops[1](ops[1].zero()).alpha_x.flags.writeable


def stack_sizes(monkeypatch) -> list:
    """The list that each `evaluate_many` call of `run_lockstep` appends its
    stack size to."""
    stacks = []
    real = extragradient_module.evaluate_many

    def counting(ops, controls):
        stacks.append(len(ops))
        return real(ops, controls)

    monkeypatch.setattr(extragradient_module, "evaluate_many", counting)
    return stacks


def test_lockstep_admits_what_the_budget_holds_or_one_default_size(monkeypatch):
    stacks = stack_sizes(monkeypatch)
    first = lq_operator(m=12, p=64, n=10, seed=0)[0]
    width = LOCKSTEP_BYTES // _instance_bytes(first)
    ops = [first] + [lq_operator(m=12, p=64, n=10, seed=seed)[0] for seed in range(1, width + 2)]
    config = ExtragradientConfig(gamma=0.1, n_max=2)
    reports = dict(run_lockstep((i, op, extragradient_plan(op.zero(), config, op)) for i, op in enumerate(ops)))
    assert sorted(reports) == list(range(width + 2))
    # the first `width` run, two evaluations per iteration, then the other two
    assert stacks == [width] * 4 + [2] * 4
    # a default-size instance fills the budget alone
    default_size = lq_operator(m=32, p=500, n=50, seed=0)[0]
    assert _instance_bytes(default_size) > LOCKSTEP_BYTES


def test_twelve_small_instances_run_as_one_stack_with_their_serial_bits(monkeypatch):
    # the sweep's twelve 12x64x10 cells fit in one admission: the first
    # round is one stack of twelve, and every run reports what it reports
    # when the budget admits one instance at a time
    ops = [lq_operator(m=12, p=64, n=10, seed=seed, horizon=(0.5, 1.0, 2.0)[seed % 3])[0] for seed in range(12)]
    config = ExtragradientConfig(n_max=4)

    def run():
        return dict(run_lockstep((i, op, extragradient_plan(op.zero, config, op)) for i, op in enumerate(ops)))

    with monkeypatch.context() as patch:
        stacks = stack_sizes(patch)
        stacked = run()
    assert stacks[0] == 12
    monkeypatch.setattr(extragradient_module, "LOCKSTEP_BYTES", 1)
    serial = run()
    for i in range(12):
        got, want = stacked[i], serial[i]
        assert (got.residuals, got.evaluations, got.L_hat, got.gamma) == (
            want.residuals, want.evaluations, want.L_hat, want.gamma
        )
        assert np.array_equal(got.final_alpha.alpha_x, want.final_alpha.alpha_x)
        assert np.array_equal(got.final_alpha.alpha_q, want.final_alpha.alpha_q)


def test_lockstep_runs_any_plans_of_alike_instances_in_one_stack(monkeypatch):
    # extragradient plans and one-evaluation plans of alike 12x64x10
    # operators share each round's stacked solve, and each job gets the
    # outcome it gets alone, bit for bit
    ops = [lq_operator(m=12, p=64, n=10, seed=seed)[0] for seed in range(4)]
    config = ExtragradientConfig(gamma=0.1, n_max=2)
    points = {i: ops[i].random_control(np.random.default_rng(i), 0.5) for i in (2, 3)}
    solo = {("eg", i): run_extragradient(ops[i].zero(), config, ops[i]) for i in (0, 1)}
    solo.update({("one", i): ops[i](points[i]) for i in (2, 3)})

    def one_evaluation(control):
        value = yield control
        return control, value

    stacks = stack_sizes(monkeypatch)
    jobs = [(("eg", i), ops[i], extragradient_plan(ops[i].zero, config, ops[i])) for i in (0, 1)]
    jobs += [(("one", i), ops[i], one_evaluation(points[i])) for i in (2, 3)]
    got = dict(run_lockstep(jobs))
    # the first round stacks all four, the other three the two EG runs
    assert stacks == [4, 2, 2, 2]
    for i in (0, 1):
        want, report = solo["eg", i], got["eg", i]
        assert (report.residuals, report.evaluations) == (want.residuals, want.evaluations)
        assert np.array_equal(report.final_alpha.alpha_x, want.final_alpha.alpha_x)
        assert np.array_equal(report.final_alpha.alpha_q, want.final_alpha.alpha_q)
    for i in (2, 3):
        control, value = got["one", i]
        assert control is points[i]
        assert np.array_equal(value.alpha_x, solo["one", i].alpha_x)
        assert np.array_equal(value.alpha_q, solo["one", i].alpha_q)


def test_a_full_lockstep_stack_stays_inside_the_budget():
    # numpy reports its buffers to tracemalloc.  The problems are built while
    # tracing, so their noise counts as the budget counts it.  As many
    # 12x64x10 runs as the budget admits (13 in 9.0 MB), probes included,
    # peak at 8.42 MB; with each start built before the run (op.zero() in
    # place of op.zero), and so held through the probes, they read 9.24 MB.
    # The fixed allowance of 0.1 MB is headroom for the Python objects of
    # the runs and allocator rounding
    allowance = 100_000
    width = LOCKSTEP_BYTES // _instance_bytes(lq_operator(m=12, p=64, n=10)[0])

    def runs():
        ops = [lq_operator(m=12, p=64, n=10, seed=seed)[0] for seed in range(width)]
        config = ExtragradientConfig(n_max=3)
        return dict(run_lockstep((i, op, extragradient_plan(op.zero, config, op)) for i, op in enumerate(ops)))

    runs()  # imports and first-call caches
    tracemalloc.start()
    try:
        reports = runs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [reports[i].evaluations["probe"] for i in range(width)] == [12] * width
    assert peak < LOCKSTEP_BYTES + allowance


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


def test_operator_call_leaves_the_operator_as_it_was():
    op = lq_operator()[0]
    control = op.random_control(np.random.default_rng(0), 0.5)
    before = {name: id(value) for name, value in vars(op).items()}
    v = op(control)
    assert {name: id(value) for name, value in vars(op).items()} == before
    solve = op.solve(control)
    assert np.array_equal(v.alpha_x, solve.gap_F) and np.array_equal(v.alpha_q, op.value_in(solve).alpha_q)


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
    solve = op.solve(alpha_star)  # a solve at the control of v_star
    assert np.array_equal(v_star.alpha_x, solve.gap_F)
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
    solve = op.solve(report.final_alpha)
    phi_bar = recover_phi_bar(op, solve)
    # the auxiliary sweep along the solve at the final control tracks its
    # major value
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
    # a run that meets tol does so at an iterate, whose trial point is not evaluated
    assert report.evaluations == {"probe": 0, "iterate": 2 * completed - (reason == "tol")}
    assert report.L_hat is None


CONE_BLOWING_UP = LQParams(c1=1.0, c3=0.5, g1=1.0, b=1.0, p1=1.0, r1=-5.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blown-up instance overflows on purpose
def test_evaluate_many_gives_each_instance_its_solo_outcome():
    ops = [
        lq_operator(m=4, p=16, n=10, seed=1)[0],
        lq_operator(m=4, p=16, n=10, seed=3, horizon=8.0)[0],
        lq_operator(m=4, p=16, n=10, seed=2, horizon=0.5)[0],
    ]
    controls = [op.zero() for op in ops]
    # a finite control of the middle instance whose forward pass overflows
    controls[1].alpha_x[0, 0, 0] = -1e308
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
    lockstep = dict(run_lockstep((i, op, extragradient_plan(op.zero(), config, op)) for i, op in enumerate(ops)))
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
        assert np.array_equal(got.final_alpha.alpha_x, want.final_alpha.alpha_x)
        assert np.array_equal(got.final_alpha.alpha_q, want.final_alpha.alpha_q)
        assert want.evaluations["probe"] == 12
        if want.stop_reason == "tol":
            # the iterate that met tol is the last point evaluated
            assert want.evaluations["iterate"] == 2 * want.iterations - 1
        outcomes.append(want.stop_reason)
    # runs that end by tolerance, by the cap, on a failed iteration and in
    # their probes, one of them without common noise
    assert set(outcomes) == {"tol", "n_max", "non_finite", "error"}
    # the default config runs in lockstep too, to the solo numbers
    default = ExtragradientConfig()
    want = run_extragradient(ops[0].zero(), default, ops[0])
    got = dict(run_lockstep([(0, ops[0], extragradient_plan(ops[0].zero(), default, ops[0]))]))[0]
    assert (got.residuals, got.stop_reason) == (want.residuals, want.stop_reason)
