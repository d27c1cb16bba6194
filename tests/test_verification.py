import math
import tracemalloc

import numpy as np
import pytest

import majorminor.extragradient as extragradient_module
import majorminor.verification as verification
from majorminor.ensembles import ControlField, conditional_features
from majorminor.errors import ConfigurationError, SimulationError
from majorminor.extragradient import FbsdeOperator, _instance_bytes
from majorminor.grids import build_grid, sample_noise
from majorminor.models import (
    LQParams,
    ModelConstants,
    MonotonicityData,
    lq_monotonicity_data,
    make_lq_model,
    split_q,
)
from majorminor.oracle import oracle_induced_control, riccati_oracle
from majorminor.solver import RegressionBasis, decoupled_solve, sample_initial
from majorminor.verification import (
    CertificationReport,
    check_coefficient_monotonicity,
    check_monotonicity_propagation,
    check_pontryagin_residual,
    check_terminal_monotonicity,
    check_v_monotonicity,
    check_z_bound,
    compute_thresholds,
)

CONE = LQParams(c1=1.0, c3=0.5, g1=1.0, b=1.0, p1=1.0)
FLIPPED = LQParams(c1=-1.5, c3=0.0, g1=-2.0, b=-1.0, p1=1.0)
CONSTANTS = ModelConstants(sigma=0.5, sigma0=0.5)


def test_terminal_monotonicity_cone_passes():
    cs = make_lq_model(CONE, CONSTANTS)
    rep = check_terminal_monotonicity(cs, 1.0, beta0=0.05, samples=100, seed=1)
    assert rep.passed
    assert rep.witness is None


def test_terminal_monotonicity_diagonal_zero():
    cs = make_lq_model(CONE, CONSTANTS)
    # identical pair: both sides vanish
    rng = np.random.default_rng(0)
    X = rng.standard_normal((1, 64))
    from majorminor.ensembles import conditional_features

    fx = conditional_features(X)
    q = np.zeros((1, 1))
    pair = np.sum((cs.g(X, q, fx) - cs.g(X, q, fx)) * (X - X), axis=-1)
    assert float(pair.sum()) == 0.0
    assert float(cs.psi(q, fx)[0, 0] - cs.psi(q, fx)[0, 0]) == 0.0


def test_terminal_monotonicity_flipped_fails_with_witness():
    flipped = make_lq_model(LQParams(c1=1.0, c3=0.5, g1=-2.0, b=1.0, p1=1.0), CONSTANTS)
    rep = check_terminal_monotonicity(flipped, 1.0, beta0=0.05, samples=100, seed=1)
    assert not rep.passed
    assert rep.witness is not None and "sample" in rep.witness


def test_coefficient_monotonicity_cone():
    cs = make_lq_model(CONE, CONSTANTS)
    rep = check_coefficient_monotonicity(cs, 1.0, samples=100, seed=2)
    assert rep.passed
    assert rep.extras["kappa_hat"] > 0


def test_coefficient_monotonicity_flipped_b():
    cs = make_lq_model(LQParams(c1=1.0, c3=0.5, g1=1.0, b=-1.0, p1=1.0), CONSTANTS)
    rep = check_coefficient_monotonicity(cs, 1.0, samples=100, seed=2)
    assert not rep.passed
    assert rep.extras["kappa_hat"] < 0
    assert rep.witness is not None


def test_coefficient_monotonicity_zpair_slack():
    data = lq_monotonicity_data(CONE, CONSTANTS)
    cs = make_lq_model(CONE, CONSTANTS)
    rep = check_coefficient_monotonicity(
        cs,
        data.a,
        samples=100,
        seed=3,
        slack=(data.kappa, data.C_M, data.K),
    )
    assert rep.passed


def test_verdict_takes_the_first_smallest_kept_margin():
    # sample 1 holds the smallest margin but does not count; samples 2 and 4
    # tie for the smallest kept one, and the first of them decides
    built = []

    def witness(i):
        built.append(i)
        return {"sample": i}

    margins = [0.5, -9.0, -1.0, 2.0, -1.0]
    kept = [True, False, True, True, True]
    rep = verification._verdict("check", margins, [0.1, 0.1, 0.2, 0.1, 0.3], 7, witness, kept=kept, extras={"e": 1.0})
    assert (rep.name, rep.passed, rep.margin, rep.se, rep.samples, rep.seed) == ("check", False, -1.0, 0.2, 4, 7)
    assert rep.witness == {"sample": 2} and built == [2]
    assert rep.extras == {"e": 1.0}
    # -1.0 >= -3 * 0.4 passes on sample 2's se, though sample 4's would fail
    built.clear()
    rep = verification._verdict("check", margins, [0.1, 0.1, 0.4, 0.1, 0.3], 7, witness, kept=kept)
    assert (rep.passed, rep.margin, rep.se, rep.samples) == (True, -1.0, 0.4, 4)
    assert rep.witness is None and built == [] and rep.extras == {}
    # with no `kept` every sample counts
    rep = verification._verdict("check", margins, [0.1] * 5, 7, witness)
    assert (rep.passed, rep.margin, rep.samples, rep.witness) == (False, -9.0, 5, {"sample": 1})


def per_sample_terms(cs, a, samples, seed, form):
    """(margin, se, denominator) of each sample of a hypothesis check, drawn
    from its own stream and evaluated on its own (1, 256) clouds."""
    data = lq_monotonicity_data(CONE, CONSTANTS)
    terms = []
    for i in range(samples):
        if form == "terminal":
            rng = verification._sample_rng(seed, i)
            X, Y = (verification.sample_cloud(rng, 256)[None] for _ in range(2))
            q, qp = (rng.normal(0.0, 1.5, (1, 1)) for _ in range(2))
            fx, fy = conditional_features(X), conditional_features(Y)
            pair = ((cs.g(X, q, fx) - cs.g(Y, qp, fy)) * (X - Y))[0]
            dq = (q - qp)[0, 0]
            dpsi = float(cs.psi(q, fx)[0, 0] - cs.psi(qp, fy)[0, 0])
            margin = float(pair.mean()) + 0.5 * float(dq * a * dq) - 0.05 * dpsi * dpsi
            terms.append((margin, float(pair.std(ddof=1) / 16.0), 1.0))
            continue
        rng = verification._sample_rng(seed, 1_000_000 + i)
        X, Y, U, V = (verification.sample_cloud(rng, 256)[None] for _ in range(4))
        q, qp, z = (rng.normal(0.0, 1.5, (1, 1)) for _ in range(3))
        zp = rng.normal(0.0, 1.5, (1, 1)) if form == "zpair" else z
        fxu, fyv = conditional_features(X, U), conditional_features(Y, V)
        dg = ((cs.G(X, q, U, z, fxu) - cs.G(Y, qp, V, zp, fyv)) * (X - Y))[0]
        df = ((cs.F(X, q, U, z, fxu) - cs.F(Y, qp, V, zp, fyv)) * (U - V))[0]
        dq = (q - qp)[0, 0]
        lhs = float(dg.mean()) + float(df.mean()) + float(a * (cs.Hz(q, z, fxu) - cs.Hz(qp, zp, fyv))[0, 0] * dq)
        den = float(np.mean((X - Y) ** 2) + np.mean((U - V) ** 2) + dq * dq)
        se = float((dg + df).std(ddof=1) / 16.0)
        if form == "zpair":
            zmin = min(float(np.linalg.norm(z)), float(np.linalg.norm(zp)))
            dz2 = float(np.sum((z - zp) ** 2))
            terms.append((lhs + (data.C_M + data.K(zmin)) * dz2 - data.kappa * den, se, den))
        else:
            terms.append((lhs / den, se / den, den))
    return terms


@pytest.mark.parametrize("form", ["terminal", "kappa", "zpair"])
@pytest.mark.parametrize("params", [CONE, LQParams(c1=1.0, c3=0.5, g1=-2.0, b=-1.0, p1=1.0)], ids=["cone", "flipped"])
def test_batched_hypothesis_checks_report_each_samples_own_terms(params, form):
    # the checks draw every sample from its own stream and evaluate the maps
    # on all samples at once; the worst margin, its se and its witness are
    # those of a sample evaluated alone, bit for bit
    cs = make_lq_model(params, CONSTANTS)
    data = lq_monotonicity_data(CONE, CONSTANTS)
    if form == "terminal":
        rep = check_terminal_monotonicity(cs, data.a, beta0=0.05, samples=60, seed=4)
    else:
        slack = (data.kappa, data.C_M, data.K) if form == "zpair" else None
        rep = check_coefficient_monotonicity(cs, data.a, samples=60, seed=4, slack=slack)
    terms = per_sample_terms(cs, data.a, 60, 4, form)
    kept = [(margin, se, i) for i, (margin, se, den) in enumerate(terms) if not den < 1e-12]
    margin, se, worst = min(kept, key=lambda t: t[0])  # the first smallest
    assert (rep.margin, rep.se, rep.samples) == (margin, se, len(kept) if form != "terminal" else 60)
    assert rep.passed == (params is CONE)
    assert rep.passed or rep.witness["sample"] == worst


def small_operator(params=CONE, m=16, p=128, n=10, seed=5, sigma0=0.5):
    constants = ModelConstants(sigma=0.5, sigma0=sigma0)
    grid = build_grid(1.0, n)
    noise = sample_noise(grid, m, p, seed=seed)
    init = sample_initial(m, p, seed=seed, x_mean=1.0, x_std=0.3, q0=1.0, q0_std=0.1)
    primed = split_q(make_lq_model(params, constants))
    return FbsdeOperator(primed, grid, noise, init, RegressionBasis()), grid, noise, init, constants


def test_v_monotonicity_cone_and_flipped():
    op, *_ = small_operator()
    rep = check_v_monotonicity(op, pairs=12, seed=0)
    assert rep.passed
    assert rep.extras["eta_hat"] > 0
    flipped, *_ = small_operator(params=FLIPPED)
    rep_bad = check_v_monotonicity(flipped, pairs=12, seed=0)
    assert not rep_bad.passed
    assert rep_bad.witness is not None


def serial_v_monotonicity(op, pairs, seed):
    """The pair check as a loop of solo evaluations: both draws of a pair,
    then v at each, then the pair's terms."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    dt = op.grid.dt
    worst_ip, worst_se, eta_hat, witness = math.inf, 0.0, math.inf, None
    for i in range(pairs):
        a = verification._probe_control(op, rng, verification._PAIR_SCALE)
        b = verification._probe_control(op, rng, verification._PAIR_SCALE)
        va = op(a)
        vb = op(b)
        diff = a - b
        dv = va - vb
        denom = op.inner(diff, diff)
        if denom < 1e-12:
            continue
        per_scen = dt * (
            (dv.alpha_x * diff.alpha_x).mean(axis=1).sum(axis=1)
            + (dv.alpha_q * diff.alpha_q).sum(axis=1)
        )
        ip = float(per_scen.mean())
        se = float(per_scen.std(ddof=1) / math.sqrt(per_scen.size))
        eta_hat = min(eta_hat, ip / denom)
        if ip < worst_ip:
            worst_ip, worst_se = ip, se
            witness = {"pair": i, "inner_product": ip, "denominator": denom}
    passed = worst_ip >= -3.0 * worst_se
    return CertificationReport(
        name="v_monotonicity", passed=bool(passed), margin=worst_ip, se=worst_se, samples=pairs,
        seed=seed, witness=None if passed else witness, extras={"eta_hat": eta_hat},
    )


def stacks_of(monkeypatch, op, size) -> list:
    """Make the budget admit `size` instances of op's size; returns the list
    the pair check's `evaluate_many` calls append their sizes to."""
    monkeypatch.setattr(extragradient_module, "LOCKSTEP_BYTES", size * _instance_bytes(op))
    stacks = []
    real = extragradient_module.evaluate_many

    def counting(ops, controls):
        stacks.append(len(ops))
        return real(ops, controls)

    monkeypatch.setattr(extragradient_module, "evaluate_many", counting)
    return stacks


@pytest.mark.parametrize("params, size, want_stacks", [
    (CONE, 6, [6] * 4),
    (FLIPPED, 6, [6] * 4),
    (CONE, 5, [5] * 4 + [4]),  # pairs straddle the chunks
    (CONE, 1, [1] * 24),
], ids=["cone", "flipped", "straddling", "solo"])
def test_stacked_pair_check_reports_what_the_serial_loop_reports(monkeypatch, params, size, want_stacks):
    op, *_ = small_operator(params=params)
    want = serial_v_monotonicity(op, 12, 0)
    stacks = stacks_of(monkeypatch, op, size)
    got = check_v_monotonicity(op, pairs=12, seed=0)
    assert stacks == want_stacks
    assert got == want  # every field: margin, se, eta_hat and the witness
    assert got.passed == (params is CONE)


def test_stacked_pair_check_raises_the_first_failed_draws_error(monkeypatch):
    # draws 3 and 5 share the first stack of six; each has a non-finite
    # drift, at steps 7 and 2.  The stacked solve stops at step 2, draw 5's;
    # the check raises draw 3's error, as the serial loop does
    op, *_ = small_operator()
    poison = {3: 7, 5: 2}
    draws = []
    real = verification._probe_control

    def probe(op, rng, scale):
        control = real(op, rng, scale)
        step = poison.get(len(draws))
        draws.append(step)
        if step is not None:
            control.alpha_q[0, step] = np.nan
        return control

    monkeypatch.setattr(verification, "_probe_control", probe)
    with pytest.raises(SimulationError) as serial_error:
        serial_v_monotonicity(op, 12, 0)
    assert serial_error.value.step == 7
    draws.clear()
    stacks = stacks_of(monkeypatch, op, 6)
    with pytest.raises(SimulationError) as stacked_error:
        check_v_monotonicity(op, pairs=12, seed=0)
    assert stacks == [6] and len(draws) == 6
    assert str(stacked_error.value) == str(serial_error.value)


def test_z_bound_constant_terminal():
    # psi constant, LH = 0: Zphi stays at the regression noise floor
    params = LQParams(g1=0.5)
    op, grid, noise, init, constants = small_operator(params=params, m=32)
    out = decoupled_solve(ControlField.zeros(32, 128, 10), op.primed, noise, init, RegressionBasis(), grid)
    rep = check_z_bound(out, lip_q_phi=0.0, tol_rel=0.05)
    assert rep.extras["max_abs_zphi"] < 0.1
    assert rep.passed


def test_z_bound_clamped_model():
    # clamp level M: every coefficient evaluation sees |z| <= M by
    # construction; the check compares the raw estimate against the bound
    op, grid, noise, init, constants = small_operator(m=32)
    out = decoupled_solve(ControlField.zeros(32, 128, 10), op.primed, noise, init, RegressionBasis(), grid)
    max_z = float(np.max(np.abs(out.state.Zphi)))
    rep = check_z_bound(out, lip_q_phi=max_z, tol_rel=0.0)
    assert rep.passed


def test_monotonicity_propagation_identical_ics():
    op, grid, noise, init, constants = small_operator(m=24)
    out = decoupled_solve(ControlField.zeros(24, 128, 10), op.primed, noise, init, RegressionBasis(), grid)
    rep = check_monotonicity_propagation(out, out, 1.0, lambda t: 0.05, grid)
    assert rep.passed
    assert np.allclose(rep.extras["ev"], 0.0)


def test_monotonicity_propagation_coupled_runs():
    op, grid, noise, init, constants = small_operator(m=32, p=256)
    sol = riccati_oracle(CONE, constants, grid)
    cs = make_lq_model(CONE, constants)
    ctl1, _ = oracle_induced_control(sol, cs, grid, noise, init)
    out1 = decoupled_solve(ctl1, op.primed, noise, init, RegressionBasis(), grid)
    from majorminor.solver import InitialCondition

    init2 = InitialCondition(X0=init.X0 + 0.4, q0=init.q0 + 0.3)
    ctl2, _ = oracle_induced_control(sol, cs, grid, noise, init2)
    out2 = decoupled_solve(ctl2, op.primed, noise, init2, RegressionBasis(), grid)
    data = lq_monotonicity_data(CONE, constants)
    thresholds = compute_thresholds(data, constants.discount, grid.horizon)
    rep = check_monotonicity_propagation(out1, out2, data.a, thresholds.beta_star, grid)
    assert rep.passed


def test_thresholds_trivial_collapse():
    data = MonotonicityData(
        a=1.0, kappa=1.0, beta0=1.0, C_M=0.0, C_H=0.0, delta=0.0,
        omega=lambda m: 0.0, K=lambda m: 0.0,
    )
    rep = compute_thresholds(data, lam=0.0, horizon=1.0)
    assert rep.sigma0_T == 0.0
    assert rep.gamma_star == 0.0


def test_thresholds_gamma_star_arithmetic():
    data = MonotonicityData(
        a=1.0, kappa=1.0, beta0=1.0, C_M=0.0, C_H=1.0, delta=0.0,
        omega=lambda m: 0.0, K=lambda m: 0.0,
    )
    rep = compute_thresholds(data, lam=0.0, horizon=1.0)
    assert rep.gamma_star == pytest.approx(4.0)
    assert rep.sigma0_star is None  # lam = 0: no horizon-free branch


def test_thresholds_branch_one():
    data = MonotonicityData(
        a=1.0, kappa=1.0, beta0=1.0, C_M=0.5, C_H=1.0, delta=0.0,
        omega=lambda m: float(m), K=lambda m: 0.1 * float(m) ** 2,
    )
    rep = compute_thresholds(data, lam=3.0, horizon=2.0)
    assert rep.gamma_star == pytest.approx(4.0)
    assert "strong discount" in rep.branch
    # independent evaluation of the branch formula at beta0 = 1, |a| = 1
    expected = 1.0 / (2 * 3.0) + (0.5 + 0.1) / 1.0
    assert rep.sigma0_star == pytest.approx(expected)


def test_thresholds_branch_two_bisection():
    data = MonotonicityData(
        a=1.0, kappa=1.0, beta0=1.0, C_M=0.2, C_H=2.0, delta=0.5,
        omega=lambda m: float(m), K=lambda m: 0.0,
    )
    rep = compute_thresholds(data, lam=1.0, horizon=4.0)
    assert "sublinear growth" in rep.branch
    # condition: beta * 4 * (1 + (1/beta)^0.5) / 4 <= 0.5
    def f(b):
        return b * 4.0 * (1 + (1.0 / b) ** 0.5) / 4.0

    # the report's sigma0_star must use beta* satisfying the condition
    # invert: sigma0_star = m*^2/(2 lam) + C_M/beta*
    # recover beta* from the reported value by solving numerically
    from scipy.optimize import brentq

    def g(b):
        m = math.sqrt(1.0 / b)
        return m * m / 2.0 + 0.2 / b - rep.sigma0_star

    beta_star = brentq(g, 1e-9, 1.0)
    assert f(beta_star) <= 0.5 + 1e-6


def test_thresholds_monotone_in_kappa_and_cm():
    def make(kappa, c_m):
        return MonotonicityData(
            a=1.0, kappa=kappa, beta0=0.5, C_M=c_m, C_H=1.0, delta=0.0,
            omega=lambda m: float(m), K=lambda m: 0.0,
        )

    base = compute_thresholds(make(1.0, 0.5), lam=0.0, horizon=1.0)
    stronger = compute_thresholds(make(2.0, 0.5), lam=0.0, horizon=1.0)
    harder = compute_thresholds(make(1.0, 1.0), lam=0.0, horizon=1.0)
    assert stronger.sigma0_T <= base.sigma0_T
    assert harder.sigma0_T >= base.sigma0_T


@pytest.mark.parametrize(
    "r1,discount,horizon,beta_star_T,sigma0_T",
    [(-5.0, 0.0, 8.0, 0.0, math.inf), (0.0, 400.0, 1.0, math.inf, 0.0)],
    ids=["underflow", "overflow"],
)
def test_thresholds_at_the_ends_of_the_float_range(r1, discount, horizon, beta_star_T, sigma0_T):
    constants = ModelConstants(sigma=0.5, sigma0=0.5, discount=discount)
    data = lq_monotonicity_data(LQParams(c1=1.0, c3=0.5, g1=1.0, b=1.0, p1=1.0, r1=r1), constants)
    rep = compute_thresholds(data, lam=discount, horizon=horizon)
    assert rep.beta_star_T == beta_star_T
    assert rep.sigma0_T == sigma0_T
    assert rep.beta_star(horizon) == beta_star_T


def test_pontryagin_residual_oracle_vs_perturbed():
    op, grid, noise, init, constants = small_operator(m=32, p=256, n=20)
    sol = riccati_oracle(CONE, constants, grid)
    cs = make_lq_model(CONE, constants)
    ctl, _ = oracle_induced_control(sol, cs, grid, noise, init)
    out = decoupled_solve(ctl, op.primed, noise, init, RegressionBasis(), grid)
    rep = check_pontryagin_residual(out, cs, grid, tol_disc=0.3)
    assert rep.passed
    bad = ControlField(ctl.alpha_x + 1.0, ctl.alpha_q.copy())
    out_bad = decoupled_solve(bad, op.primed, noise, init, RegressionBasis(), grid)
    rep_bad = check_pontryagin_residual(out_bad, cs, grid, tol_disc=0.3)
    assert not rep_bad.passed
    assert rep_bad.extras["residual"] > 10 * rep.extras["residual"]


def test_reports_serialize():
    cs = make_lq_model(CONE, CONSTANTS)
    rep = check_terminal_monotonicity(cs, 1.0, beta0=0.05, samples=10, seed=1)
    text = rep.to_json()
    assert '"terminal_monotonicity"' in text


@pytest.mark.parametrize(
    "check,kwargs",
    [
        (check_terminal_monotonicity, {"a": 1.0, "beta0": 0.05, "samples": 0}),
        (check_coefficient_monotonicity, {"a": 1.0, "samples": 0}),
        (check_v_monotonicity, {"pairs": 0}),
    ],
    ids=["terminal", "coefficient", "v"],
)
def test_checks_reject_an_empty_sample(check, kwargs):
    # with nothing drawn a check would pass at margin +inf
    target = small_operator()[0] if check is check_v_monotonicity else make_lq_model(CONE, CONSTANTS)
    with pytest.raises(ConfigurationError, match="must be >= 1, got 0"):
        check(target, **kwargs)


def test_stacked_pair_check_holds_no_ended_round_through_the_next(monkeypatch):
    # numpy reports its buffers to tracemalloc.  Six draws a round at
    # 12x64x10: the check peaks at 37.1 controls; holding each ended round's
    # controls and values through the next round's draws and solve read 49.2
    op, *_ = small_operator(m=12, p=64)
    control_bytes = 8 * (12 * 64 * 10 + 12 * 10)
    monkeypatch.setattr(extragradient_module, "LOCKSTEP_BYTES", 6 * _instance_bytes(op))
    check_v_monotonicity(op, pairs=12, seed=0)  # first-call caches
    tracemalloc.start()
    try:
        check_v_monotonicity(op, pairs=12, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42 * control_bytes
