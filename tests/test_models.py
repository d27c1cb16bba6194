import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorminor.ensembles import conditional_features, wasserstein2_1d
from majorminor.errors import ConfigurationError, EvaluationError, InversionError
from majorminor.models import (
    CoefficientSet,
    LQParams,
    ModelConstants,
    MonotonicityData,
    clamp_coefficients,
    eval_coefficients,
    lq_monotonicity_data,
    make_lq_model,
    make_zero_model,
    split_q,
    theta_inverse,
)

CONE = LQParams(c1=1.0, c3=0.5, g1=1.0, b=1.0, p1=1.0)


def point(x=0.0, q=0.0, u=0.0, z=0.0, mean_x=0.0, m=1, p=1):
    xs = np.full((m, p, 1), x)
    us = np.full((m, p, 1), u)
    qs = np.full((m, 1, 1), q)
    zs = np.full((m, 1, 1), z)
    feats = conditional_features(np.full((m, p, 1), mean_x), us)
    return xs, qs, us, zs, feats


def test_zero_model_evaluates_to_zero():
    cs = make_zero_model()
    x, q, u, z, feats = point(1.0, -2.0, 3.0, 4.0)
    F, G, Hz, LH = eval_coefficients(cs, x, q, u, z, feats)
    assert np.all(F == 0) and np.all(G == 0) and np.all(Hz == 0) and np.all(LH == 0)


def test_lq_hz_affine():
    cs = make_lq_model(LQParams(b=1.0), ModelConstants())
    x, q, u, z, feats = point(q=2.0, z=0.3)
    _, _, Hz, _ = eval_coefficients(cs, x, q, u, z, feats)
    assert Hz[0, 0, 0] == pytest.approx(2.3)


def test_lq_lh_value():
    cs = make_lq_model(LQParams(r1=1.0), ModelConstants())
    x, q, u, z, feats = point(q=1.0, z=2.0)
    _, _, _, LH = eval_coefficients(cs, x, q, u, z, feats)
    assert LH[0, 0] == pytest.approx(-2.5)


def test_lq_terminal_maps():
    cs = make_lq_model(LQParams(g1=1.0), ModelConstants())
    x, q, u, z, feats = point(x=1.7)
    assert cs.g(x, q, feats)[0, 0, 0] == pytest.approx(1.7)
    cs0 = make_lq_model(LQParams(), ModelConstants())
    assert cs0.g(x, q, feats)[0, 0, 0] == 0.0
    assert cs0.psi(q, feats)[0, 0] == 0.0


def test_eval_rejects_non_finite():
    cs = make_lq_model(CONE, ModelConstants())
    x, q, u, z, feats = point()
    with pytest.raises(EvaluationError):
        eval_coefficients(cs, x * np.nan, q, u, z, feats)


def test_clamp_identity_at_infinity():
    cs = make_lq_model(CONE, ModelConstants())
    assert clamp_coefficients(cs, math.inf) is cs


def test_clamp_boundary_and_agreement():
    cs = make_lq_model(LQParams(b=1.0), ModelConstants())
    clamped = clamp_coefficients(cs, 1.0)
    x, q, u, z, feats = point(q=0.0, z=5.0)
    _, _, Hz, _ = eval_coefficients(clamped, x, q, u, z, feats)
    assert Hz[0, 0, 0] == pytest.approx(1.0)
    # agreement region: |z| <= M
    for zval in (-0.9, 0.0, 0.7):
        x, q, u, z, feats = point(q=0.4, z=zval)
        raw = eval_coefficients(cs, x, q, u, z, feats)
        clp = eval_coefficients(clamped, x, q, u, z, feats)
        for r, c in zip(raw, clp):
            assert np.allclose(r, c)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-8, 8), st.floats(-3, 3))
def test_clamp_idempotent(level, zval, qval):
    cs = make_lq_model(CONE, ModelConstants())
    once = clamp_coefficients(cs, level)
    twice = clamp_coefficients(once, level)
    x, q, u, z, feats = point(q=qval, z=zval)
    for a, b in zip(eval_coefficients(once, x, q, u, z, feats), eval_coefficients(twice, x, q, u, z, feats)):
        assert np.allclose(a, b)


def test_split_q_midpoint_identity():
    cs = make_lq_model(CONE, ModelConstants())
    primed = split_q(cs)
    x, q, u, z, feats = point(x=0.3, q=1.2, u=-0.5, z=0.1)
    direct = cs.Hz(q, z, feats)
    doubled = primed.Hzp(q, q, z, feats)
    assert np.allclose(direct, doubled)
    assert np.allclose(primed.Fp(x, q, q, u, z, feats), cs.F(x, q, u, z, feats))


def test_split_q_midpoint_arithmetic():
    cs = make_lq_model(LQParams(b=1.0), ModelConstants())
    primed = split_q(cs)
    x, qf, u, z, feats = point(q=0.0, z=0.0)
    qb = np.full((1, 1, 1), 4.0)
    assert primed.Hzp(qf, qb, z, feats)[0, 0, 0] == pytest.approx(2.0)


def test_split_q_f_ignores_backward_copy_when_q_free():
    cs = make_lq_model(LQParams(), ModelConstants())  # F = u, no q dependence
    primed = split_q(cs)
    x, qf, u, z, feats = point(u=0.7)
    out1 = primed.Fp(x, qf, np.full((1, 1, 1), 5.0), u, z, feats)
    out2 = primed.Fp(x, qf, np.full((1, 1, 1), -5.0), u, z, feats)
    assert np.allclose(out1, out2)


def test_theta_lq_minor_identity():
    cs = make_lq_model(CONE, ModelConstants())
    primed = split_q(cs)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2, 5, 1))
    ax = rng.standard_normal((2, 5, 1))
    p = rng.standard_normal((2, 1, 1))
    z = rng.standard_normal((2, 1, 1))
    aq = rng.standard_normal((2, 1, 1))
    U, qb = theta_inverse(primed, X, p, z, ax, aq)
    assert np.allclose(U, ax)


def test_theta_lq_major_solves_midpoint():
    cs = make_lq_model(LQParams(b=1.0), ModelConstants())
    primed = split_q(cs)
    x, p, u, z, feats = point(q=0.0, z=0.0)
    aq = np.full((1, 1, 1), 1.0)
    _, qb = theta_inverse(primed, x, p, z, x, aq)
    assert qb[0, 0, 0] == pytest.approx(2.0)
    # forward evaluation of DzH' reproduces the target
    assert primed.Hzp(p, qb, z, feats)[0, 0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("closed_form", [True, False])
def test_theta_round_trip_random_points(closed_form):
    cs = make_lq_model(CONE, ModelConstants(clamp_m=5.0))
    if not closed_form:
        cs = CoefficientSet(
            **{
                **{k: getattr(cs, k) for k in (
                    "F", "G", "Hz", "LH", "g", "psi", "constants", "c_coef",
                    "omega", "clamp_m", "grad_alpha_L", "name",
                )},
                "theta": None,
            }
        )
    primed = split_q(cs)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        X = rng.standard_normal((1, 8, 1))
        ax = rng.standard_normal((1, 8, 1))
        p = rng.standard_normal((1, 1, 1))
        z = rng.uniform(-4, 4, (1, 1, 1))  # inside the clamp region
        aq = rng.standard_normal((1, 1, 1))
        U, qb = theta_inverse(primed, X, p, z, ax, aq, tol=1e-11)
        feats = conditional_features(X, U)
        rx = primed.Fp(X, p, qb, U, z, feats) - ax
        rq = primed.Hzp(p, qb, z, feats) - aq
        worst = max(worst, float(np.max(np.abs(rx))), float(np.max(np.abs(rq))))
    assert worst <= 1e-8


def test_theta_fallback_reports_non_convergence():
    cs = make_lq_model(CONE, ModelConstants())
    cs = CoefficientSet(
        **{
            **{k: getattr(cs, k) for k in (
                "F", "G", "Hz", "LH", "g", "psi", "constants", "c_coef",
                "omega", "clamp_m", "grad_alpha_L", "name",
            )},
            "theta": None,
        }
    )
    primed = split_q(cs)
    x, p, u, z, feats = point()
    with pytest.raises(InversionError) as err:
        theta_inverse(primed, x, p, z, x, np.full((1, 1, 1), 1.0), max_iter=1, tol=0.0)
    assert err.value.residual is not None


def test_zero_model_theta_zero_target():
    cs = make_zero_model()
    primed = split_q(cs)
    x, p, u, z, feats = point(q=1.3)
    U, qb = theta_inverse(primed, x, p, z, np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))
    assert np.all(U == 0.0)
    assert np.allclose(qb, p)


def test_lq_zero_params_is_zero_model():
    cs = make_lq_model(LQParams(), ModelConstants())
    x, q, u, z, feats = point(1.0, 1.0, 0.0, 1.0)
    F, G, Hz, LH = eval_coefficients(cs, x, q, u, z, feats)
    assert np.all(G == 0) and np.all(LH[..., :] == -0.5)  # only the -z^2/2 term


def test_declared_lipschitz_ratio_bound():
    # sampled ratios never exceed C_coef + omega(max |z|) within the region
    cs = make_lq_model(CONE, ModelConstants(), region_radius=3.0)
    rng = np.random.default_rng(3)
    bound_violation = 0.0
    for _ in range(1000):
        xa, xb = rng.uniform(-3, 3, (2, 1, 6, 1))
        ua, ub = rng.uniform(-3, 3, (2, 1, 6, 1))
        qa, qb = rng.uniform(-3, 3, (2, 1, 1, 1))
        za, zb = rng.uniform(-3, 3, (2, 1, 1, 1))
        fa = conditional_features(xa, ua)
        fb = conditional_features(xb, ub)
        va = eval_coefficients(cs, xa, qa, ua, za, fa)
        vb = eval_coefficients(cs, xb, qb, ub, zb, fb)
        w2 = math.hypot(wasserstein2_1d(xa, xb), wasserstein2_1d(ua, ub))
        for a, b in zip(va, vb):
            num = float(np.max(np.abs(a - b)))
            den = float(
                np.max(np.abs(xa - xb)) + np.max(np.abs(qa - qb)) + np.max(np.abs(ua - ub))
                + np.max(np.abs(za - zb)) + w2
            )
            limit = cs.c_coef + cs.omega(max(abs(za[0, 0, 0]), abs(zb[0, 0, 0]))) + 1e-9
            bound_violation = max(bound_violation, num / den - limit)
    assert bound_violation <= 0.0


def test_monotonicity_data_validation():
    data = lq_monotonicity_data(CONE, ModelConstants())
    data.validate_monotone()
    assert data.kappa > 0 and data.beta0 > 0
    assert data.norm_A == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        MonotonicityData(
            A=np.array([[0.0, 1.0], [0.5, 0.0]]), kappa=1.0, beta0=1.0,
            C_M=0.0, C_H=0.0, delta=0.0,
        )


def test_constants_validation():
    with pytest.raises(ConfigurationError):
        ModelConstants(sigma=-1.0)
    with pytest.raises(ConfigurationError):
        ModelConstants(clamp_m=0.0)
    with pytest.raises(ConfigurationError) as err:
        ModelConstants(sigma=-1.0, d=2, d0=3)
    assert err.value.violations == [
        "sigma must be >= 0, got -1.0", "d must be 1, got 2", "d0 must be 1, got 3"
    ]
