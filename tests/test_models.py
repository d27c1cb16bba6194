import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorminor.ensembles import conditional_features
from majorminor.errors import ConfigurationError
from majorminor.models import (
    LQParams,
    ModelConstants,
    MonotonicityData,
    clamp_coefficients,
    lq_monotonicity_data,
    make_lq_model,
    make_zero_model,
    split_q,
    theta_inverse,
)

CONE = LQParams(c1=1.0, c3=0.5, g1=1.0, b=1.0, p1=1.0)


def point(x=0.0, q=0.0, u=0.0, z=0.0, mean_x=0.0, m=1, p=1):
    xs = np.full((m, p), x)
    us = np.full((m, p), u)
    qs = np.full((m, 1), q)
    zs = np.full((m, 1), z)
    feats = conditional_features(np.full((m, p), mean_x), us)
    return xs, qs, us, zs, feats


def coefficients(cs, x, q, u, z, feats):
    """(F, G, Hz, LH) of a coefficient set at one point."""
    return cs.F(x, q, u, z, feats), cs.G(x, q, u, z, feats), cs.Hz(q, z, feats), cs.LH(q, z, feats)


def sorted_distance(a, b):
    """Order-2 Wasserstein distance of two equal-size 1-d samples."""
    return float(np.sqrt(np.mean((np.sort(a, axis=None) - np.sort(b, axis=None)) ** 2)))


def test_zero_model_evaluates_to_zero():
    cs = make_zero_model()
    x, q, u, z, feats = point(1.0, -2.0, 3.0, 4.0)
    F, G, Hz, LH = coefficients(cs, x, q, u, z, feats)
    assert np.all(F == 0) and np.all(G == 0) and np.all(Hz == 0) and np.all(LH == 0)


def test_lq_hz_affine():
    cs = make_lq_model(LQParams(b=1.0), ModelConstants())
    x, q, u, z, feats = point(q=2.0, z=0.3)
    _, _, Hz, _ = coefficients(cs, x, q, u, z, feats)
    assert Hz[0, 0] == pytest.approx(2.3)


def test_lq_lh_value():
    cs = make_lq_model(LQParams(r1=1.0), ModelConstants())
    x, q, u, z, feats = point(q=1.0, z=2.0)
    _, _, _, LH = coefficients(cs, x, q, u, z, feats)
    assert LH[0, 0] == pytest.approx(-2.5)


def test_lq_terminal_maps():
    cs = make_lq_model(LQParams(g1=1.0), ModelConstants())
    x, q, u, z, feats = point(x=1.7)
    assert cs.g(x, q, feats)[0, 0] == pytest.approx(1.7)
    cs0 = make_lq_model(LQParams(), ModelConstants())
    assert cs0.g(x, q, feats)[0, 0] == 0.0
    assert cs0.psi(q, feats)[0, 0] == 0.0


def test_clamp_identity_at_infinity():
    cs = make_lq_model(CONE, ModelConstants())
    assert clamp_coefficients(cs, math.inf) is cs


def test_clamp_boundary_and_agreement():
    cs = make_lq_model(LQParams(b=1.0), ModelConstants())
    clamped = clamp_coefficients(cs, 1.0)
    x, q, u, z, feats = point(q=0.0, z=5.0)
    _, _, Hz, _ = coefficients(clamped, x, q, u, z, feats)
    assert Hz[0, 0] == pytest.approx(1.0)
    # agreement region: |z| <= M
    for zval in (-0.9, 0.0, 0.7):
        x, q, u, z, feats = point(q=0.4, z=zval)
        raw = coefficients(cs, x, q, u, z, feats)
        clp = coefficients(clamped, x, q, u, z, feats)
        for r, c in zip(raw, clp):
            assert np.allclose(r, c)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-8, 8), st.floats(-3, 3))
def test_clamp_idempotent(level, zval, qval):
    cs = make_lq_model(CONE, ModelConstants())
    once = clamp_coefficients(cs, level)
    twice = clamp_coefficients(once, level)
    x, q, u, z, feats = point(q=qval, z=zval)
    for a, b in zip(coefficients(once, x, q, u, z, feats), coefficients(twice, x, q, u, z, feats)):
        assert np.allclose(a, b)


def test_split_q_midpoint_identity():
    cs = make_lq_model(CONE, ModelConstants())
    primed = split_q(cs)
    x, q, u, z, feats = point(x=0.3, q=1.2, u=-0.5, z=0.1)
    direct = cs.Hz(q, z, feats)
    doubled = primed.Hzp(q, q, z, feats)
    assert np.allclose(direct, doubled)
    assert np.allclose(primed.Gp(x, q, q, u, z, feats), cs.G(x, q, u, z, feats))


def test_split_q_midpoint_arithmetic():
    cs = make_lq_model(LQParams(b=1.0), ModelConstants())
    primed = split_q(cs)
    x, qf, u, z, feats = point(q=0.0, z=0.0)
    qb = np.full((1, 1), 4.0)
    assert primed.Hzp(qf, qb, z, feats)[0, 0] == pytest.approx(2.0)


def test_split_q_f_ignores_backward_copy_when_q_free():
    cs = make_lq_model(LQParams(), ModelConstants())  # F = u, no q dependence
    primed = split_q(cs)
    x, qf, u, z, feats = point(u=0.7)
    # F at the midpoint of qf and a backward copy qb, as the doubled system reads it
    out1 = primed.base.F(x, 0.5 * (qf + np.full((1, 1), 5.0)), u, z, feats)
    out2 = primed.base.F(x, 0.5 * (qf + np.full((1, 1), -5.0)), u, z, feats)
    assert np.allclose(out1, out2)


def test_theta_lq_minor_identity():
    cs = make_lq_model(CONE, ModelConstants())
    primed = split_q(cs)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2, 5))
    ax = rng.standard_normal((2, 5))
    p = rng.standard_normal((2, 1))
    z = rng.standard_normal((2, 1))
    aq = rng.standard_normal((2, 1))
    U, qb = theta_inverse(primed, X, p, z, ax, aq)
    assert np.allclose(U, ax)


def test_theta_lq_major_solves_midpoint():
    cs = make_lq_model(LQParams(b=1.0), ModelConstants())
    primed = split_q(cs)
    x, p, u, z, feats = point(q=0.0, z=0.0)
    aq = np.full((1, 1), 1.0)
    _, qb = theta_inverse(primed, x, p, z, x, aq)
    assert qb[0, 0] == pytest.approx(2.0)
    # forward evaluation of DzH' reproduces the target
    assert primed.Hzp(p, qb, z, feats)[0, 0] == pytest.approx(1.0)


def test_theta_round_trip_random_points():
    cs = make_lq_model(CONE, ModelConstants(clamp_m=5.0))
    primed = split_q(cs)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        X = rng.standard_normal((1, 8))
        ax = rng.standard_normal((1, 8))
        p = rng.standard_normal((1, 1))
        z = rng.uniform(-4, 4, (1, 1))  # inside the clamp region
        aq = rng.standard_normal((1, 1))
        U, qb = theta_inverse(primed, X, p, z, ax, aq)
        feats = conditional_features(X, U)
        rx = cs.F(X, 0.5 * (p + qb), U, z, feats) - ax
        rq = primed.Hzp(p, qb, z, feats) - aq
        worst = max(worst, float(np.max(np.abs(rx))), float(np.max(np.abs(rq))))
    assert worst <= 1e-8


def test_clamped_theta_is_the_in_theta_clip():
    # the clamp wraps theta as it wraps F, G, Hz and LH; theta_H is the
    # closed form with z clipped at the level, to the bit
    level = 0.3
    cs = make_lq_model(CONE, ModelConstants(clamp_m=level))
    rng = np.random.default_rng(4)
    X, ax = rng.standard_normal((2, 6, 8))
    p, z, aq = rng.standard_normal((3, 6, 1))
    z[:3] *= 10.0  # some beyond the level
    U, qb = theta_inverse(split_q(cs), X, p, z, ax, aq)
    assert np.array_equal(qb, 2.0 * (aq - np.clip(z, -level, level)) / CONE.b - p)
    assert np.array_equal(U, ax)
    unclamped = theta_inverse(split_q(make_lq_model(CONE, ModelConstants())), X, p, z, ax, aq)[1]
    assert not np.array_equal(qb, unclamped)


MAPS = ("F", "G", "Hz", "LH", "g", "psi", "theta")


def test_equal_params_share_their_maps():
    a = make_lq_model(CONE, ModelConstants())
    b = make_lq_model(LQParams(**vars(CONE)), ModelConstants(sigma=0.1, sigma0=2.0, discount=0.5), region_radius=5.0)
    assert all(getattr(a, name) is getattr(b, name) for name in MAPS)
    other = make_lq_model(LQParams(c1=1.0, c3=0.5, g1=1.0, b=2.0, p1=1.0), ModelConstants())
    assert all(getattr(a, name) is not getattr(other, name) for name in MAPS)
    zero, zero_too = make_zero_model(), make_zero_model(ModelConstants(sigma0=1.0))
    assert all(getattr(zero, name) is getattr(zero_too, name) for name in MAPS)
    assert all(getattr(zero, name) is not getattr(a, name) for name in MAPS)
    # a finite clamp wraps the maps of equal params at one level once
    clamped = make_lq_model(CONE, ModelConstants(clamp_m=2.0))
    clamped_too = make_lq_model(LQParams(**vars(CONE)), ModelConstants(sigma0=1.0, clamp_m=2.0), region_radius=5.0)
    assert all(getattr(clamped, name) is getattr(clamped_too, name) for name in MAPS)
    assert clamp_coefficients(a, 2.0).G is clamped.G
    other_level = make_lq_model(CONE, ModelConstants(clamp_m=3.0))
    for name in ("F", "G", "Hz", "LH", "theta"):  # the clamp wraps the maps that take z
        assert getattr(clamped, name) is not getattr(a, name) and getattr(clamped, name) is not getattr(other_level, name)
    assert clamped.g is a.g and clamped.psi is a.psi


def test_zero_model_theta_zero_target():
    cs = make_zero_model()
    primed = split_q(cs)
    x, p, u, z, feats = point(q=1.3)
    U, qb = theta_inverse(primed, x, p, z, np.zeros((1, 1)), np.zeros((1, 1)))
    assert np.all(U == 0.0)
    assert np.allclose(qb, p)


def test_lq_zero_params_is_zero_model():
    cs = make_lq_model(LQParams(), ModelConstants())
    x, q, u, z, feats = point(1.0, 1.0, 0.0, 1.0)
    F, G, Hz, LH = coefficients(cs, x, q, u, z, feats)
    assert np.all(G == 0) and np.all(LH[..., :] == -0.5)  # only the -z^2/2 term


def test_declared_lipschitz_ratio_bound():
    # sampled ratios never exceed C_coef + omega(max |z|) within the region
    cs = make_lq_model(CONE, ModelConstants(), region_radius=3.0)
    rng = np.random.default_rng(3)
    bound_violation = 0.0
    for _ in range(1000):
        xa, xb = rng.uniform(-3, 3, (2, 1, 6))
        ua, ub = rng.uniform(-3, 3, (2, 1, 6))
        qa, qb = rng.uniform(-3, 3, (2, 1, 1))
        za, zb = rng.uniform(-3, 3, (2, 1, 1))
        fa = conditional_features(xa, ua)
        fb = conditional_features(xb, ub)
        va = coefficients(cs, xa, qa, ua, za, fa)
        vb = coefficients(cs, xb, qb, ub, zb, fb)
        w2 = math.hypot(sorted_distance(xa, xb), sorted_distance(ua, ub))
        for a, b in zip(va, vb):
            num = float(np.max(np.abs(a - b)))
            den = float(
                np.max(np.abs(xa - xb)) + np.max(np.abs(qa - qb)) + np.max(np.abs(ua - ub))
                + np.max(np.abs(za - zb)) + w2
            )
            limit = cs.c_coef + cs.omega(max(abs(za[0, 0]), abs(zb[0, 0]))) + 1e-9
            bound_violation = max(bound_violation, num / den - limit)
    assert bound_violation <= 0.0


def test_monotonicity_data_validation():
    data = lq_monotonicity_data(CONE, ModelConstants())
    data.validate_monotone()
    assert data.kappa > 0 and data.beta0 > 0
    assert data.a == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        MonotonicityData(a=1.0, kappa=1.0, beta0=1.0, C_M=0.0, C_H=0.0, delta=2.0)


def test_constants_validation():
    with pytest.raises(ConfigurationError):
        ModelConstants(sigma=-1.0)
    with pytest.raises(ConfigurationError):
        ModelConstants(clamp_m=0.0)
    with pytest.raises(ConfigurationError) as err:
        ModelConstants(sigma=-1.0, clamp_m=0.0)
    assert err.value.violations == ["sigma must be >= 0, got -1.0", "clamp level must be positive, got 0.0"]
    with pytest.raises(ConfigurationError) as err:  # NaN compares False either way
        ModelConstants(sigma=math.nan, sigma0=math.nan, discount=math.nan, clamp_m=math.nan)
    assert err.value.violations == [
        "sigma must be >= 0, got nan", "sigma0 must be >= 0, got nan", "discount must be >= 0, got nan",
        "clamp level must be positive, got nan",
    ]
    with pytest.raises(TypeError):  # states are scalar: there is no dimension to set
        ModelConstants(d=1)
