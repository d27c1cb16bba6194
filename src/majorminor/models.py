"""Problem instances: coefficient tuples, clamping, q-doubling, and the
Lipschitz inverse used to parametrize the decoupled system.

A `CoefficientSet` carries the six maps (F, G, Hz, LH, g, psi) plus constants.
States are scalar (minor and major state dimension 1).  Conventions for
vectorized evaluation:

- particle-borne args: x, u           shape (M, P)
- scenario-borne args: q, z           shape (M, 1)
- conditional-law features            ScenarioFeatures with (M, 1) arrays
- outputs: F, G, g -> (M, P); Hz, LH, psi -> (M, 1)

Measure dependence is restricted to the declared moment, the scenario mean
of X: exact for the shipped linear-quadratic family, and O(P) to evaluate.

The maps read only their arguments: `theta(X, p, z, alpha_x, alpha_q)` takes
no coefficient set, and the z clamp is a wrapper that `clamp_coefficients`
puts around theta as around F, G, Hz and LH.  So two instances whose maps are
the same objects compute the same function, whatever their constants: they
may share a stacked solve (see `solver.stack_key`), which calls the maps once
for all of its instances.  Their callers only read what the maps return, so
the shipped theta returns its alpha_x argument as theta_F, without a copy.
`make_lq_model` returns the same map objects for equal `LQParams` and clamp
level, and `make_zero_model` the same ones every time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "ModelConstants",
    "CoefficientSet",
    "PrimedCoefficientSet",
    "LQParams",
    "MonotonicityData",
    "clamp_coefficients",
    "split_q",
    "theta_inverse",
    "make_lq_model",
    "make_zero_model",
    "lq_monotonicity_data",
]


@dataclass(frozen=True)
class ModelConstants:
    """Volatilities, discount and clamp level of one instance."""

    sigma: float = 0.5
    sigma0: float = 0.5
    discount: float = 0.0  # coefficient of the phi term in the major driver
    clamp_m: float = math.inf

    def __post_init__(self):
        problems = []
        if not (self.sigma >= 0):
            problems.append(f"sigma must be >= 0, got {self.sigma}")
        if not (self.sigma0 >= 0):
            problems.append(f"sigma0 must be >= 0, got {self.sigma0}")
        if not (self.discount >= 0):
            problems.append(f"discount must be >= 0, got {self.discount}")
        if not (self.clamp_m > 0):
            problems.append(f"clamp level must be positive, got {self.clamp_m}")
        if problems:
            raise ConfigurationError(problems)


@dataclass(frozen=True)
class CoefficientSet:
    """The coefficient tuple of one major-minor instance.

    The z clamp level is `constants.clamp_m`.  `theta(X, p, z, alpha_x,
    alpha_q)` is the closed-form inverse of the pair map (U, qb) -> (F',
    DzH') at frozen (X, qf, z).
    `grad_alpha_L` exposes the control-gradient of the minor Lagrangian for
    optimality-residual checks.
    """

    F: Callable
    G: Callable
    Hz: Callable
    LH: Callable
    g: Callable
    psi: Callable
    constants: ModelConstants
    c_coef: float
    omega: Callable[[float], float]
    theta: Callable
    grad_alpha_L: Callable


def clamp_coefficients(cs: CoefficientSet, level: float) -> CoefficientSet:
    """Truncate the z argument of (F, G, Hz, LH, theta) at `level` componentwise.

    Identity for an infinite level; the returned set agrees with the input
    wherever |z| <= level and is globally Lipschitz in z afterwards.  Equal
    maps clamped at one level share their wrappers.
    """
    if not (level > 0):
        raise ConfigurationError([f"clamp level must be positive, got {level}"])
    if math.isinf(level):
        return cs
    clipped = _clip_z(cs.F, cs.G, cs.Hz, cs.LH, cs.theta, level)
    return replace(cs, **clipped, constants=replace(cs.constants, clamp_m=float(level)))


@functools.cache
def _clip_z(F, G, Hz, LH, theta, level: float) -> Mapping[str, Callable]:
    """(F, G, Hz, LH, theta) wrapped to truncate their z argument at `level`
    componentwise, built once per distinct maps and level (maps hash by
    identity): equal maps and level share the wrappers."""

    def clip(z):
        return np.clip(z, -level, level)

    return MappingProxyType({
        "F": lambda x, q, u, z, f: F(x, q, u, clip(z), f),
        "G": lambda x, q, u, z, f: G(x, q, u, clip(z), f),
        "Hz": lambda q, z, f: Hz(q, clip(z), f),
        "LH": lambda q, z, f: LH(q, clip(z), f),
        "theta": lambda X, p, z, ax, aq: theta(X, p, clip(z), ax, aq),
    })


@dataclass(frozen=True)
class PrimedCoefficientSet:
    """Coefficients of the doubled system: the major state argument is the
    midpoint (qf + qb)/2 of its forward and backward copies."""

    base: CoefficientSet

    def Gp(self, x, qf, qb, u, z, feats):
        return self.base.G(x, 0.5 * (qf + qb), u, z, feats)

    def Hzp(self, qf, qb, z, feats):
        return self.base.Hz(0.5 * (qf + qb), z, feats)

    def LHp(self, qf, qb, z, feats):
        return self.base.LH(0.5 * (qf + qb), z, feats)

    @property
    def g(self):
        return self.base.g

    @property
    def psi(self):
        return self.base.psi

    @property
    def constants(self):
        return self.base.constants


def split_q(cs: CoefficientSet) -> PrimedCoefficientSet:
    """Doubled coefficients; callers clamp first so the pair map stays
    globally Lipschitz."""
    return PrimedCoefficientSet(base=cs)


def theta_inverse(
    primed: PrimedCoefficientSet,
    X: np.ndarray,
    p: np.ndarray,
    z: np.ndarray,
    alpha_x: np.ndarray,
    alpha_q: np.ndarray,
):
    """Invert (U, qb) -> (F', DzH')(X, U, p, qb, z, law(X, U)) at a target.

    Returns (U, qb) with F' = alpha_x and DzH' = alpha_q, by the model's
    closed form.
    """
    return primed.base.theta(X, p, z, alpha_x, alpha_q)


# ---------------------------------------------------------------------------
# Linear-quadratic family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LQParams:
    """Scalar linear-quadratic family.

    Minor players: Lagrangian |alpha|^2/2 + state costs, so the optimal drift
    is the costate itself:
        F = u
        G = c1*x + c2*q + c3*(x - mean_x)
        g = g1*x + g2*q
    Major player: Hamiltonian b*q*z + z^2/2 - r1*q^2/2 - r2*q*mean_x:
        Hz = b*q + z
        LH = -z^2/2 - r1*q^2/2 - r2*q*mean_x
        psi = p1*q^2/2 + p2*q*mean_x
    The cone b > 0, c1 + c3 > 0, g1 > 0 (with p1 > 0) is jointly monotone for
    a suitable weight a > 0; the verification module measures it.
    """

    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    b: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    p1: float = 0.0
    p2: float = 0.0


@functools.cache
def _lq_maps(params: LQParams) -> Mapping[str, Callable]:
    """The maps of the LQ family at `params`, built once per distinct params
    (frozen, so hashable; the cache holds one entry per params in use):
    equal params share the map objects."""
    c1, c2, c3 = params.c1, params.c2, params.c3
    c13 = c1 + c3
    g1, g2, b = params.g1, params.g2, params.b
    r1, r2, p1, p2 = params.r1, params.r2, params.p1, params.p2

    def F(x, q, u, z, f):
        return u + 0.0 * q  # broadcast against the scenario axis

    def G(x, q, u, z, f):
        # c1*x + c2*q + c3*(x - mean_x), as (c1 + c3)*x plus the scenario
        # terms: two passes over the particles
        out = c13 * x
        out += c2 * q - c3 * f.mean_x
        return out

    def Hz(q, z, f):
        return b * q + z

    def LH(q, z, f):
        return -0.5 * (z * z) - 0.5 * r1 * (q * q) - r2 * (q * f.mean_x)

    def g(x, q, f):
        return g1 * x + g2 * q

    def psi(q, f):
        return 0.5 * p1 * (q * q) + p2 * (q * f.mean_x)

    # theta_F: grad_alpha L = alpha is self-inverse, so theta_F is alpha_x
    # itself, not a copy (see the module docstring).  theta_H solves
    # b*(p+qb)/2 + z = alpha_q; the b = 0 family is degenerate in q and
    # returns the forward copy.
    def theta(X, p, z, alpha_x, alpha_q):
        if b == 0.0:
            qb = np.array(np.broadcast_to(p, np.broadcast_shapes(p.shape, alpha_q.shape)), copy=True)
        else:
            qb = 2.0 * (alpha_q - z) / b - p
        return alpha_x, qb

    return MappingProxyType({
        "F": F, "G": G, "Hz": Hz, "LH": LH, "g": g, "psi": psi, "theta": theta,
        "omega": lambda m: float(m), "grad_alpha_L": lambda x, q, a, f: a,
    })


def make_lq_model(
    params: LQParams, constants: ModelConstants, region_radius: float = 3.0
) -> CoefficientSet:
    """Coefficient set of the linear-quadratic family.

    `region_radius` bounds the state region used for the declared Lipschitz
    constant (quadratic costs are only locally Lipschitz).  Equal params and
    `constants.clamp_m` give the same map objects: `clamp_coefficients`
    wraps the maps of equal params at one level once.
    """
    c1, c2, c3 = params.c1, params.c2, params.c3
    g1, g2, b = params.g1, params.g2, params.b
    r1, r2, p1, p2 = params.r1, params.r2, params.p1, params.p2
    R = float(region_radius)
    c_coef = max(
        1.0,
        abs(c1 + c3),
        abs(c2),
        abs(c3),
        abs(b),
        abs(g1),
        abs(g2),
        (abs(r1) + abs(r2)) * R,
        (abs(p1) + abs(p2)) * R,
    )
    cs = CoefficientSet(constants=constants, c_coef=c_coef, **_lq_maps(params))
    return clamp_coefficients(cs, constants.clamp_m)


@functools.cache
def _zero_maps() -> Mapping[str, Callable]:
    """The maps of the zero model, built once: every zero model shares them."""

    def zero_particle(x, q, u, z, f):
        return np.zeros(np.broadcast_shapes(x.shape, u.shape))

    def zero_scen(q, z, f):
        return np.zeros_like(q)

    def theta(X, p, z, ax, aq):
        # The pair map vanishes identically; only the zero target is
        # invertible and it maps to (0, qf): theta_F is the target itself.
        return ax, np.array(np.broadcast_to(p, p.shape), copy=True)

    return MappingProxyType({
        "F": zero_particle, "G": zero_particle, "Hz": zero_scen, "LH": zero_scen,
        "g": lambda x, q, f: np.zeros_like(x), "psi": lambda q, f: np.zeros_like(q), "theta": theta,
        "omega": lambda m: 0.0, "grad_alpha_L": lambda x, q, a, f: a,
    })


def make_zero_model(constants: ModelConstants | None = None) -> CoefficientSet:
    """All coefficients identically zero; theta of a zero target is zero."""
    constants = constants or ModelConstants(sigma=0.0, sigma0=0.0)
    return CoefficientSet(constants=constants, c_coef=0.0, **_zero_maps())


# ---------------------------------------------------------------------------
# Monotonicity data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityData:
    """Constants of the joint monotonicity inequalities and the growth
    functions feeding the volatility thresholds; `a` weighs the major-state
    terms of the inequalities."""

    a: float
    kappa: float
    beta0: float
    C_M: float
    C_H: float
    delta: float
    omega: Callable[[float], float] = lambda m: 0.0
    K: Callable[[float], float] = lambda m: 0.0

    def __post_init__(self):
        if not (0.0 <= self.delta <= 1.0):
            raise ConfigurationError([f"delta must lie in [0,1], got {self.delta}"])

    def validate_monotone(self):
        if self.kappa <= 0 or self.beta0 <= 0:
            raise ConfigurationError(
                [f"monotone mode needs kappa, beta0 > 0, got ({self.kappa}, {self.beta0})"]
            )


def lq_monotonicity_data(
    params: LQParams,
    constants: ModelConstants,
    a_scale: float = 1.0,
    region_radius: float = 3.0,
) -> MonotonicityData:
    """Analytic monotonicity constants of an LQ instance for the weight
    a = a_scale.

    kappa is half the smallest Rayleigh quotient of the joint coefficient
    form (the other half absorbs the z cross terms; see `K`/`C_M` below),
    beta0 comes from completing the square in the terminal inequality on the
    stated region.  C_M and K derive from the declared (C_coef, omega) by a
    Cauchy-Schwarz absorption with equal splitting.
    """
    a = float(a_scale)
    R = float(region_radius)
    cs = make_lq_model(params, constants, region_radius=R)
    # Rayleigh bound of the coefficient form along (|dX|, |dU|, |dq|) after
    # bounding the mean-interaction term by the full x-displacement.
    block = np.array(
        [
            [params.c1 if params.c3 >= 0 else params.c1 + 2 * params.c3, -abs(params.c2) / 2.0],
            [-abs(params.c2) / 2.0, a * params.b],
        ]
    )
    kappa_pair = float(np.min(np.linalg.eigvalsh(block)))
    kappa_eq = min(1.0, kappa_pair)  # the F-block contributes |dU|^2 exactly
    # Terminal inequality: g1|dX|^2 - |g2||dq||dX| + a|dq|^2/2 >= beta0 |dpsi|^2
    # with |dpsi| <= (|p1| + |p2|) R |dq| on the sampling region.
    lip_psi = (abs(params.p1) + abs(params.p2)) * R
    if params.g1 > 0:
        quad = 0.5 * a - params.g2**2 / (4.0 * params.g1)
    else:
        quad = 0.5 * a if params.g2 == 0 else 0.0
    beta0 = max(quad, 0.0) / lip_psi**2 if lip_psi > 0 else max(quad, 0.0)
    C_H = (abs(params.r1) + 2.0 * abs(params.r2)) * R
    c_slack = (2.0 + a) ** 2 / kappa_eq if kappa_eq > 0 else math.inf
    return MonotonicityData(
        a=a,
        kappa=0.5 * kappa_eq,
        beta0=beta0,
        C_M=c_slack * cs.c_coef**2 if math.isfinite(c_slack) else 0.0,
        C_H=C_H,
        delta=0.0,
        omega=cs.omega,
        K=(lambda m, _c=c_slack: _c * float(m) ** 2) if math.isfinite(c_slack) else (lambda m: 0.0),
    )
