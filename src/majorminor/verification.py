"""Numerical certification of the structural inequalities behind the solver.

Every check is a pure function of its inputs and a seed, samples random
Gaussian-mixture particle clouds (the documented generator below), reports
the worst margin together with its Monte Carlo standard error, and carries a
replayable witness when it fails.  The sampled checks (terminal, coefficient
and v monotonicity) decide by one rule, written once in `_verdict`: the
first smallest margin over the samples that count decides, and the check
passes when that margin is >= -3 * SE, so sampling noise cannot flip an
analytically true inequality into a failure except with probability ~0.3%.
`check_monotonicity_propagation` is stricter: it passes only when every
grid node has E[V] >= -3 * SE.  A pass is statistical evidence on the
sampled region, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import strict_json
from .ensembles import ControlField, conditional_features
from .errors import ConfigurationError, MajorMinorError
from .extragradient import run_lockstep
from .grids import TimeGrid
from .models import CoefficientSet, MonotonicityData
from .solver import SolveOutput

__all__ = [
    "CertificationReport",
    "sample_cloud",
    "check_terminal_monotonicity",
    "check_coefficient_monotonicity",
    "check_v_monotonicity",
    "check_z_bound",
    "check_monotonicity_propagation",
    "compute_thresholds",
    "ThresholdReport",
    "check_pontryagin_residual",
]


@dataclass
class CertificationReport:
    """One check's outcome: worst margin, its standard error, and a witness
    for replay when the check failed."""

    name: str
    passed: bool
    margin: float
    se: float
    samples: int
    seed: int
    witness: dict | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Strict JSON (see `artifacts`): a non-finite margin reads null."""
        return strict_json(self.__dict__, indent=2)


# sampling of the hypothesis checks: particles per cloud, and the half-width
# of the cloud centers, also the standard deviation of the sampled q and z
_CLOUD_PARTICLES = 256
_SPREAD = 1.5
_PAIR_SCALE = 0.7  # scale of the v-monotonicity probe controls
# samples a hypothesis check evaluates at once: each (32, 256) array takes
# 64 KB, under glibc's default 128 KB mmap threshold.  Freeing larger arrays
# raises that threshold and leaves the freed heap untrimmed: 200 samples at
# once held about 0.5 MB more through the `small_study` sweep that follows
_BLOCK = 32


def sample_cloud(rng: np.random.Generator, n_particles: int) -> np.ndarray:
    """Two-component Gaussian mixture with random centers and scales; the
    documented sampling distribution of the hypothesis checks."""
    centers = rng.uniform(-_SPREAD, _SPREAD, 2)
    scales = rng.uniform(0.3, 1.0, 2)
    comp = rng.integers(0, 2, n_particles)
    return centers[comp] + scales[comp] * rng.standard_normal(n_particles)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _require_draws(name: str, count: int) -> None:
    # with nothing drawn the minimum margin stays at +inf and would pass
    if count < 1:
        raise ConfigurationError([f"{name} must be >= 1, got {count}"])


def _blocks(seed: int, offset: int, samples: int, clouds: int, scalars: int):
    """The draws of a hypothesis check, `_BLOCK` samples at a time: sample i
    takes `clouds` clouds, then `scalars` N(0, _SPREAD) values, from its own
    `_sample_rng(seed, offset + i)`.  Yields per block `clouds` (n,
    _CLOUD_PARTICLES) arrays, each cloud of the block's samples laid out as
    the scenarios of one slice, which the maps take in one call, and
    `scalars` (n, 1) columns."""
    for start in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - start)
        cloud = [np.empty((n, _CLOUD_PARTICLES)) for _ in range(clouds)]
        scalar = np.empty((scalars, n, 1))
        for i in range(n):
            rng = _sample_rng(seed, offset + start + i)
            for c in cloud:
                c[i] = sample_cloud(rng, _CLOUD_PARTICLES)
            scalar[:, i, 0] = rng.normal(0.0, _SPREAD, scalars)
        yield cloud, scalar


def _verdict(name: str, margins, ses, seed: int, witness, kept=None, extras=None) -> CertificationReport:
    """The one rule of the sampled checks.  Of the samples that count (those
    with `kept[i]` true, all when `kept` is None), the first smallest margin
    decides, and the check passes when that margin is >= -3 * its SE;
    `samples` is how many counted.  `witness(i)` builds the replay record of
    sample i and is called only when the check fails."""
    worst, worst_se, index, counted = math.inf, 0.0, None, 0
    for i, margin in enumerate(margins):
        if kept is not None and not kept[i]:
            continue
        counted += 1
        if margin < worst:
            worst, worst_se, index = margin, ses[i], i
    passed = worst >= -3.0 * worst_se
    return CertificationReport(
        name=name,
        passed=bool(passed),
        margin=worst,
        se=worst_se,
        samples=counted,
        seed=seed,
        witness=None if passed else witness(index),
        extras=extras or {},
    )


def check_terminal_monotonicity(
    cs: CoefficientSet,
    a: float,
    beta0: float,
    samples: int = 200,
    seed: int = 0,
) -> CertificationReport:
    """Joint monotonicity of the terminal pair (g, psi).

    Checks <g(X,q,L(X)) - g(Y,q',L(Y)), X - Y> + a (q-q')^2/2
    >= beta0 |psi(q,L(X)) - psi(q',L(Y))|^2 on sampled cloud pairs.
    """
    _require_draws("samples", samples)
    rows = []
    for (X, Y), (q, qp) in _blocks(seed, 0, samples, 2, 2):
        fx = conditional_features(X)
        fy = conditional_features(Y)
        # one row per sample, each reduced along its own particles
        pair = (cs.g(X, q, fx) - cs.g(Y, qp, fy)) * (X - Y)
        dq = (q - qp)[:, 0]
        dpsi = (cs.psi(q, fx) - cs.psi(qp, fy))[:, 0]
        margin = pair.mean(axis=1) + 0.5 * (dq * a * dq) - beta0 * dpsi * dpsi
        rows.append((margin, pair.std(axis=1, ddof=1) / math.sqrt(_CLOUD_PARTICLES), q[:, 0], qp[:, 0]))
    margins, ses, q, qp = (np.concatenate(column).tolist() for column in zip(*rows))
    return _verdict(
        "terminal_monotonicity", margins, ses, seed,
        lambda i: {"sample": i, "q": [q[i]], "q_prime": [qp[i]], "margin": margins[i]},
    )


def check_coefficient_monotonicity(
    cs: CoefficientSet,
    a: float,
    samples: int = 200,
    seed: int = 0,
    slack: tuple[float, float, "callable"] | None = None,
) -> CertificationReport:
    """Joint monotonicity of the coefficient triple (G, F, a DzH).

    Without `slack` each sample shares one z between its two sides, and the
    check estimates kappa_hat, the smallest Rayleigh quotient lhs / |d|^2 of
    that form (reported in extras), where |d|^2 = |X-Y|^2 + |U-V|^2 +
    (q-q')^2; pass means kappa_hat >= -3 SE.  With `slack` = (kappa, C_M, K)
    each side draws its own z, and the z-pair inequality
    lhs + (C_M + K(|z| ^ |z'|)) |z - z'|^2 >= kappa |d|^2 is checked
    instead.  Pairs with |d|^2 < 1e-12 do not count.
    """
    _require_draws("samples", samples)
    z_pairs = slack is not None
    rows = []
    for (X, Y, U, V), scalar in _blocks(seed, 1_000_000, samples, 4, 4 if z_pairs else 3):
        q, qp, z = scalar[:3]
        zp = scalar[3] if z_pairs else z
        fxu = conditional_features(X, U)
        fyv = conditional_features(Y, V)
        # one row per sample, each reduced along its own particles
        dg = (cs.G(X, q, U, z, fxu) - cs.G(Y, qp, V, zp, fyv)) * (X - Y)
        df = (cs.F(X, q, U, z, fxu) - cs.F(Y, qp, V, zp, fyv)) * (U - V)
        dhz = (cs.Hz(q, z, fxu) - cs.Hz(qp, zp, fyv))[:, 0]
        dq = (q - qp)[:, 0]
        lhs = dg.mean(axis=1) + df.mean(axis=1) + a * dhz * dq
        den = np.mean((X - Y) ** 2, axis=1) + np.mean((U - V) ** 2, axis=1) + dq * dq
        se = (dg + df).std(axis=1, ddof=1) / math.sqrt(_CLOUD_PARTICLES)
        if z_pairs:
            kappa, c_m, K = slack
            # |z| as np.linalg.norm takes it of one value
            zmin = np.minimum(np.sqrt(z * z), np.sqrt(zp * zp))[:, 0].tolist()
            dz2 = ((z - zp) ** 2)[:, 0]
            margin = lhs + np.array([c_m + K(m) for m in zmin]) * dz2 - kappa * den
        else:
            margin, se = lhs / den, se / den
        rows.append((margin, se, den, q[:, 0], qp[:, 0], z[:, 0]))
    margins, ses, den, q, qp, z = (np.concatenate(column).tolist() for column in zip(*rows))
    report = _verdict(
        "coefficient_monotonicity_zpair" if z_pairs else "coefficient_monotonicity",
        margins, ses, seed,
        lambda i: {"sample": i, "q": [q[i]], "q_prime": [qp[i]], "z": [z[i]], "margin": margins[i]},
        kept=[not d < 1e-12 for d in den],  # degenerate pair policy
    )
    if not z_pairs:
        report.extras["kappa_hat"] = report.margin
    return report


def _probe_control(op, rng, scale: float):
    """Random control with a persistent (constant-in-time) component.

    White-in-time probes hardly couple through the dynamics (their time
    integrals cancel), so violations of monotonicity would stay invisible;
    the constant part excites the compositional structure.
    """
    rough = op.random_control(rng, 0.4 * scale)
    m, p, _ = rough.alpha_x.shape
    const_x = scale * rng.standard_normal((m, p, 1))
    const_q = scale * rng.standard_normal((m, 1))
    return ControlField(rough.alpha_x + const_x, rough.alpha_q + const_q)


def _draw_plan(op, rng):
    """One draw of the pair check as a plan: its control is drawn when the
    plan starts; returns (control, value)."""
    control = _probe_control(op, rng, _PAIR_SCALE)
    value = yield control
    return control, value


def _pair_terms(op, a, va, b, vb):
    """(<v(a)-v(b), a-b>_T, its standard error over the scenarios,
    ||a-b||_T^2) of one pair."""
    diff = a - b
    dv = va - vb
    per_scen = op.grid.dt * (
        (dv.alpha_x * diff.alpha_x).mean(axis=1).sum(axis=1)
        + (dv.alpha_q * diff.alpha_q).sum(axis=1)
    )
    return float(per_scen.mean()), float(per_scen.std(ddof=1) / math.sqrt(per_scen.size)), op.inner(diff, diff)


def check_v_monotonicity(
    op,
    pairs: int = 20,
    seed: int = 0,
) -> CertificationReport:
    """Monotonicity of the control-space operator on random control pairs.

    Reports the minimum inner product <v(a)-v(b), a-b>_T and the minimum
    Rayleigh quotient eta_hat over the sampled pairs; a pair whose controls
    coincide (||a-b||_T^2 < 1e-12) does not count.

    The controls are drawn in pair order, a_0, b_0, a_1, b_1, ..., each by
    a one-evaluation plan that `run_lockstep` runs (thirteen a round at
    12x64x10; one at 32x500x50, through op(control)), with overflow warnings
    silenced; each draw gets the bits of its own solve, so the report does
    not depend on the stacking.  The outcomes come back in draw order, and
    a pair is reduced to its three floats when its second is in.  A failed
    evaluation raises the package error of the first failed draw, the error
    a pair-by-pair loop would raise.
    """
    _require_draws("pairs", pairs)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    terms = []  # (inner product, se, denominator) of each pair
    first = None  # (control, value) of the pair's first draw
    for k, outcome in run_lockstep((k, op, _draw_plan(op, rng)) for k in range(2 * pairs)):
        if isinstance(outcome, MajorMinorError):
            raise outcome
        if k % 2 == 0:
            first = outcome
            continue
        terms.append(_pair_terms(op, *first, *outcome))
        first = outcome = None  # a reduced pair is not held through the next round
    ips, ses, denoms = zip(*terms)
    kept = [not d < 1e-12 for d in denoms]
    return _verdict(
        "v_monotonicity", ips, ses, seed,
        lambda i: {"pair": i, "inner_product": ips[i], "denominator": denoms[i]},
        kept=kept,
        extras={"eta_hat": min((ip / d for ip, d, keep in zip(ips, denoms, kept) if keep), default=math.inf)},
    )


def check_z_bound(
    solve: SolveOutput,
    lip_q_phi: float,
    tol_rel: float = 0.05,
) -> CertificationReport:
    """|Zphi| bounded by the Lipschitz constant of the major value field.

    Under the stored-integrand convention the bound is
    max |Zphi| <= lip_q_phi * (1 + tol_rel) + 3 * regression SE.
    """
    max_z = float(np.max(np.abs(solve.state.Zphi))) if solve.state.Zphi.size else 0.0
    se = float(np.max(solve.diagnostics["se_zphi"]))
    bound = lip_q_phi * (1.0 + tol_rel) + 3.0 * se
    margin = bound - max_z
    return CertificationReport(
        name="z_bound",
        passed=bool(margin >= 0.0),
        margin=margin,
        se=se,
        samples=int(solve.state.Zphi.size),
        seed=0,
        witness=None if margin >= 0 else {"max_abs_zphi": max_z, "bound": bound},
        extras={"max_abs_zphi": max_z, "lip_q_phi": lip_q_phi},
    )


def check_monotonicity_propagation(
    solve1: SolveOutput,
    solve2: SolveOutput,
    a: float,
    beta_schedule,
    grid: TimeGrid,
) -> CertificationReport:
    """Propagated quantity along two coupled solves from distinct starts.

    V_s = <U1-U2, X1-X2> + a (q1-q2)^2/2 - beta(T-s) |phi1-phi2|^2
    must satisfy E[V_s] >= 0 up to Monte Carlo error at every grid node.
    """
    s1, s2 = solve1.state, solve2.state
    X1, X2 = s1.X, s2.X  # built on access: once, not per node
    n = grid.steps
    ev = np.zeros(n + 1)
    se = np.zeros(n + 1)
    for k in range(n + 1):
        du_dx = (s1.u(k, X1) - s2.u(k, X2)) * (X1[:, :, k] - X2[:, :, k])
        pair = du_dx.mean(axis=1)
        dq = s1.qf[:, k] - s2.qf[:, k]
        quad = 0.5 * (dq * a * dq)
        dphi = s1.phi[:, k] - s2.phi[:, k]
        beta = float(beta_schedule(grid.horizon - grid.nodes[k]))
        v = pair + quad - beta * dphi * dphi
        ev[k] = v.mean()
        se[k] = v.std(ddof=1) / math.sqrt(v.size)
    margins = ev + 3.0 * se
    worst = int(np.argmin(margins))
    passed = bool(margins[worst] >= 0.0)
    return CertificationReport(
        name="monotonicity_propagation",
        passed=passed,
        margin=float(ev[worst]),
        se=float(se[worst]),
        samples=s1.U_T.shape[0],
        seed=0,
        witness=None if passed else {"node": worst, "time": float(grid.nodes[worst])},
        extras={"ev": ev, "se": se},
    )


@dataclass
class ThresholdReport:
    """Arithmetic evaluation of the volatility thresholds."""

    gamma_star: float
    beta0: float
    decay_rate: float  # 2*lambda - gamma_star, exponent of beta*(t)
    beta_star_T: float
    sigma0_T: float
    sigma0_star: float | None
    branch: str

    def beta_star(self, t: float) -> float:
        return _beta_star(self.beta0, self.decay_rate, t)


def _beta_star(beta0: float, decay: float, t: float) -> float:
    """beta0 e^{decay t}, inf where `math.exp` overflows."""
    try:
        return beta0 * math.exp(decay * t)
    except OverflowError:
        return math.inf


def compute_thresholds(data: MonotonicityData, lam: float, horizon: float) -> ThresholdReport:
    """Volatility thresholds from the monotonicity constants.

    gamma* = (2/kappa) C_H^2 (|a| + beta0); beta*(t) = beta0 e^{(2 lam - gamma*) t};
    sigma0_T = omega^2(m_T)/(4 gamma*) + (C_M + K(m_T))/beta*(T) with
    m_T = sqrt(|a|/beta*(T)).  Where beta*(T) leaves the float range the
    formula's limits are returned: sigma0_T = inf when it underflows to 0,
    and sigma0_T at beta*(T) = inf when it overflows.  The horizon-free
    threshold exists on two branches: lam >= gamma*/2, or lam > 0 with
    delta < 1 (the smallness condition solved by bisection); otherwise it is
    reported as not computable.
    """
    data.validate_monotone()
    abs_a = abs(data.a)
    gamma_star = (2.0 / data.kappa) * data.C_H**2 * (abs_a + data.beta0)
    decay = 2.0 * lam - gamma_star
    beta_T = _beta_star(data.beta0, decay, horizon)

    def sigma0_at(beta: float, first_factor: float) -> float:
        if beta == 0.0:
            return math.inf
        m = math.sqrt(abs_a / beta)
        w = data.omega(m)
        first = 0.0 if w == 0.0 else (math.inf if first_factor == 0.0 else w**2 / first_factor)
        return first + (data.C_M + data.K(m)) / beta

    sigma0_T = sigma0_at(beta_T, 4.0 * gamma_star)

    sigma0_star = None
    branch = "not computable by the horizon-free theorem"
    if lam > 0 and lam >= gamma_star / 2.0:
        sigma0_star = sigma0_at(data.beta0, 2.0 * lam)
        branch = "strong discount (lam >= gamma*/2)"
    elif lam > 0 and data.delta < 1.0:
        # largest beta with beta C_H^2 (1 + (|a|/beta)^delta) / (4 lam) <= kappa/2
        def small_enough(beta: float) -> bool:
            m = math.sqrt(abs_a / beta)
            return beta * data.C_H**2 * (1.0 + m ** (2.0 * data.delta)) / (4.0 * lam) <= data.kappa / 2.0

        hi = data.beta0
        if small_enough(hi):
            beta_kappa = hi
        else:
            lo = 1e-12
            if not small_enough(lo):
                beta_kappa = lo
            else:
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if small_enough(mid):
                        lo = mid
                    else:
                        hi = mid
                beta_kappa = lo
        beta_star = min(beta_kappa, data.beta0)
        sigma0_star = sigma0_at(beta_star, 2.0 * lam)
        branch = "sublinear growth (lam > 0, delta < 1)"

    return ThresholdReport(
        gamma_star=gamma_star,
        beta0=data.beta0,
        decay_rate=decay,
        beta_star_T=beta_T,
        sigma0_T=sigma0_T,
        sigma0_star=sigma0_star,
        branch=branch,
    )


def check_pontryagin_residual(
    solve: SolveOutput,
    cs: CoefficientSet,
    grid: TimeGrid,
    tol_disc: float,
) -> CertificationReport:
    """Costate-versus-control-gradient residual along a solve.

    ||U - grad_alpha L(X, q, theta_F, law)||_T vanishes at the optimum; the
    check compares against the supplied discretization floor.
    """
    st = solve.state
    X = st.X  # built on access: once, not per step
    n = grid.steps
    total = 0.0
    for k in range(n):
        uk = st.u(k, X)
        theta_F = uk + solve.gap_F[:, :, k]
        feats = conditional_features(X[:, :, k], theta_F)
        grad = cs.grad_alpha_L(X[:, :, k], st.qf[:, k][:, None], theta_F, feats)
        diff = uk - grad
        total += float(np.mean(diff * diff))
    residual = math.sqrt(grid.dt * total)
    passed = residual <= tol_disc
    return CertificationReport(
        name="pontryagin_residual",
        passed=bool(passed),
        margin=tol_disc - residual,
        se=0.0,
        samples=st.U_T.shape[0] * st.U_T.shape[1],
        seed=0,
        witness=None if passed else {"residual": residual, "tol": tol_disc},
        extras={"residual": residual},
    )
