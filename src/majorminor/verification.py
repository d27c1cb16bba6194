"""Numerical certification of the structural inequalities behind the solver.

Every check is a pure function of its inputs and a seed, samples random
Gaussian-mixture particle clouds (the documented generator below), reports
the worst margin together with its Monte Carlo standard error, and carries a
replayable witness when it fails.  Pass thresholds are stated as
margin >= -3 * SE so sampling noise cannot flip an analytically true
inequality into a failure except with probability ~0.3%.  A pass is
statistical evidence on the sampled region, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import strict_json
from .ensembles import ControlField, conditional_features
from .errors import ConfigurationError
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
    worst = math.inf
    worst_se = 0.0
    witness = None
    for i in range(samples):
        rng = _sample_rng(seed, i)
        X = sample_cloud(rng, _CLOUD_PARTICLES)[None]
        Y = sample_cloud(rng, _CLOUD_PARTICLES)[None]
        q = rng.normal(0.0, _SPREAD, (1, 1))
        qp = rng.normal(0.0, _SPREAD, (1, 1))
        fx = conditional_features(X)
        fy = conditional_features(Y)
        pair = ((cs.g(X, q, fx) - cs.g(Y, qp, fy)) * (X - Y))[0]
        dq = (q - qp)[0, 0]
        quad = 0.5 * float(dq * a * dq)
        dpsi = float(cs.psi(q, fx)[0, 0] - cs.psi(qp, fy)[0, 0])
        margin = float(pair.mean()) + quad - beta0 * dpsi * dpsi
        se = float(pair.std(ddof=1) / math.sqrt(_CLOUD_PARTICLES))
        if margin < worst:
            worst, worst_se = margin, se
            witness = {"sample": i, "q": q.ravel().tolist(), "q_prime": qp.ravel().tolist(), "margin": margin}
    passed = worst >= -3.0 * worst_se
    return CertificationReport(
        name="terminal_monotonicity",
        passed=bool(passed),
        margin=worst,
        se=worst_se,
        samples=samples,
        seed=seed,
        witness=None if passed else witness,
    )


def check_coefficient_monotonicity(
    cs: CoefficientSet,
    a: float,
    samples: int = 200,
    seed: int = 0,
    z_pairs: bool = False,
    kappa: float | None = None,
    slack: tuple[float, "callable"] | None = None,
) -> CertificationReport:
    """Joint monotonicity of the coefficient triple (G, F, a DzH).

    With z_pairs=False this estimates kappa_hat, the smallest Rayleigh
    quotient of the shared-z form; pass means kappa_hat >= -3 SE.  With
    z_pairs=True the slack inequality with (C_M + K(|z| ^ |z'|)) |z - z'|^2
    against kappa |dX|^2 is verified instead (`slack` = (C_M, K), `kappa`
    required).
    """
    _require_draws("samples", samples)
    worst = math.inf
    worst_se = 0.0
    witness = None
    used = 0
    for i in range(samples):
        rng = _sample_rng(seed, 1_000_000 + i)
        X, Y, U, V = (sample_cloud(rng, _CLOUD_PARTICLES)[None] for _ in range(4))
        q = rng.normal(0.0, _SPREAD, (1, 1))
        qp = rng.normal(0.0, _SPREAD, (1, 1))
        z = rng.normal(0.0, _SPREAD, (1, 1))
        zp = rng.normal(0.0, _SPREAD, (1, 1)) if z_pairs else z
        fxu = conditional_features(X, U)
        fyv = conditional_features(Y, V)
        dg = ((cs.G(X, q, U, z, fxu) - cs.G(Y, qp, V, zp, fyv)) * (X - Y))[0]
        df = ((cs.F(X, q, U, z, fxu) - cs.F(Y, qp, V, zp, fyv)) * (U - V))[0]
        dhz = (cs.Hz(q, z, fxu) - cs.Hz(qp, zp, fyv))[0, 0]
        dq = (q - qp)[0, 0]
        lhs = float(dg.mean()) + float(df.mean()) + float(a * dhz * dq)
        den = float(np.mean((X - Y) ** 2) + np.mean((U - V) ** 2) + dq * dq)
        if den < 1e-12:
            continue  # degenerate pair policy
        used += 1
        se_lhs = float((dg + df).std(ddof=1) / math.sqrt(_CLOUD_PARTICLES))
        if z_pairs:
            c_m, K = slack if slack is not None else (0.0, lambda m: 0.0)
            zmin = min(float(np.linalg.norm(z)), float(np.linalg.norm(zp)))
            dz2 = float(np.sum((z - zp) ** 2))
            margin = lhs + (c_m + K(zmin)) * dz2 - (kappa or 0.0) * den
            se = se_lhs
        else:
            margin = lhs / den
            se = se_lhs / den
        if margin < worst:
            worst, worst_se = margin, se
            witness = {
                "sample": i,
                "q": q.ravel().tolist(),
                "q_prime": qp.ravel().tolist(),
                "z": z.ravel().tolist(),
                "margin": margin,
            }
    passed = worst >= -3.0 * worst_se
    name = "coefficient_monotonicity_zpair" if z_pairs else "coefficient_monotonicity"
    return CertificationReport(
        name=name,
        passed=bool(passed),
        margin=worst,
        se=worst_se,
        samples=used,
        seed=seed,
        witness=None if passed else witness,
        extras={"kappa_hat": worst} if not z_pairs else {},
    )


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


def check_v_monotonicity(
    op,
    pairs: int = 20,
    seed: int = 0,
) -> CertificationReport:
    """Monotonicity of the control-space operator on random control pairs.

    Reports the minimum inner product <v(a)-v(b), a-b>_T and the minimum
    Rayleigh quotient eta_hat over the sampled pairs.
    """
    _require_draws("pairs", pairs)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    dt = op.grid.dt
    worst_ip = math.inf
    worst_se = 0.0
    eta_hat = math.inf
    witness = None
    for i in range(pairs):
        a = _probe_control(op, rng, _PAIR_SCALE)
        b = _probe_control(op, rng, _PAIR_SCALE)
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
        name="v_monotonicity",
        passed=bool(passed),
        margin=worst_ip,
        se=worst_se,
        samples=pairs,
        seed=seed,
        witness=None if passed else witness,
        extras={"eta_hat": eta_hat},
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
    se = float(np.max(solve.diagnostics.get("se_zphi", [0.0])))
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
