"""Command-line entry points: solve, verify, converge, sigma-sweep, oracle.

Configuration is a JSON document checked against one table, `_TABLE`, that
gives each key its default, its accepted types and its range requirement.
Every number given must be finite, since JSON parsing lets NaN and Infinity
through.  Unknown keys are rejected (with a suggestion), and all violations
are reported at once, before any output directory exists.  Every command gets
its output directory from `_run_dir`, which writes `manifest.json` echoing
the config, the seed, and a checksum of each emitted file.  Re-running a
manifest's config and seed reproduces the CSV bodies byte for byte: all
randomness is derived from the seed, floats are written with 17 significant
digits, and iteration tables carry no wall-clock columns except the
explicitly labelled seconds column of the solve report.  JSON artifacts are
strict JSON: a non-finite float is written as null (see `artifacts`).
"""

from __future__ import annotations

import argparse
import copy
import difflib
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, grids
from .artifacts import strict_json
from .errors import ConfigurationError, MajorMinorError, SimulationError
from .extragradient import (
    ExtragradientConfig,
    ExtragradientReport,
    FbsdeOperator,
    estimate_lipschitz_v,
    extragradient_plan,
    run_extragradient,
    run_lockstep,
)
from .grids import build_grid, sample_noise
from .models import (
    LQParams,
    ModelConstants,
    lq_monotonicity_data,
    make_lq_model,
    make_zero_model,
    split_q,
)
from .oracle import eval_oracle_field, oracle_induced_control, picard_solve, riccati_oracle
from .solver import MIN_PARTICLES, QUADRATIC_MIN_SCENARIOS, RegressionBasis, sample_initial
from .verification import (
    check_coefficient_monotonicity,
    check_pontryagin_residual,
    check_terminal_monotonicity,
    check_v_monotonicity,
    check_z_bound,
    compute_thresholds,
)

__all__ = ["RunConfig", "RunManifest", "parse_config", "run_solve", "run_sigma_sweep", "main"]


def _real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _non_finite(name: str, value) -> list[str]:
    """Violations for a non-finite real, or non-finite reals in a list."""
    if isinstance(value, list):
        return [v for i, x in enumerate(value) for v in _non_finite(f"{name}[{i}]", x)]
    if _real(value) and not math.isfinite(value):
        return [f"{name} must be finite, got {value!r}"]
    return []


_NONNEG = (">= 0", lambda v: v >= 0)
_POSITIVE = ("positive", lambda v: v > 0)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_NONNEG_LIST = ("a list of reals >= 0", lambda v: all(_real(x) and x >= 0 for x in v))
_POSITIVE_LIST = ("a list of positive reals", lambda v: all(_real(x) and x > 0 for x in v))

# The one definition of a valid config.  A leaf is (default, accepted types,
# requirement or None); a nested dict is a section.  A requirement is
# (text, predicate) and judges the given value unless it is None or of a
# wrong type (see `_complete`).
_TABLE = {
    "model": {"kind": ("lq", str, None), "params": ({}, dict, None)},
    "constants": {
        "sigma": (0.5, float, _NONNEG),
        "sigma0": (0.5, float, _NONNEG),
        "discount": (0.0, float, _NONNEG),
        "clamp_m": (None, (float, type(None)), _POSITIVE),
    },
    "grid": {"horizon": (1.0, float, _POSITIVE), "steps": (50, int, _AT_LEAST_1)},
    "ensemble": {
        "scenarios": (32, int, _AT_LEAST_1),
        "particles": (500, int, (f">= {MIN_PARTICLES}", lambda v: v >= MIN_PARTICLES)),
    },
    "init": {
        "x_mean": (1.0, float, None),
        "x_std": (0.3, float, _NONNEG),
        "q0": (1.0, float, None),
        "q0_std": (0.1, float, _NONNEG),
    },
    "basis": {"quadratic": (False, bool, None), "ridge": (1e-8, float, _NONNEG)},
    "extragradient": {
        "gamma": (None, (float, type(None)), _POSITIVE),
        "n_max": (60, int, _AT_LEAST_1),
        "tol": (1e-6, float, _NONNEG),
        "a_scale": (1.0, float, _POSITIVE),
        "safety": (0.5, float, _POSITIVE),
        "probes": (4, int, (">= 2", lambda v: v >= 2)),
        "track_oracle": (True, bool, None),
    },
    "verification": {
        "samples": (200, int, _AT_LEAST_1),
        "pairs": (20, int, _AT_LEAST_1),
        "region_radius": (3.0, float, _POSITIVE),
    },
    "sweep": {
        "sigma0": ([0.5], list, _NONNEG_LIST),
        "horizons": ([1.0], list, _POSITIVE_LIST),
        "workers": (1, int, _AT_LEAST_1),
        "picard_sweeps": (25, int, _AT_LEAST_1),
    },
    "seed": (1234, int, ("in [0, 2**64)", lambda v: 0 <= v < 2**64)),
    "output_dir": ("out", str, None),
}

# model.params echoes only the keys it is given, so it has no defaults here
_LQ_KEYS = {"c1", "c2", "c3", "g1", "g2", "b", "r1", "r2", "p1", "p2"}


@dataclass
class RunConfig:
    """Validated run parameters with defaults filled in."""

    data: dict

    def __getitem__(self, key):
        return self.data[key]

    @property
    def seed(self) -> int:
        return int(self.data["seed"])


def _accepts(types, value) -> bool:
    types = types if isinstance(types, tuple) else (types,)
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types) or (float in types and isinstance(value, int))


def _suggest(key: str, candidates) -> str:
    match = difflib.get_close_matches(key, list(candidates), n=1)
    return f" (did you mean {match[0]!r}?)" if match else ""


def _complete(given: dict, table: dict, prefix: str, violations: list) -> dict:
    """The defaults of `table` overridden by `given`, whose keys are checked
    in document order; violations are appended to `violations`."""
    out = {
        key: _complete({}, spec, "", violations) if isinstance(spec, dict) else copy.deepcopy(spec[0])
        for key, spec in table.items()
    }
    for key, value in given.items():
        name = prefix + key
        spec = table.get(key)
        if spec is None:
            violations.append(f"unknown key {name}{_suggest(key, table)}")
        elif isinstance(spec, dict):
            if isinstance(value, dict):
                out[key] = _complete(value, spec, name + ".", violations)
            else:
                violations.append(f"{name} must be an object")
        else:
            _, types, requirement = spec
            out[key] = value
            accepted = _accepts(types, value)
            if not accepted:
                violations.append(f"{name} has wrong type {type(value).__name__}")
            violations.extend(_non_finite(name, value))
            # a number given to a numeric key is judged even when it has the
            # wrong type (2.5 for an int), so both faults are listed
            judged = value is not None and (accepted or (_real(value) and _accepts(types, 1)))
            if requirement is not None and judged and not requirement[1](value):
                violations.append(f"{name} must be {requirement[0]}, got {value!r}")
    return out


def parse_config(text: str | dict, seed: int | None = None) -> RunConfig:
    """Validate and complete a configuration document.

    Collects every violation before raising; unknown keys are rejected with
    a closest-match suggestion.  A given `seed` replaces the document's seed
    before validation.
    """
    if isinstance(text, str):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError([f"config is not valid JSON: {exc}"]) from None
    else:
        raw = text
    if not isinstance(raw, dict):
        raise ConfigurationError(["config must be a JSON object"])
    if seed is not None:
        raw = {**raw, "seed": seed}
    violations: list[str] = []
    data = _complete(raw, _TABLE, "", violations)
    model = data["model"]
    if model["kind"] not in ("lq", "zero"):
        violations.append(f"model.kind must be 'lq' or 'zero', got {model['kind']!r}")
    # a non-object params is already reported as a wrong type
    params = model["params"] if isinstance(model["params"], dict) else {}
    for key, value in params.items():
        if key not in _LQ_KEYS:
            violations.append(f"unknown key model.params.{key}{_suggest(key, _LQ_KEYS)}")
        elif not _real(value):
            violations.append(f"model.params.{key} must be a real number, got {value!r}")
        else:
            violations.extend(_non_finite(f"model.params.{key}", value))
    scenarios, need = data["ensemble"]["scenarios"], QUADRATIC_MIN_SCENARIOS
    if data["basis"]["quadratic"] is True and _real(scenarios) and scenarios < need:
        violations.append(f"basis.quadratic needs ensemble.scenarios >= {need}, got {scenarios!r}")
    if violations:
        raise ConfigurationError(violations)
    return RunConfig(data=data)


@dataclass
class RunManifest:
    """Provenance record emitted once per run."""

    config: dict
    version: str
    seed: int
    started_at: str
    finished_at: str = ""
    files: dict = field(default_factory=dict)
    error: str | None = None

    def add_file(self, path: Path):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files[path.name] = digest

    def write(self, path: Path):
        path.write_text(strict_json(asdict(self), indent=2, sort_keys=True) + "\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def build_problem(config: RunConfig):
    """Instantiate (operator, grid, noise, init, model pieces) from a config."""
    data = config.data
    c = data["constants"]
    clamp = c["clamp_m"] if c["clamp_m"] is not None else math.inf
    constants = ModelConstants(
        sigma=c["sigma"], sigma0=c["sigma0"], discount=c["discount"], clamp_m=clamp
    )
    if data["model"]["kind"] == "zero":
        cs = make_zero_model(constants)
        params = None
    else:
        params = LQParams(**data["model"]["params"])
        cs = make_lq_model(params, constants, region_radius=data["verification"]["region_radius"])
    grid = build_grid(data["grid"]["horizon"], data["grid"]["steps"])
    noise = sample_noise(grid, data["ensemble"]["scenarios"], data["ensemble"]["particles"], seed=config.seed)
    init = sample_initial(
        data["ensemble"]["scenarios"], data["ensemble"]["particles"], seed=config.seed,
        x_mean=data["init"]["x_mean"], x_std=data["init"]["x_std"],
        q0=data["init"]["q0"], q0_std=data["init"]["q0_std"],
    )
    basis = RegressionBasis(quadratic=data["basis"]["quadratic"], ridge=data["basis"]["ridge"])
    op = FbsdeOperator(split_q(cs), grid, noise, init, basis, a=data["extragradient"]["a_scale"])
    return op, grid, noise, init, cs, params, constants


def _extragradient_config(config: RunConfig) -> ExtragradientConfig:
    eg = config.data["extragradient"]
    return ExtragradientConfig(
        gamma=eg["gamma"], n_max=eg["n_max"], tol=eg["tol"], safety=eg["safety"], probes=eg["probes"],
    )


@contextmanager
def _run_dir(config: RunConfig, out_dir: str | Path | None):
    """The output directory of one command, yielded with the list the command
    appends its emitted files to.  When the command returns, `manifest.json`
    is written with a checksum of each of them; when it fails with a package
    error, the manifest also records the error, which is then re-raised."""
    out = Path(out_dir if out_dir is not None else config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config=config.data, version=__version__, seed=config.seed,
        started_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    emitted: list[Path] = []
    failure = None
    try:
        yield out, emitted
    except MajorMinorError as exc:
        failure = exc
        manifest.error = str(exc)
    manifest.finished_at = time.strftime("%Y-%m-%dT%H:%M:%S")
    for path in emitted:
        manifest.add_file(path)
    manifest.write(out / "manifest.json")
    if failure is not None:
        raise failure


def _lq_monotonicity(data: dict, params: LQParams, constants: ModelConstants):
    return lq_monotonicity_data(
        params, constants, a_scale=data["extragradient"]["a_scale"],
        region_radius=data["verification"]["region_radius"],
    )


def _thresholds(mono, constants: ModelConstants, grid):
    """The volatility thresholds, or None unless kappa, beta0 > 0 (the
    monotone mode of `compute_thresholds`)."""
    if mono.kappa > 0 and mono.beta0 > 0:
        return compute_thresholds(mono, constants.discount, grid.horizon)
    return None


def run_solve(config: RunConfig, out_dir: str | Path | None = None, dump_ensemble: bool = False) -> int:
    """Drive the full pipeline for one instance and write artifacts.

    Exit status: 0 when the run stopped at tolerance, 2 when it stopped for
    any other reason (the cap, a divergence report, a failed iteration or a
    failed Lipschitz probe), 1 is reserved for errors (raised to the caller).
    A failed probe ends the run `non_finite` with no `L_hat`, no step size
    and no iterations.  The snapshot and the ensemble dump come from a solve
    at the reported final control; a run that completed no iteration, or
    whose final solve leaves the finite range, writes neither.
    """
    with _run_dir(config, out_dir) as (out, emitted):
        op, grid, noise, init, cs, params, constants = build_problem(config)
        eg_config = _extragradient_config(config)

        try:
            L_hat = estimate_lipschitz_v(op, eg_config.probes) if eg_config.gamma is None else None
            probe_failed = False
        except SimulationError:
            probe_failed = True

        # built after the probes, which do not read it, so that they run
        # without it held
        reference_control = None
        if params is not None and config["extragradient"]["track_oracle"] and constants.sigma0 > 0:
            try:
                sol = riccati_oracle(params, constants, grid)
                reference_control = oracle_induced_control(sol, cs, grid, noise, init)[0]
            except MajorMinorError:
                reference_control = None

        if probe_failed:
            # a probe solve left the finite range: the run ends before its
            # first iteration, with no step size
            report = ExtragradientReport(
                residuals=[], seconds=[], dist_to_reference=None if reference_control is None else [],
                lambda_hat=None, r_squared=None, diverged=True, iterations=0, gamma=None,
                stop_reason="non_finite", evaluations={"probe": 0, "iterate": 0}, L_hat=None,
            )
        else:
            report = run_extragradient(
                op.zero(), eg_config, op, reference_control=reference_control, lipschitz_hint=L_hat
            )

        iter_path = out / "iterations.csv"
        write_csv(
            iter_path,
            ["n", "residual", "dist_to_oracle", "gamma", "seconds"],
            report.iteration_rows(),
        )
        report_path = out / "report.json"
        report_path.write_text(report.to_json() + "\n")
        emitted += [iter_path, report_path]
        if not report.evaluations["iterate"]:
            return 2
        try:
            st = op.solve(report.final_alpha).state
        except SimulationError:
            return 2

        snap_rows = []
        mean_u0 = st.u(0).mean(axis=1)
        mean_x0 = st.X0.mean(axis=1)
        for j in range(st.phi.shape[0]):
            snap_rows.append(
                (j, st.qf[j, 0], mean_x0[j], st.phi[j, 0], st.Zphi[j, 0], st.qb[j, 0], mean_u0[j])
            )
        snap_path = out / "snapshot.csv"
        write_csv(
            snap_path,
            ["scenario", "q0", "mean_x0", "phi0", "zphi0", "qb0", "mean_u0"],
            snap_rows,
        )
        emitted.append(snap_path)

        if dump_ensemble:
            rows = []
            X = st.X  # built on access: once, and U from it
            m, p, n1 = X.shape
            U = np.concatenate([st.u(slice(None), X), st.U_T[None]])  # time-major
            for j in range(m):
                for i in range(p):
                    for k in range(n1):
                        rows.append((j, i, grid.nodes[k], X[j, i, k], U[k, j, i]))
            dump_path = out / "ensemble.csv"
            write_csv(dump_path, ["scenario", "particle", "t", "X", "U"], rows)
            emitted.append(dump_path)

    return 0 if report.stop_reason == "tol" else 2


def _cell_seed(seed: int, i: int, j: int) -> int:
    return (seed * 1000003 + i * 101 + j * 10007) % (2**31 - 1)


def _csv_text(exc: MajorMinorError) -> str:
    return str(exc).replace(",", ";")


def _sweep_rows(cells) -> list[dict]:
    """The rows of a group of sweep cells, in cell order.

    Each cell is built when `run_lockstep` asks for its job, so only the
    cells live there hold their problems; its EG run is an
    `extragradient_plan` there, and its Picard solve runs once that ends.
    A package error ends its cell only: it is recorded and the sweep goes on.
    """
    rows: list[dict] = []

    def jobs():
        for index, (base, sigma0, horizon, i, j) in enumerate(cells):
            data = json.loads(json.dumps(base))
            data["constants"]["sigma0"] = sigma0
            data["grid"]["horizon"] = horizon
            data["seed"] = _cell_seed(base["seed"], i, j)
            config = RunConfig(data=data)
            row = {
                "sigma0": sigma0, "horizon": horizon, "seed": config.seed,
                "sigma0_T": float("nan"), "sigma0_star": float("nan"),
                "eg_converged": 0, "eg_residual": float("nan"), "lambda_hat": float("nan"),
                "picard_converged": 0, "picard_diverged": 0, "error": "",
            }
            rows.append(row)
            try:
                op, grid, noise, init, cs, params, constants = build_problem(config)
                if params is not None:
                    thresholds = _thresholds(_lq_monotonicity(data, params, constants), constants, grid)
                    if thresholds is not None:
                        row["sigma0_T"] = thresholds.sigma0_T
                        if thresholds.sigma0_star is not None:
                            row["sigma0_star"] = thresholds.sigma0_star
                eg_config = _extragradient_config(config)
            except MajorMinorError as exc:
                row["error"] = _csv_text(exc)
                continue
            # the start is built after the run's probes, see `extragradient_plan`
            key = (index, op, eg_config.tol, data["sweep"]["picard_sweeps"])
            yield key, op, extragradient_plan(op.zero, eg_config, op)

    for (index, *problem), report in run_lockstep(jobs()):
        _finish_row(rows[index], report, *problem)
    return rows


def _finish_row(row: dict, report, op: FbsdeOperator, tol: float, picard_sweeps: int) -> None:
    """Fill a cell's row from its EG outcome, then run its Picard solve."""
    if isinstance(report, MajorMinorError):
        row["error"] = _csv_text(report)
        return
    row["eg_converged"] = int(report.stop_reason == "tol")
    row["eg_residual"] = report.residuals[-1] if report.residuals else float("nan")
    row["lambda_hat"] = report.lambda_hat if report.lambda_hat is not None else float("nan")
    try:
        pic = picard_solve(op, tol=tol, max_iter=picard_sweeps)
    except MajorMinorError as exc:
        row["error"] = _csv_text(exc)
        return
    row["picard_converged"] = int(pic.converged)
    row["picard_diverged"] = int(pic.diverged)


def run_sigma_sweep(config: RunConfig, out_dir: str | Path | None = None) -> int:
    """Volatility x horizon sweep; individual cell failures are recorded and
    the sweep continues.  With more than one worker, each worker process
    runs one contiguous group of cells through `_sweep_rows`."""
    data = config.data
    cells = [
        (data, s, t, i, j)
        for i, s in enumerate(data["sweep"]["sigma0"])
        for j, t in enumerate(data["sweep"]["horizons"])
    ]
    # a pool starts all its workers at once, so start no more than can be busy
    workers = min(data["sweep"]["workers"], len(cells), grids.scenario_threads())
    with _run_dir(config, out_dir) as (out, emitted):
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            groups = [cells[g * len(cells) // workers : (g + 1) * len(cells) // workers] for g in range(workers)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = [row for group in pool.map(_sweep_rows, groups) for row in group]
        else:
            rows = _sweep_rows(cells)
        header = [
            "sigma0", "horizon", "seed", "sigma0_T", "sigma0_star", "eg_converged",
            "eg_residual", "lambda_hat", "picard_converged", "picard_diverged", "error",
        ]
        path = out / "sweep.csv"
        write_csv(path, header, [[row[h] for h in header] for row in rows])
        emitted.append(path)
    return 0


def run_verify(config: RunConfig, out_dir: str | Path | None = None) -> int:
    """Full certification battery on the configured instance."""
    data = config.data
    with _run_dir(config, out_dir) as (out, emitted):
        op, grid, noise, init, cs, params, constants = build_problem(config)
        samples = data["verification"]["samples"]
        pairs = data["verification"]["pairs"]
        seed = config.seed
        reports = []
        thresholds = None

        def certify(error: str | None = None) -> None:
            payload = {
                "reports": [json.loads(rep.to_json()) for rep in reports],
                "thresholds": None
                if thresholds is None
                else {
                    "gamma_star": thresholds.gamma_star,
                    "sigma0_T": thresholds.sigma0_T,
                    "sigma0_star": thresholds.sigma0_star,
                    "branch": thresholds.branch,
                },
                "error": error,
            }
            path = out / "certification.json"
            path.write_text(strict_json(payload, indent=2) + "\n")
            emitted.append(path)

        if params is not None:
            mono = _lq_monotonicity(data, params, constants)
            beta0 = mono.beta0 if mono.beta0 > 0 else 0.05
            reports.append(check_terminal_monotonicity(cs, mono.a, beta0, samples=samples, seed=seed))
            reports.append(check_coefficient_monotonicity(cs, mono.a, samples=samples, seed=seed))
            if mono.kappa > 0:
                reports.append(
                    check_coefficient_monotonicity(
                        cs, mono.a, samples=samples, seed=seed, slack=(mono.kappa, mono.C_M, mono.K),
                    )
                )
            thresholds = _thresholds(mono, constants, grid)
        oracle_checks = params is not None and constants.sigma0 > 0
        # a solve that blows up ends the battery, not the certificate: what
        # was computed before it is written with the error, then re-raised
        try:
            reports.append(check_v_monotonicity(op, pairs=pairs, seed=seed))
            # the start is built after the probes, which then run without it
            report = run_extragradient(op.zero, _extragradient_config(config), op)
            solve = op.solve(report.final_alpha) if oracle_checks else None
        except SimulationError as exc:
            certify(str(exc))
            raise
        if oracle_checks:
            sol = riccati_oracle(params, constants, grid)
            st = solve.state
            lip = 0.0
            X = st.X  # built on access: once, not per step
            for k in range(grid.steps):
                _, _, z_ref = eval_oracle_field(
                    sol, grid.nodes[k], 0.0, st.qf[:, k], X[:, :, k].mean(axis=1)
                )
                lip = max(lip, float(np.max(np.abs(z_ref))))
            reports.append(check_z_bound(solve, lip))
            # a run that left the finite range ends on an infinite residual,
            # which must not widen the tolerance
            finite = [r for r in report.residuals if math.isfinite(r)]
            residual_scale = max(2.0 * finite[-1], 1e-8) if finite else 1e-8
            reports.append(check_pontryagin_residual(solve, cs, grid, tol_disc=max(residual_scale, 0.05)))
        certify()
    for rep in reports:
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.name}: margin={rep.margin:.6g} se={rep.se:.6g}")
    return 0 if all(rep.passed for rep in reports) else 2


def _converge_level(data: dict, level: int) -> tuple:
    """The `convergence.csv` row of one refinement level: the operator
    residual at the oracle control on the grid with 2**level times the steps
    and the particles.  Its arrays die with the call, so no level holds
    another's."""
    scaled = json.loads(json.dumps(data))
    scaled["grid"]["steps"] = data["grid"]["steps"] * 2**level
    scaled["ensemble"]["particles"] = data["ensemble"]["particles"] * 2**level
    op, grid, noise, init, cs, params, constants = build_problem(RunConfig(data=scaled))
    sol = riccati_oracle(params, constants, grid)
    alpha_star = oracle_induced_control(sol, cs, grid, noise, init)[0]
    return level, grid.steps, scaled["ensemble"]["particles"], op.norm(op(alpha_star))


def run_converge(config: RunConfig, out_dir: str | Path | None = None) -> int:
    """Discretization-floor study: the operator residual at the oracle
    control under grid refinement (half dt, double particles).  Each level
    runs in `_converge_level`, so the peak memory is that of the finest
    level alone: three particle paths, which are its noise, its oracle
    control and the forward buffer of its one solve."""
    data = config.data
    if data["model"]["kind"] != "lq":
        raise ConfigurationError(["converge study needs the lq model"])
    with _run_dir(config, out_dir) as (out, emitted):
        rows = [_converge_level(data, level) for level in range(3)]
        path = out / "convergence.csv"
        write_csv(path, ["level", "steps", "particles", "residual_at_oracle"], rows)
        emitted.append(path)
    print(f"wrote {path}")
    return 0


def run_oracle(config: RunConfig, out_dir: str | Path | None = None) -> int:
    """Export the baseline field coefficients."""
    if config["model"]["kind"] != "lq":
        raise ConfigurationError(["oracle export needs the lq model"])
    with _run_dir(config, out_dir) as (out, emitted):
        _, grid, _, _, cs, params, constants = build_problem(config)
        sol = riccati_oracle(params, constants, grid)
        rows = zip(sol.times, sol.a, sol.b_u, sol.c_u, sol.k2, sol.k12, sol.kc)
        path = out / "oracle.csv"
        write_csv(path, ["t", "a", "b_u", "c_u", "k2", "k12", "kc"], rows)
        emitted.append(path)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="majorminor",
        description="Particle solver and certification suite for major-minor mean field systems",
    )
    parser.add_argument("command", choices=["solve", "verify", "converge", "sigma-sweep", "oracle"])
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--dump-ensemble", action="store_true", help="dump the full ensemble CSV")
    args = parser.parse_args(argv)
    try:
        config = parse_config(Path(args.config).read_text(), seed=args.seed)
        if args.command == "solve":
            return run_solve(config, args.out, dump_ensemble=args.dump_ensemble)
        if args.command == "verify":
            return run_verify(config, args.out)
        if args.command == "converge":
            return run_converge(config, args.out)
        if args.command == "sigma-sweep":
            return run_sigma_sweep(config, args.out)
        return run_oracle(config, args.out)
    except MajorMinorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
