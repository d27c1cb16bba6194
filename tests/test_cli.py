import concurrent.futures
import dataclasses
import hashlib
import json
import math
import tracemalloc

import pytest

import majorminor
import majorminor.extragradient
from majorminor import grids
from majorminor.cli import (
    _TABLE,
    build_problem,
    main,
    parse_config,
    run_converge,
    run_sigma_sweep,
    run_solve,
)
from majorminor.errors import ConfigurationError, SimulationError
from majorminor.extragradient import ExtragradientConfig, run_extragradient
from majorminor.oracle import picard_solve

FAST_LQ = {
    "model": {"kind": "lq", "params": {"c1": 1.0, "c3": 0.5, "g1": 1.0, "b": 1.0, "p1": 1.0}},
    "constants": {"sigma": 0.5, "sigma0": 0.5},
    "grid": {"horizon": 1.0, "steps": 10},
    "ensemble": {"scenarios": 12, "particles": 64},
    "extragradient": {"n_max": 45, "tol": 5e-3},
    "seed": 7,
}


def test_parse_minimal_config_fills_defaults():
    config = parse_config(json.dumps({"model": {"kind": "lq", "params": {"g1": 1.0}}}))
    assert config["grid"]["steps"] == 50
    assert config["basis"]["ridge"] == 1e-8
    assert config.seed == 1234


def test_parse_rejects_zero_steps_by_name():
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps({"grid": {"horizon": 1.0, "steps": 0}}))
    assert any("grid.steps" in v for v in err.value.violations)


def test_parse_suggests_close_key():
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps({"extragradient": {"gama": 0.5}}))
    joined = " ".join(err.value.violations)
    assert "extragradient.gama" in joined and "gamma" in joined


def test_parse_reports_all_violations_at_once():
    bad = {"grid": {"horizon": -1.0, "steps": 0}, "ensemble": {"scenarios": 0, "particles": 4}}
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps(bad))
    assert len(err.value.violations) >= 3


def test_parse_rejects_unknown_model_param():
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps({"model": {"kind": "lq", "params": {"c9": 1.0}}}))
    assert any("model.params.c9" in v for v in err.value.violations)


def test_zero_model_solve_exits_zero(tmp_path):
    config = parse_config(json.dumps({
        "model": {"kind": "zero", "params": {}},
        "constants": {"sigma": 0.0, "sigma0": 0.0},
        "grid": {"horizon": 1.0, "steps": 5},
        "ensemble": {"scenarios": 4, "particles": 8},
        "init": {"x_mean": 0.0, "x_std": 1.0, "q0": 0.5, "q0_std": 0.0},
        "extragradient": {"n_max": 3, "tol": 1e-6, "gamma": 0.5, "track_oracle": False},
        "seed": 3,
    }))
    code = run_solve(config, tmp_path)
    assert code == 0
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "iterations.csv").exists()


def test_lq_solve_artifacts_and_exit(tmp_path):
    config = parse_config(json.dumps(FAST_LQ))
    code = run_solve(config, tmp_path)
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["files"]) >= {"iterations.csv", "report.json", "snapshot.csv"}
    assert manifest["version"] == majorminor.__version__
    body = (tmp_path / "iterations.csv").read_text().splitlines()
    assert body[0] == "n,residual,dist_to_oracle,gamma,seconds"
    assert len(body) >= 2


def test_huge_gamma_gives_divergence_exit(tmp_path):
    data = json.loads(json.dumps(FAST_LQ))
    data["extragradient"]["gamma"] = 50.0
    data["extragradient"]["n_max"] = 40
    config = parse_config(json.dumps(data))
    code = run_solve(config, tmp_path)
    assert code == 2


def test_solve_deterministic_csv_bodies(tmp_path):
    config = parse_config(json.dumps(FAST_LQ))
    run_solve(config, tmp_path / "a")
    run_solve(parse_config(json.dumps(FAST_LQ)), tmp_path / "b")
    for name in ("snapshot.csv",):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # iteration table identical except the wall-clock column
    rows_a = (tmp_path / "a" / "iterations.csv").read_text().splitlines()
    rows_b = (tmp_path / "b" / "iterations.csv").read_text().splitlines()
    strip = lambda rows: [",".join(r.split(",")[:4]) for r in rows]
    assert strip(rows_a) == strip(rows_b)


def test_dump_ensemble_flag(tmp_path):
    data = json.loads(json.dumps(FAST_LQ))
    data["ensemble"] = {"scenarios": 3, "particles": 5}
    data["grid"]["steps"] = 4
    config = parse_config(json.dumps(data))
    run_solve(config, tmp_path, dump_ensemble=True)
    body = (tmp_path / "ensemble.csv").read_text().splitlines()
    assert body[0] == "scenario,particle,t,X,U"
    assert len(body) == 1 + 3 * 5 * 5


def _keep_runs(monkeypatch) -> list:
    """Make the CLI keep the operator and the report of each extragradient
    run it makes, in the list returned."""
    runs = []
    run = majorminor.cli.run_extragradient

    def keep(alpha1, config, op, **kwargs):
        report = run(alpha1, config, op, **kwargs)
        runs.append((op, report))
        return report

    monkeypatch.setattr(majorminor.cli, "run_extragradient", keep)
    return runs


def _write_snapshot(path, st) -> None:
    mean_u0 = st.u(0).mean(axis=1)
    mean_x0 = st.X[:, :, 0].mean(axis=1)
    rows = [
        (j, st.qf[j, 0], mean_x0[j], st.phi[j, 0], st.Zphi[j, 0], st.qb[j, 0], mean_u0[j]) for j in range(len(st.qf))
    ]
    majorminor.cli.write_csv(path, ["scenario", "q0", "mean_x0", "phi0", "zphi0", "qb0", "mean_u0"], rows)


def test_ensemble_and_snapshot_rows_are_built_from_the_u_slabs(tmp_path, monkeypatch):
    data = json.loads(json.dumps(FAST_LQ))
    data["ensemble"] = {"scenarios": 4, "particles": 16}
    data["grid"]["steps"] = 5
    runs = _keep_runs(monkeypatch)
    run_solve(parse_config(json.dumps(data)), tmp_path / "run", dump_ensemble=True)
    ((op, report),) = runs
    st = op.solve(report.final_alpha).state
    grid = op.grid
    n = grid.steps
    ensemble = [
        (j, i, grid.nodes[k], st.X[j, i, k], st.u(k)[j, i]) for j in range(4) for i in range(16) for k in range(n + 1)
    ]
    majorminor.cli.write_csv(tmp_path / "ensemble.csv", ["scenario", "particle", "t", "X", "U"], ensemble)
    _write_snapshot(tmp_path / "snapshot.csv", st)
    for name in ("ensemble.csv", "snapshot.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_snapshot_describes_the_reported_final_control(tmp_path, monkeypatch):
    # the run stops at tol after 47 iterations; the last solve of its loop is
    # at the trial point, where the x-block of v differs from that at the
    # final control by up to 6.4e-4
    data = {**FAST_LQ, "extragradient": {"n_max": 60, "tol": 5e-3}, "seed": 1234}
    runs = _keep_runs(monkeypatch)
    assert run_solve(parse_config(data), tmp_path / "run") == 0
    ((op, report),) = runs
    _write_snapshot(tmp_path / "snapshot.csv", op.solve(report.final_alpha).state)
    assert (tmp_path / "run" / "snapshot.csv").read_bytes() == (tmp_path / "snapshot.csv").read_bytes()


def test_a_final_solve_that_fails_ends_solve_and_verify(tmp_path, monkeypatch, capsys):
    # every solve of the runs succeeds; the one at the reported control fails
    runs = _keep_runs(monkeypatch)
    solve = majorminor.extragradient.FbsdeOperator.solve

    def fail_after_the_run(op, control):
        if runs:
            raise SimulationError("backward sweep produced non-finite values")
        return solve(op, control)

    monkeypatch.setattr(majorminor.extragradient.FbsdeOperator, "solve", fail_after_the_run)
    assert run_solve(parse_config(FAST_LQ), tmp_path / "solve") == 2
    assert {path.name for path in (tmp_path / "solve").iterdir()} == {"iterations.csv", "report.json", "manifest.json"}

    runs.clear()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(FAST_LQ))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "verify")]) == 1
    cert = json.loads((tmp_path / "verify" / "certification.json").read_text())
    assert cert["error"] == "backward sweep produced non-finite values"
    assert [r["name"] for r in cert["reports"]] == [
        "terminal_monotonicity", "coefficient_monotonicity", "coefficient_monotonicity_zpair", "v_monotonicity",
    ]
    assert f"error: {cert['error']}" in capsys.readouterr().err


def test_verify_without_beta0_writes_every_report(tmp_path):
    # the terminal weight g2 = 3 makes beta0 = 0 while kappa > 0: the
    # thresholds are not defined, the checks are
    data = json.loads(json.dumps(FAST_LQ))
    data["model"]["params"]["g2"] = 3.0
    config = parse_config(data)
    _, _, _, _, _, params, constants = build_problem(config)
    mono = majorminor.cli._lq_monotonicity(config.data, params, constants)
    assert mono.kappa > 0 and mono.beta0 == 0
    assert majorminor.cli.run_verify(config, tmp_path) in (0, 2)
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert len(cert["reports"]) == 6 and cert["thresholds"] is None and cert["error"] is None


def test_sigma_sweep_table(tmp_path):
    data = json.loads(json.dumps(FAST_LQ))
    data["sweep"] = {"sigma0": [0.3, 0.6], "horizons": [0.5], "workers": 1, "picard_sweeps": 10}
    config = parse_config(json.dumps(data))
    assert run_sigma_sweep(config, tmp_path) == 0
    body = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(body) == 3
    assert body[0].startswith("sigma0,horizon,seed,sigma0_T")


def test_cli_main_solve_and_oracle(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(FAST_LQ))
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 0
    code = main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "oracle")])
    assert code == 0
    header = (tmp_path / "oracle" / "oracle.csv").read_text().splitlines()[0]
    assert header == "t,a,b_u,c_u,k2,k12,kc"


def test_cli_main_bad_config_exit_one(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"grid": {"steps": 0}}))
    assert main(["solve", "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-is-a-file"])
def test_cli_unreadable_config_or_output_is_one_error_line(tmp_path, capsys, case):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(FAST_LQ))
    out = tmp_path / "run"
    if case == "not-utf8":
        cfg_path.write_bytes(b'{"seed": "\xff"}')
    if case == "out-is-a-file":
        out.write_text("a file, not a directory")
    config = {"missing": tmp_path / "absent.json", "directory": tmp_path}.get(case, cfg_path)
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 1
    error = capsys.readouterr().err
    assert error.startswith("error: ") and error.count("\n") == 1
    assert str(out if case == "out-is-a-file" else config) in error


@pytest.mark.parametrize(
    "section,key,value,args,message",
    [
        (None, "seed", 1, ["--seed", "-1"], "seed must be in [0, 2**64), got -1"),
        (None, "seed", 2**64, [], "seed must be in [0, 2**64)"),
        ("basis", "ridge", -1e-3, [], "basis.ridge must be >= 0"),
        ("extragradient", "safety", -0.5, [], "extragradient.safety must be positive"),
        ("extragradient", "safety", 0.0, [], "extragradient.safety must be positive"),
        ("extragradient", "n_max", 0, [], "extragradient.n_max must be >= 1"),
        ("extragradient", "probes", 1, [], "extragradient.probes must be >= 2"),
        (None, "grid", 5, [], "grid must be an object"),
        ("model", "params", 5, [], "model.params has wrong type int"),
        ("model", "params", {"c1": "x"}, [], "model.params.c1 must be a real number, got 'x'"),
        ("model", "params", {"c1": True}, [], "model.params.c1 must be a real number, got True"),
        ("constants", "discount", -1, [], "constants.discount must be >= 0, got -1"),
        ("constants", "clamp_m", -2, [], "constants.clamp_m must be positive, got -2"),
        ("init", "x_std", -0.5, [], "init.x_std must be >= 0, got -0.5"),
        ("init", "q0_std", -0.5, [], "init.q0_std must be >= 0, got -0.5"),
        ("extragradient", "tol", float("nan"), [], "extragradient.tol must be >= 0, got nan"),
        ("extragradient", "a_scale", 0.0, [], "extragradient.a_scale must be positive, got 0.0"),
        ("verification", "samples", 0, [], "verification.samples must be >= 1, got 0"),
        ("verification", "pairs", 0, [], "verification.pairs must be >= 1, got 0"),
        ("verification", "region_radius", 0, [], "verification.region_radius must be positive, got 0"),
        ("sweep", "workers", 0, [], "sweep.workers must be >= 1, got 0"),
        ("sweep", "picard_sweeps", 0, [], "sweep.picard_sweeps must be >= 1, got 0"),
        ("sweep", "sigma0", ["a"], [], "sweep.sigma0 must be a list of reals >= 0, got ['a']"),
        ("sweep", "horizons", [-1], [], "sweep.horizons must be a list of positive reals, got [-1]"),
        # an empty list would sweep no cell and write a header-only table
        ("sweep", "sigma0", [], [], "sweep.sigma0 must not be empty"),
        ("sweep", "horizons", [], [], "sweep.horizons must not be empty"),
        # sizes whose particle path NumPy cannot address, rejected before any array is made
        ("ensemble", "particles", 10**30, [], "ensemble.scenarios x ensemble.particles x grid.steps is too large"),
        ("grid", "steps", 10**30, [], "ensemble.scenarios x ensemble.particles x grid.steps is too large"),
        ("basis", "quadratic", True, [], "basis.quadratic needs ensemble.scenarios >= 24, got 12"),
        # two particles per feature of the affine within-scenario design [1, x]
        ("ensemble", "particles", 1, [], "ensemble.particles must be >= 4, got 1"),
        ("ensemble", "particles", 3, [], "ensemble.particles must be >= 4, got 3"),
        # JSON parsing accepts NaN and +-Infinity; every number must be finite
        ("grid", "horizon", math.inf, [], "grid.horizon must be finite, got inf"),
        ("constants", "sigma", math.inf, [], "constants.sigma must be finite, got inf"),
        ("init", "x_mean", math.nan, [], "init.x_mean must be finite, got nan"),
        ("model", "params", {"c1": math.nan}, [], "model.params.c1 must be finite, got nan"),
        ("basis", "ridge", math.inf, [], "basis.ridge must be finite, got inf"),
        ("sweep", "sigma0", [0.5, math.inf], [], "sweep.sigma0[1] must be finite, got inf"),
        ("extragradient", "tol", math.inf, [], "extragradient.tol must be finite, got inf"),
        ("verification", "region_radius", math.inf, [], "verification.region_radius must be finite, got inf"),
    ],
    ids=[
        "seed-flag", "seed-config", "ridge", "safety", "safety-zero", "n_max", "probes", "section",
        "params-object", "params-string", "params-bool", "discount", "clamp_m", "x_std", "q0_std",
        "tol-nan", "a_scale", "samples", "pairs", "region_radius", "workers", "picard_sweeps",
        "sweep-sigma0", "sweep-horizons", "sweep-sigma0-empty", "sweep-horizons-empty", "particles-huge",
        "steps-huge", "quadratic-scenarios", "particles-1", "particles-3",
        "horizon-inf", "sigma-inf", "x_mean-nan", "params-nan", "ridge-inf", "sweep-sigma0-inf",
        "tol-inf", "region_radius-inf",
    ],
)
def test_cli_rejects_out_of_range_values(tmp_path, capsys, section, key, value, args, message):
    data = json.loads(json.dumps(FAST_LQ))
    if section is None:
        data[key] = value
    else:
        data.setdefault(section, {})[key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run"), *args])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(FAST_LQ))
    main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "s1"), "--seed", "11"])
    main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "s2"), "--seed", "12"])
    a = (tmp_path / "s1" / "snapshot.csv").read_text()
    b = (tmp_path / "s2" / "snapshot.csv").read_text()
    assert a != b


def test_build_problem_shapes():
    config = parse_config(json.dumps(FAST_LQ))
    op, grid, noise, init, cs, params, constants = build_problem(config)
    assert noise.dB.shape == (12, 64, 10)
    assert init.X0.shape == (12, 64)
    assert params.c1 == 1.0


@pytest.mark.parametrize(
    "command,emitted",
    [
        ("solve", {"iterations.csv", "report.json", "snapshot.csv"}),
        ("verify", {"certification.json"}),
        ("converge", {"convergence.csv"}),
        ("sigma-sweep", {"sweep.csv"}),
        ("oracle", {"oracle.csv"}),
    ],
    ids=["solve", "verify", "converge", "sigma-sweep", "oracle"],
)
def test_every_command_writes_a_manifest(tmp_path, command, emitted):
    data = json.loads(json.dumps(FAST_LQ))
    data["verification"] = {"samples": 8, "pairs": 2}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) in (0, 2)
    assert {path.name for path in out.iterdir()} == emitted | {"manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in emitted
    }
    assert manifest["config"] == parse_config(data).data
    assert manifest["seed"] == 7
    assert manifest["started_at"] <= manifest["finished_at"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the run overflows on purpose
def test_failed_command_leaves_a_manifest_with_the_error(tmp_path, capsys):
    # the solve at this config's oracle control leaves the finite range
    data = json.loads(json.dumps(FAST_LQ))
    data["model"]["params"]["r1"] = -5.0
    data["grid"]["horizon"] = 8.0
    data["ensemble"] = {"scenarios": 4, "particles": 16}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main(["converge", "--config", str(cfg_path), "--out", str(out)]) == 1
    error = capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == {}
    assert manifest["error"] and f"error: {manifest['error']}" in error


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the run overflows on purpose
def test_solve_whose_first_iteration_fails_writes_no_snapshot(tmp_path):
    data = json.loads(json.dumps(FAST_LQ))
    data["model"]["params"]["r1"] = -5.0
    data["grid"]["horizon"] = 8.0
    data["ensemble"] = {"scenarios": 4, "particles": 16}
    data["extragradient"].update(gamma=0.1, n_max=3)
    data["seed"] = 1
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--dump-ensemble"]) == 2
    emitted = {"iterations.csv", "report.json"}
    assert {path.name for path in out.iterdir()} == emitted | {"manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == emitted and manifest["error"] is None
    report = json.loads((out / "report.json").read_text())
    assert report["stop_reason"] == "non_finite" and report["evaluations"]["iterate"] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")  # probes run under the steps' error state
def test_solve_whose_lipschitz_probe_fails_reports_non_finite(tmp_path):
    # the probe solves of this config overflow
    data = json.loads(json.dumps(FAST_LQ))
    data["grid"]["steps"] = 20
    data["ensemble"] = {"scenarios": 8, "particles": 100}
    data["extragradient"] = {"n_max": 5}
    data["seed"] = 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
    emitted = {"iterations.csv", "report.json"}
    assert {path.name for path in out.iterdir()} == emitted | {"manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == emitted and manifest["error"] is None
    assert (out / "iterations.csv").read_text() == "n,residual,dist_to_oracle,gamma,seconds\n"
    report = json.loads((out / "report.json").read_text())
    assert report["stop_reason"] == "non_finite" and report["diverged"]
    assert report["L_hat"] is None and report["gamma"] is None
    assert report["iterations"] == 0 and report["evaluations"] == {"probe": 0, "iterate": 0}


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the runs overflow on purpose
def test_json_artifacts_are_strict(tmp_path):
    # verify: sigma0_T is unbounded; solve: the first trial step leaves the
    # finite range, so the one residual is inf
    data = json.loads(json.dumps(FAST_LQ))
    data["model"]["params"]["r1"] = -5.0
    data["grid"]["horizon"] = 8.0
    data["ensemble"] = {"scenarios": 4, "particles": 16}
    data["extragradient"].update(gamma=0.1, n_max=3)
    data["seed"] = 1
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "verify")]) == 1
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "solve")]) == 2
    parsed = {}
    for path in sorted(tmp_path.glob("*/*.json")):
        parsed[f"{path.parent.name}/{path.name}"] = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert set(parsed) == {
        "verify/certification.json", "verify/manifest.json", "solve/report.json", "solve/manifest.json",
    }
    assert parsed["verify/certification.json"]["thresholds"]["sigma0_T"] is None
    report = parsed["solve/report.json"]
    assert report["stop_reason"] == "non_finite" and report["residuals"] == [None]


def test_every_extragradient_config_field_is_a_config_key():
    fields = {f.name for f in dataclasses.fields(ExtragradientConfig)}
    assert fields <= set(_TABLE["extragradient"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the probe solves overflow on purpose
def test_verify_keeps_its_certificate_when_a_solve_fails(tmp_path, capsys):
    data = json.loads(json.dumps(FAST_LQ))
    data["model"]["params"]["r1"] = -5.0
    data["grid"]["horizon"] = 8.0
    data["ensemble"] = {"scenarios": 4, "particles": 16}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
    error = capsys.readouterr().err
    cert = json.loads((out / "certification.json").read_text())
    assert [r["name"] for r in cert["reports"]] == [
        "terminal_monotonicity", "coefficient_monotonicity", "coefficient_monotonicity_zpair",
    ]
    assert cert["thresholds"]["sigma0_T"] is None
    assert "non-finite" in cert["error"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == cert["error"] and f"error: {cert['error']}" in error
    digest = hashlib.sha256((out / "certification.json").read_bytes()).hexdigest()
    assert manifest["files"] == {"certification.json": digest}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the trial step overflows on purpose
def test_verify_tolerance_ignores_an_infinite_residual(tmp_path, capsys):
    # the step is so large that the first trial solve leaves the finite range:
    # the run ends `non_finite` on residual inf, which must not become the
    # Pontryagin tolerance
    data = json.loads(json.dumps(FAST_LQ))
    data["ensemble"] = {"scenarios": 4, "particles": 16}
    data["extragradient"].update(gamma=1e6, n_max=3)
    data["verification"] = {"pairs": 1}
    data["seed"] = 1
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "FAIL pontryagin_residual" in capsys.readouterr().out
    cert = json.loads((out / "certification.json").read_text())
    (report,) = [r for r in cert["reports"] if r["name"] == "pontryagin_residual"]
    assert not report["passed"] and math.isfinite(report["margin"])
    assert report["extras"]["residual"] > report["witness"]["tol"]


def test_converge_peak_memory_is_that_of_its_finest_level(tmp_path):
    # numpy reports its buffers to tracemalloc.  The finest level (4x400x80)
    # needs its noise, the oracle control and one solve's forward buffer,
    # whose slabs hold X until the backward sweep writes gap_F over them:
    # three path arrays, and the peak reads 3.32.  A solve that allocated
    # gap_F beside X read 4.30, and one that also held U and theta_F paths
    # about 6.1.  An untraced run first imports numpy.random and fills
    # Python's tuple free list, which no level holds and which would count
    # 0.7 path arrays here.
    config = parse_config({**FAST_LQ, "grid": {"steps": 20}, "ensemble": {"scenarios": 4, "particles": 100}})
    path_bytes = 8 * 4 * 400 * (80 + 1)
    assert run_converge(config, tmp_path / "untraced") == 0
    tracemalloc.start()
    try:
        assert run_converge(config, tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * path_bytes


def test_solve_holds_a_fixed_control_budget(tmp_path):
    # numpy reports its buffers to tracemalloc.  Besides the noise and the
    # solve that runs, the probes hold four controls during a solve (three
    # values and the fourth point, or the refinement's base value, base,
    # direction and point) and their pair scan the 4 values and one
    # difference; the extragradient loop holds its iterate, the oracle
    # control and, during the trial solve, the trial point.  The peak, in the
    # probes, reads 7.0 controls.  Probes that drew each point with two
    # full temporaries, drew both points of a pair difference and kept all 4
    # values through the refinement's draws, with a loop that kept v at the
    # iterate through the trial solve and the start control for the whole
    # run, read 8.26; a scan that held all 4 probe points as well, 13.3.
    # The untraced run first imports what no solve holds, as in the converge
    # test above.  Four iterations reach the loop's peak; the run stops at
    # the cap.
    config = parse_config({
        **FAST_LQ,
        "grid": {"steps": 20},
        "ensemble": {"scenarios": 16, "particles": 500},
        "extragradient": {"n_max": 4, "tol": 5e-3},
    })
    control_bytes = 8 * (16 * 500 * 20 + 16 * 20)
    assert run_solve(config, tmp_path / "untraced") == 2
    tracemalloc.start()
    try:
        assert run_solve(config, tmp_path) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * control_bytes


def test_sigma_sweep_pool_size_is_capped(tmp_path, monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    data = json.loads(json.dumps(FAST_LQ))
    data["extragradient"]["n_max"] = 2
    data["sweep"] = {"sigma0": [0.3, 0.6, 0.9], "horizons": [0.5], "workers": 64, "picard_sweeps": 2}
    config = parse_config(data)
    for cpus, expected in ((8, [3]), (2, [3, 2]), (1, [3, 2])):
        monkeypatch.setattr(grids, "scenario_threads", lambda: cpus)
        assert run_sigma_sweep(config, tmp_path / str(cpus)) == 0
        assert started == expected
        assert len((tmp_path / str(cpus) / "sweep.csv").read_text().splitlines()) == 4


def test_solve_report_says_why_and_how_it_stopped(tmp_path):
    reports = []
    for name in ("a", "b"):
        assert run_solve(parse_config(json.dumps(FAST_LQ)), tmp_path / name) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    report = reports[0]
    assert report["stop_reason"] == "tol" and report["residuals"][-1] <= FAST_LQ["extragradient"]["tol"]
    # the last iteration met tol at its iterate, so its trial point was not evaluated
    assert report["evaluations"] == {"probe": 12, "iterate": 2 * report["iterations"] - 1}
    assert report["L_hat"] > 0 and report["gamma"] == 0.5 / report["L_hat"]
    assert [{k: r[k] for k in ("stop_reason", "evaluations", "L_hat")} for r in reports[1:]] == [
        {k: report[k] for k in ("stop_reason", "evaluations", "L_hat")}
    ]


# the keys of report.json, in their order
REPORT_KEYS = [
    "z_convention", "gamma", "L_hat", "iterations", "stop_reason", "evaluations", "diverged",
    "lambda_hat", "r_squared", "residuals", "dist_to_reference", "seconds",
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # two of the runs overflow on purpose
def test_report_json_has_its_keys_in_order(tmp_path):
    # the probe solves of this config overflow
    probe_fails = {**FAST_LQ, "grid": {"horizon": 1.0, "steps": 20}, "ensemble": {"scenarios": 8, "particles": 100},
                   "extragradient": {"n_max": 5}, "seed": 0}
    # the second iteration's trial point leaves the finite range
    late_fail = json.loads(json.dumps(FAST_LQ))
    late_fail["extragradient"].update(gamma=5.0, n_max=40)
    reports = {}
    for name, data in (("tol", FAST_LQ), ("probe", probe_fails), ("late", late_fail)):
        run_solve(parse_config(data), tmp_path / name)
        reports[name] = json.loads((tmp_path / name / "report.json").read_text())
    assert reports["tol"]["stop_reason"] == "tol" and reports["probe"]["L_hat"] is None
    for report in reports.values():
        assert list(report) == REPORT_KEYS
    late = reports["late"]
    assert late["stop_reason"] == "non_finite" and late["iterations"] > 1
    assert late["residuals"][-1] is None and None not in late["residuals"][:-1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the failing cells overflow on purpose
def test_lockstep_sweep_writes_the_serial_sweep(tmp_path, monkeypatch):
    # unclamped, and clamped at a finite level: the cells of one clamped
    # model share their wrapped maps, so they still stack
    for clamp_m in (None, 2.0):
        out = tmp_path / f"clamp_{clamp_m}"
        data = json.loads(json.dumps(FAST_LQ))
        data["constants"]["clamp_m"] = clamp_m
        data["model"]["params"]["r1"] = -2.0
        data["ensemble"] = {"scenarios": 4, "particles": 16}
        data["extragradient"]["n_max"] = 20
        data["sweep"] = {"sigma0": [0.3, 0.6], "horizons": [0.5, 1.0, 8.0], "workers": 1, "picard_sweeps": 5}
        stacks = []
        real = majorminor.extragradient.evaluate_many
        with monkeypatch.context() as patch:
            patch.setattr(
                majorminor.extragradient, "evaluate_many", lambda ops, cs: stacks.append(len(ops)) or real(ops, cs)
            )
            assert run_sigma_sweep(parse_config(data), out / "lockstep") == 0
        assert max(stacks) > 1
        data["sweep"]["workers"] = 2
        assert run_sigma_sweep(parse_config(data), out / "pool") == 0
        # a budget below one instance runs every cell alone, through op(control)
        with monkeypatch.context() as patch:
            patch.setattr(majorminor.extragradient, "LOCKSTEP_BYTES", 1)
            data["sweep"]["workers"] = 1
            assert run_sigma_sweep(parse_config(data), out / "serial") == 0
        serial = (out / "serial" / "sweep.csv").read_bytes()
        rows = serial.decode().splitlines()[1:]
        assert len(rows) == 6 and any(r.endswith(",") for r in rows)
        # cells at T = 8 overflow unclamped; the clamp keeps them finite
        assert any("non-finite" in r for r in rows) == (clamp_m is None)
        assert (out / "lockstep" / "sweep.csv").read_bytes() == serial
        assert (out / "pool" / "sweep.csv").read_bytes() == serial


def test_a_config_nested_too_deeply_is_one_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    error = capsys.readouterr().err
    assert error == "error: config is nested too deeply to parse\n"
    assert not (tmp_path / "run").exists()


def test_a_deeply_nested_value_is_reported_without_recursing_into_it():
    nested = 0.5
    for _ in range(10_000):
        nested = [nested]
    with pytest.raises(ConfigurationError) as err:
        parse_config({"sweep": {"sigma0": nested}})
    assert err.value.violations == ["sweep.sigma0 must be a list of reals >= 0, got [[[[[[[...]]]]]]]"]


def test_sizes_are_judged_at_the_finest_converge_level():
    # the converge study builds 4x the particles and 4x the steps: 1 x 1e17
    # x 2 doubles are addressable, 1 x 4e17 x 5 are not
    doc = {"ensemble": {"scenarios": 1, "particles": 10**17}, "grid": {"steps": 1}}
    with pytest.raises(ConfigurationError) as err:
        parse_config(doc)
    assert len(err.value.violations) == 1 and "finest level a command builds" in err.value.violations[0]
    doc["ensemble"]["particles"] = 10**16
    assert parse_config(doc)["ensemble"]["particles"] == 10**16


SWEEP_ROW_KEYS = ("sigma0", "horizon", "seed", "eg_converged", "eg_residual", "lambda_hat", "picard_converged",
                  "picard_diverged", "error")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the failing cells overflow on purpose
def test_sweep_rows_equal_serial_eg_then_picard_runs(monkeypatch):
    # each cell's Picard run is queued as its EG run ends and shares the
    # stacked solves of the other cells' EG runs; the rows equal those of
    # each cell's `run_extragradient` followed by its `picard_solve`
    data = json.loads(json.dumps(FAST_LQ))
    data["extragradient"]["n_max"] = 6
    data["sweep"] = {"sigma0": [0.3, 1.0], "horizons": [0.25, 1.0, 8.0], "workers": 1, "picard_sweeps": 8}
    base = parse_config(data).data
    sweep = base["sweep"]
    cells = [(base, s, t, i, j) for i, s in enumerate(sweep["sigma0"]) for j, t in enumerate(sweep["horizons"])]
    stacks = []
    real = majorminor.extragradient.evaluate_many
    with monkeypatch.context() as patch:
        patch.setattr(
            majorminor.extragradient, "evaluate_many", lambda ops, cs: stacks.append(len(ops)) or real(ops, cs)
        )
        got = majorminor.cli._sweep_rows(cells)
    assert max(stacks) == len(cells)
    want = []
    for _, sigma0, horizon, i, j in cells:
        cell = json.loads(json.dumps(base))
        cell["constants"]["sigma0"], cell["grid"]["horizon"] = sigma0, horizon
        cell["seed"] = majorminor.cli._cell_seed(base["seed"], i, j)
        config = majorminor.cli.RunConfig(data=cell)
        op, eg = build_problem(config)[0], majorminor.cli._extragradient_config(config)
        row = {"sigma0": sigma0, "horizon": horizon, "seed": cell["seed"], "eg_converged": 0, "eg_residual": math.nan,
               "lambda_hat": math.nan, "picard_converged": 0, "picard_diverged": 0, "error": ""}
        want.append(row)
        try:
            report = run_extragradient(op.zero, eg, op)
        except SimulationError as exc:
            row["error"] = str(exc).replace(",", ";")
            continue
        row.update(eg_converged=int(report.stop_reason == "tol"), eg_residual=report.residuals[-1],
                   lambda_hat=math.nan if report.lambda_hat is None else report.lambda_hat)
        pic = picard_solve(op, tol=eg.tol, max_iter=8)
        row.update(picard_converged=int(pic.converged), picard_diverged=int(pic.diverged))

    def table(rows):
        return [[repr(row[k]) for k in SWEEP_ROW_KEYS] for row in rows]

    assert table(got) == table(want)
    # Picard runs converge, diverge and stop at the cap, and EG runs fail
    assert {(row["picard_converged"], row["picard_diverged"], row["error"] != "") for row in want} == {
        (1, 0, False), (0, 1, False), (0, 0, False), (0, 0, True)
    }
