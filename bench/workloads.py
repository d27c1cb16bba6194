"""The three benchmark workloads, driven through the public CLI entry points.

Each workload builds its JSON config documents from the seed, runs one pass
through `parse_config` and the `run_*` commands, reads the artifacts back,
and returns an `Outcome`: the units it attempted (commands, sweep cells,
certification checks) with their pass/fail state, a comparable result for
the reference check, and the CSV bodies for the determinism check.

Every workload pins the LQ cone (c1=1, c3=0.5, g1=1, b=1, p1=1).  The CLI
default `model.params` are all zero, so b = 0: the oracle control is then
identically 0, the first distance to the oracle is 0, and cost-to-tolerance
numbers measure nothing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LQ_PARAMS = {"c1": 1.0, "c3": 0.5, "g1": 1.0, "b": 1.0, "p1": 1.0}

SOLVE_INSTANCES = 2  # independent solves per solve_m pass; halves the seed spread
SOLVE_TOL = 1e-4
SWEEP_SIGMA0 = [0.25, 0.5, 1.0, 2.0]
SWEEP_HORIZONS = [0.5, 1.0, 2.0]

# Reference results are recorded at this precision; a change that only
# reorders floating-point work stays far inside it.
REL_TOL = 1e-6


@dataclass
class Outcome:
    units: list[tuple[str, bool]] = field(default_factory=list)
    result: dict = field(default_factory=dict)
    bodies: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def solve_doc(seed: int) -> dict:
    return {
        "model": {"kind": "lq", "params": LQ_PARAMS},
        "extragradient": {"tol": SOLVE_TOL},
        "sweep": {"workers": 1},
        "seed": seed,
    }


def converge_doc(seed: int) -> dict:
    return {"model": {"kind": "lq", "params": LQ_PARAMS}, "sweep": {"workers": 1}, "seed": seed}


def study_doc(seed: int, sweep: bool) -> dict:
    doc = {
        "model": {"kind": "lq", "params": LQ_PARAMS},
        "grid": {"steps": 10},
        "ensemble": {"scenarios": 12, "particles": 64},
        "extragradient": {"n_max": 45, "tol": 5e-3},
        "sweep": {"workers": 1},
        "seed": seed,
    }
    if sweep:
        doc["sweep"] = {
            "sigma0": SWEEP_SIGMA0, "horizons": SWEEP_HORIZONS, "workers": 1, "picard_sweeps": 25,
        }
    return doc


def instance_seeds(seed: int) -> list[int]:
    """Config seeds of the solve_m instances; the first is the workload seed."""
    return [seed + i * 1_000_003 for i in range(SOLVE_INSTANCES)]


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _num(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _command(outcome: Outcome, unit: str, call):
    """Run one CLI command; a raise fails its unit and returns None, and the
    caller records the unit's state otherwise."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return call()
    except Exception:  # the benchmark records the failure and carries on
        traceback.print_exc(file=sys.stderr)
        outcome.units.append((unit, False))
        outcome.problems.append(f"{unit} raised")
        return None


def solve_pass(mm, seed: int, out: Path, span) -> Outcome:
    oc = Outcome()
    finals, dists, iters = [], [], []
    for i, s in enumerate(instance_seeds(seed)):
        d = out / f"solve{i}"
        with span("cli.parse_config"):
            cfg = mm.cli.parse_config(json.dumps(solve_doc(s)))
        with span("cli.run_solve"):
            rc = _command(oc, f"solve[{i}]", lambda: mm.cli.run_solve(cfg, d))
        if rc is None:
            continue
        rows = _read_rows(d / "iterations.csv")
        col = rows[0].index("seconds")  # the one labelled wall-clock column
        oc.bodies[f"solve{i}/iterations.csv"] = "\n".join(
            ",".join(r[:col] + r[col + 1 :]) for r in rows
        )
        oc.bodies[f"solve{i}/snapshot.csv"] = (d / "snapshot.csv").read_text()
        trail = [float(r[1]) for r in rows[1:]]
        dist = float(rows[-1][2])
        oc.result[f"solve[{i}]"] = {"exit": rc, "residuals": trail, "dist_to_oracle": dist}
        ok = rc == 0 and bool(trail) and trail[-1] <= SOLVE_TOL and all(map(math.isfinite, trail))
        oc.units.append((f"solve[{i}]", ok))
        if not ok:
            oc.problems.append(f"solve[{i}] did not stop at tol with exit 0 (exit {rc})")
        finals.append(trail[-1])
        dists.append(dist)
        iters.append(len(trail))
    oc.details = {"final_residual": finals, "dist_to_oracle": dists, "iterations": iters}
    return oc


def converge_pass(mm, seed: int, out: Path, span) -> Outcome:
    oc = Outcome()
    with span("cli.parse_config"):
        cfg = mm.cli.parse_config(json.dumps(converge_doc(seed)))
    with span("cli.run_converge"):
        rc = _command(oc, "converge", lambda: mm.cli.run_converge(cfg, out))
    if rc is None:
        return oc
    oc.bodies["convergence.csv"] = (out / "convergence.csv").read_text()
    rows = [[_num(x) for x in r] for r in _read_rows(out / "convergence.csv")[1:]]
    floors = [r[3] for r in rows]
    oc.result["converge"] = {"exit": rc, "floors": floors}
    expected = [[lvl, 50 * 2**lvl, 500 * 2**lvl] for lvl in range(3)]
    ok = rc == 0 and [r[:3] for r in rows] == expected and all(math.isfinite(f) and f > 0 for f in floors)
    oc.units.append(("converge", ok))
    if not ok:
        oc.problems.append("converge levels or floors malformed")
    # finding, not a check: the floor need not fall under refinement
    oc.details = {"floor_residual": floors[-1] if floors else None, "floors": floors}
    return oc


def study_pass(mm, seed: int, out: Path, span) -> Outcome:
    oc = Outcome()
    with span("cli.parse_config"):
        cfg = mm.cli.parse_config(json.dumps(study_doc(seed, sweep=False)))
    with span("cli.run_verify"):
        rc_v = _command(oc, "verify", lambda: mm.cli.run_verify(cfg, out / "verify"))
    checks = []
    if rc_v is not None:
        oc.units.append(("verify", rc_v == 0))
        cert = json.loads((out / "verify" / "certification.json").read_text())
        checks = [[r["name"], r["passed"]] for r in cert["reports"]]
        oc.units.extend((f"check:{name}", passed) for name, passed in checks)
        if (rc_v == 0) != all(p for _, p in checks):
            oc.problems.append("verify exit code disagrees with its check reports")
    with span("cli.parse_config"):
        cfg_s = mm.cli.parse_config(json.dumps(study_doc(seed, sweep=True)))
    with span("cli.run_sigma_sweep"):
        rc_s = _command(oc, "sweep", lambda: mm.cli.run_sigma_sweep(cfg_s, out / "sweep"))
    rows = []
    if rc_s is not None:
        oc.units.append(("sweep", rc_s == 0))
        oc.bodies["sweep.csv"] = (out / "sweep" / "sweep.csv").read_text()
        table = _read_rows(out / "sweep" / "sweep.csv")
        header = table[0]
        rows = [dict(zip(header, (_num(x) for x in r))) for r in table[1:]]
        grid = [[r["sigma0"], r["horizon"]] for r in rows]
        if grid != [[float(s), float(t)] for s in SWEEP_SIGMA0 for t in SWEEP_HORIZONS]:
            oc.problems.append("sweep rows do not cover the sigma0 x horizon grid")
        oc.units.extend((f"cell:{r['sigma0']}x{r['horizon']}", r["error"] == "") for r in rows)
    oc.result["study"] = {
        "verify_exit": rc_v,
        "checks": checks,
        "sweep": [[r[h] for h in r] for r in rows],
    }
    oc.details = {
        "cells_converged": sum(r["eg_converged"] for r in rows),
        "checks_passed": sum(1 for _, p in checks if p),
        "checks": len(checks),
    }
    return oc


def solve_setup(mm, seed: int) -> None:
    for s in instance_seeds(seed):
        cfg = mm.cli.parse_config(json.dumps(solve_doc(s)))
        _, grid, noise, init, cs, params, constants = mm.cli.build_problem(cfg)
        sol = mm.cli.riccati_oracle(params, constants, grid)
        mm.cli.oracle_induced_control(sol, cs, grid, noise, init)


def converge_setup(mm, seed: int) -> None:
    cfg = mm.cli.parse_config(json.dumps(converge_doc(seed)))
    for level in range(3):  # the level scaling of run_converge
        data = json.loads(json.dumps(cfg.data))
        data["grid"]["steps"] *= 2**level
        data["ensemble"]["particles"] *= 2**level
        _, grid, noise, init, cs, params, constants = mm.cli.build_problem(mm.cli.RunConfig(data=data))
        sol = mm.cli.riccati_oracle(params, constants, grid)
        mm.cli.oracle_induced_control(sol, cs, grid, noise, init)


def study_setup(mm, seed: int) -> None:
    cfg = mm.cli.parse_config(json.dumps(study_doc(seed, sweep=False)))
    _, grid, _, _, _, params, constants = mm.cli.build_problem(cfg)
    mm.cli.riccati_oracle(params, constants, grid)
    cfg_s = mm.cli.parse_config(json.dumps(study_doc(seed, sweep=True)))
    for s in SWEEP_SIGMA0:
        for t in SWEEP_HORIZONS:
            # the sweep's per-cell seeds do not change the cost of a build
            data = json.loads(json.dumps(cfg_s.data))
            data["constants"]["sigma0"] = s
            data["grid"]["horizon"] = t
            mm.cli.build_problem(mm.cli.RunConfig(data=data))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run_pass: Callable[..., Outcome]
    setup: Callable[..., None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve_m",
            "default-size solve to tol: probing plus the EG loop, where step-size and regression changes show",
            solve_pass,
            solve_setup,
        ),
        Workload(
            "converge_m",
            "no EG at all, large arrays: the bypass for EG changes; layout, forward and noise changes show",
            converge_pass,
            converge_setup,
        ),
        Workload(
            "small_study",
            "verify plus a 12-cell sigma-sweep of tiny solves: per-call overhead, Picard and the checks",
            study_pass,
            study_setup,
        ),
    )
}


def compare(got, want, path: str = "") -> list[str]:
    """Differences between a result and its reference; floats within REL_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                out.append(f"{path}/{key}: present on one side only")
            else:
                out.extend(compare(got[key], want[key], f"{path}/{key}"))
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != reference {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(compare(g, w, f"{path}[{i}]"))
        return out
    if isinstance(want, float) or isinstance(got, float):
        g, w = float(got), float(want)
        if math.isnan(w) and math.isnan(g):
            return []
        if g == w or abs(g - w) <= REL_TOL * max(abs(g), abs(w)):
            return []
        return [f"{path}: {g!r} != reference {w!r}"]
    return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]
