"""The benchmark's contract with the package, checked in the package's suite.

`bench/spans.py` wraps package functions by (owner, attribute) and reads the
arrays of a solve, and the benchmark workloads unpack the 7-tuple of
`cli.build_problem`; a rename or deletion here would otherwise surface only
in the slow `bench/selftest.py`.
"""

import importlib.util
import sys
from pathlib import Path

import majorminor
import majorminor.cli
import pytest

from majorminor.cli import build_problem, parse_config
from majorminor.extragradient import ExtragradientConfig, estimate_lipschitz_v, run_extragradient, solve_stacked
from majorminor.solver import decoupled_solve

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists(monkeypatch):
    bindings = load_spans(monkeypatch).traced_bindings(majorminor)
    assert bindings
    assert [(owner, attr) for owner, attr in bindings if attr not in owner.__dict__] == []


def test_build_problem_returns_seven_items():
    config = parse_config({"grid": {"steps": 2}, "ensemble": {"scenarios": 2, "particles": 4}})
    assert len(build_problem(config)) == 7


def test_solve_info_reads_a_solve(monkeypatch):
    config = parse_config({"grid": {"steps": 2}, "ensemble": {"scenarios": 2, "particles": 4}})
    op, grid, noise, init, _, _, _ = build_problem(config)
    solve = decoupled_solve(op.zero(), op.primed, noise, init, op.basis, grid)
    assert load_spans(monkeypatch)._solve_info(solve)["mb"] > 0


def test_solve_info_reads_a_stacked_solve(monkeypatch):
    ops = [
        build_problem(parse_config({"grid": {"steps": 2}, "ensemble": {"scenarios": 2, "particles": 4}, "seed": s}))[0]
        for s in (1, 2)
    ]
    stacked = solve_stacked(ops, [op.zero() for op in ops])
    solo = decoupled_solve(ops[0].zero(), ops[0].primed, ops[0].noise, ops[0].init, ops[0].basis, ops[0].grid)
    solve_info = load_spans(monkeypatch)._solve_info
    assert solve_info(stacked)["mb"] == pytest.approx(2 * solve_info(solo)["mb"])


def test_the_benchmark_counts_every_evaluation_of_a_solo_run(monkeypatch):
    # `evals_to_tol` of `solve_m` is the count of the untraced runs' one
    # wrapper, on `FbsdeOperator.__call__`: a solo run and a solo probe must
    # send every control they evaluate through op(control)
    doc = {
        "model": {"kind": "lq", "params": {"c1": 1.0, "c3": 0.5, "g1": 1.0, "b": 1.0, "p1": 1.0}},
        "grid": {"steps": 10},
        "ensemble": {"scenarios": 12, "particles": 64},
    }
    op = build_problem(parse_config(doc))[0]
    counter = {}
    with load_spans(monkeypatch).counted(counter, majorminor):
        report = run_extragradient(op.zero, ExtragradientConfig(n_max=3), op)
        run_evals = counter.pop("v_evals")
        L_hat = estimate_lipschitz_v(op)
    assert run_evals == report.evaluations["probe"] + report.evaluations["iterate"] == 12 + 6
    assert counter == {"v_evals": L_hat.evaluations}
