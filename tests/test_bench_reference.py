"""The benchmark's recorded results, checked in the package's suite.

`bench/reference.json` holds each workload's result at its recorded seeds,
and `bench/run.py` fails a run whose result departs from it by more than
`workloads.REL_TOL` (1e-6 relative).  The two fast workloads run here at
seed 1234, so a rounding change that breaks that match fails the suite, not
only the slow benchmark.  The reference records a verify run's checks as
pass flags only, so the `small_study` certificate is pinned here in full.
Like `tests/test_bench_bindings.py`, this only reads `bench/`.
"""

import contextlib
import importlib.util
import json
import math
import sys
import types
from pathlib import Path

import majorminor.cli
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["small_study", "converge_m"])
def test_a_pass_matches_the_recorded_reference(workload, monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    want = json.loads((BENCH / "reference.json").read_text())[workload]["1234"]
    mm = types.SimpleNamespace(cli=majorminor.cli)
    outcome = workloads.WORKLOADS[workload].run_pass(mm, 1234, tmp_path, contextlib.nullcontext)
    assert outcome.problems == []
    assert workloads.compare(outcome.result, want) == []


# (name, passed, samples, margin, se, witness, extras) of each report of the
# `small_study` verify run at seed 1234
STUDY_CERTIFICATE_1234 = [
    ("terminal_monotonicity", True, 200, 0.9399951139407464, 0.07438031375376135, None, {}),
    (
        "coefficient_monotonicity", True, 200, 1.01048906164162, 0.0035670480577792763, None,
        {"kappa_hat": 1.01048906164162},
    ),
    ("coefficient_monotonicity_zpair", True, 200, 3.2328680865553636, 0.20791423853375945, None, {}),
    (
        "v_monotonicity", True, 20, -55117616.796411276, 53822924.17113863, None,
        {"eta_hat": -20833603.68118761},
    ),
    (
        "z_bound", True, 120, 0.8220944665252139, 1.2320250094869176, None,
        {"max_abs_zphi": 4.341223575040874, "lip_q_phi": 1.3973742981955575},
    ),
    ("pontryagin_residual", True, 768, 0.04921364699282672, 0.0, None, {"residual": 0.0007863530071732824}),
]


def assert_close(got, want, where):
    """Equal structure and exact non-floats; floats to rtol 1e-9."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, (where, got, want)


def test_the_study_certificate_matches_its_recorded_reports(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    config = majorminor.cli.parse_config(json.dumps(workloads.study_doc(1234, sweep=False)))
    assert majorminor.cli.run_verify(config, tmp_path) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["error"] is None
    got = [
        (r["name"], r["passed"], r["samples"], r["margin"], r["se"], r["witness"], r["extras"])
        for r in cert["reports"]
    ]
    assert [g[:3] for g in got] == [w[:3] for w in STUDY_CERTIFICATE_1234]  # names, verdicts, samples
    for g, w in zip(got, STUDY_CERTIFICATE_1234):
        assert_close(list(g[3:]), list(w[3:]), g[0])
