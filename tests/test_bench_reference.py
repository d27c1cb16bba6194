"""The benchmark's recorded results, checked in the package's suite.

`bench/reference.json` holds each workload's result at its recorded seeds,
and `bench/run.py` fails a run whose result departs from it by more than
`workloads.REL_TOL` (1e-6 relative).  The two fast workloads run here at
seed 1234, so a rounding change that breaks that match fails the suite, not
only the slow benchmark.  Like `tests/test_bench_bindings.py`, this only
reads `bench/`.
"""

import contextlib
import importlib.util
import json
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
