"""The benchmark's contract with the package, checked in the package's suite.

`bench/spans.py` wraps package functions by (owner, attribute) and the
benchmark workloads unpack the 7-tuple of `cli.build_problem`; a rename here
would otherwise surface only in the slow `bench/selftest.py`.
"""

import importlib.util
import sys
from pathlib import Path

import majorminor
import majorminor.cli
from majorminor.cli import build_problem, parse_config

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
