"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the package's test collection: they run
every workload twice (about two and a half minutes on a 2-core machine).
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest

import run
from spans import Patch, Span, Tracer, check_self_time_sum, self_times, spanned, traced, traced_bindings
from workloads import WORKLOADS, compare

MM = run.load_package()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_arithmetic_on_fixed_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "a.x", 1.5, 2.5, 1, "r"),
        Span(3, "b", 5.0, 9.0, 0, "r"),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert check_self_time_sum(spans) == 0.0


def test_self_time_on_a_synthetic_nested_call():
    ns = types.SimpleNamespace()

    def inner(delay):
        time.sleep(delay)

    def outer():
        time.sleep(0.01)
        ns.inner(0.02)
        ns.inner(0.03)

    ns.inner, ns.outer = inner, outer
    tracer = Tracer()
    patch = Patch()
    patch.wrap(ns, "inner", spanned(tracer, "inner"))
    patch.wrap(ns, "outer", spanned(tracer, "outer"))
    ns.outer()
    patch.restore()
    assert ns.inner is inner and ns.outer is outer
    root, first, second = tracer.spans
    assert (root.parent, first.parent, second.parent) == (None, 0, 0)
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(root.dur - first.dur - second.dur, abs=1e-12)
    assert own[0] >= 0.01 and first.dur >= 0.02 and second.dur >= 0.03
    assert check_self_time_sum(tracer.spans) < 1e-9


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_keeps_csv_bodies_and_restores_every_binding(name):
    wl = WORKLOADS[name]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in traced_bindings(MM)]
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        plain = wl.run_pass(MM, 1234, Path(tmp) / "plain", contextlib.nullcontext)
        tracer = Tracer()
        with traced(tracer, MM):
            with tracer.span("bench.pass"):
                wrapped = wl.run_pass(MM, 1234, Path(tmp) / "traced", tracer.span)
    assert plain.bodies and plain.bodies == wrapped.bodies
    assert compare(wrapped.result, plain.result) == []
    assert not plain.problems and not wrapped.problems
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} left wrapped"
    assert check_self_time_sum(tracer.spans) < 1e-9


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_counts_and_accuracy_repeat_exactly_at_a_fixed_seed():
    first_details, first = _bench("small_study", 0)
    second_details, second = _bench("small_study", 0)
    assert first["correct"] and second["correct"]
    assert first["metrics"]["evals_to_tol"] == second["metrics"]["evals_to_tol"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first_details["outcome"] == second_details["outcome"]


def test_benchmark_json_names_match_what_run_py_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS_END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.UNITS_PER_LAYER
    _, plain = _bench("converge_m", 0)
    assert set(plain["metrics"]) == set(run.UNITS_END_TO_END)
    _, traced_run = _bench("converge_m", 1)
    assert set(traced_run["metrics"]) == set(run.UNITS_PER_LAYER)
    for result in (plain, traced_run):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        for name, metric in result["metrics"].items():
            assert metric["unit"] == (run.UNITS_END_TO_END | run.UNITS_PER_LAYER)[name]
