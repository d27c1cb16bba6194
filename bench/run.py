"""Cost-to-tolerance benchmark for the majorminor solver.

    python3 bench/run.py --workload solve_m --seed 1234 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  With --trace 0 it times untraced passes and prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and prints
the per-layer metrics plus the tracing overhead.  The last stdout line is the
result object; the line before it carries the environment, the workload's
own outcome numbers and any output-check problems.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread (<= nproc): the benchmark's measurements stay steady on a
# shared machine.  Must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

from spans import Tracer, check_self_time_sum, counted, layer_metrics, traced
from workloads import WORKLOADS, compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

MIN_SETUP_REPS = 3
MAX_SETUP_REPS = 50
SETUP_BUDGET_S = 2.0


def load_package():
    """Import majorminor from this checkout's src/ and nowhere else."""
    pkg = ROOT / "src" / "majorminor"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {pkg}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    names = ("cli", "extragradient", "oracle", "solver", "ensembles", "models")
    mods = {n: importlib.import_module(f"majorminor.{n}") for n in names}
    if Path(mods["cli"].__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: majorminor imported from {mods['cli'].__file__}, not {pkg}")
    return types.SimpleNamespace(**mods)


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout; do not report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    with contextlib.suppress(KeyError, TypeError):  # show_config's layout varies by version
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
    }


def measure_setup(wl, mm, seed: int) -> float:
    """Median time of the workload's set-up calls over repeated builds."""
    times = []
    spent = 0.0
    while len(times) < MIN_SETUP_REPS or (spent < SETUP_BUDGET_S and len(times) < MAX_SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(mm, seed)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return statistics.median(times)


def timed_pass(wl, mm, seed: int, out: Path, span):
    gc.collect()
    t0 = time.perf_counter()
    outcome = wl.run_pass(mm, seed, out, span)
    return time.perf_counter() - t0, outcome


def run_untraced(wl, mm, seed: int, seconds: float, tmp: Path):
    walls, outcomes = [], []
    counter: dict = {}
    start = time.perf_counter()
    with counted(counter, mm):
        while True:
            counter["v_evals"] = 0
            wall, oc = timed_pass(wl, mm, seed, tmp / f"pass{len(walls)}", contextlib.nullcontext)
            oc.details["evals_to_tol"] = counter["v_evals"]
            walls.append(wall)
            outcomes.append(oc)
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    return walls, outcomes


def run_traced(wl, mm, seed: int, seconds: float, tmp: Path):
    """Untraced/traced pass pairs; returns both walls, outcomes and tracer."""
    tracer = Tracer()
    plain, with_trace, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        i = len(plain)
        wall, oc = timed_pass(wl, mm, seed, tmp / f"plain{i}", contextlib.nullcontext)
        plain.append(wall)
        outcomes.append(oc)
        tracer.run = f"traced{i}"
        with traced(tracer, mm):
            gc.collect()
            with tracer.span("bench.pass"):
                t0 = time.perf_counter()
                oc = wl.run_pass(mm, seed, tmp / f"traced{i}", tracer.span)
                with_trace.append(time.perf_counter() - t0)
        outcomes.append(oc)
        if time.perf_counter() - start + statistics.median(plain) + statistics.median(with_trace) > seconds:
            break
    return plain, with_trace, outcomes, tracer


def check_outcomes(workload: str, seed: int, outcomes) -> tuple[list[str], str]:
    """Determinism across passes, then the reference result at this seed."""
    problems = list(dict.fromkeys(p for oc in outcomes for p in oc.problems))
    first = outcomes[0]
    for i, oc in enumerate(outcomes[1:], start=1):
        if oc.units != first.units:
            problems.append(f"pass {i} unit outcomes differ from pass 0")
        if oc.bodies != first.bodies:
            differ = sorted(k for k in set(oc.bodies) | set(first.bodies) if oc.bodies.get(k) != first.bodies.get(k))
            problems.append(f"pass {i} CSV bodies differ from pass 0: {differ}")
        if compare(oc.result, first.result):
            problems.append(f"pass {i} results differ from pass 0")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    want = reference.get(workload, {}).get(str(seed))
    if want is None:
        return problems, "no reference for this seed"
    diffs = compare(first.result, want)
    problems.extend(f"reference mismatch {d}" for d in diffs[:10])
    return problems, "mismatch" if diffs else "match"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("seed must be in [0, 2**63)")

    mm = load_package()
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_name:
        tmp = Path(tmp_name)
        setup_s = measure_setup(wl, mm, args.seed)
        if args.trace:
            plain, walls_t, outcomes, tracer = run_traced(wl, mm, args.seed, args.seconds, tmp)
        else:
            plain, outcomes = run_untraced(wl, mm, args.seed, args.seconds, tmp)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, ref_state = check_outcomes(wl.name, args.seed, outcomes)
    if args.trace:
        per_pass = []
        for run_id in sorted({s.run for s in tracer.spans}):
            spans = [s for s in tracer.spans if s.run == run_id]
            gap = check_self_time_sum(spans)
            if gap > 1e-9:
                problems.append(f"{run_id}: self times miss their root span by {gap:.3g} (relative)")
            per_pass.append(layer_metrics(spans))
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(walls_t) - statistics.median(plain)
        tracer.dump(OUT_DIR / f"trace_{wl.name}_seed{args.seed}.json")
        units = UNITS_PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": setup_s,
            "evals_to_tol": outcomes[0].details["evals_to_tol"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS_END_TO_END
        evals = {oc.details["evals_to_tol"] for oc in outcomes}
        if len(evals) != 1:
            problems.append(f"evaluation counts differ between passes: {sorted(evals)}")

    # every pass runs the same units (checked above), so one pass's units are
    # the count: it must not grow with the number of passes that fit.  A run
    # whose result departs from its reference has failed as a whole.
    units_run = outcomes[0].units
    attempted = len(units_run)
    failed = sum(1 for _, ok in units_run if not ok)
    if ref_state == "mismatch":
        failed = attempted
    details = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(outcomes),
        "walls_s": plain,
        "traced_walls_s": walls_t if args.trace else None,
        "fail_frac": failed / attempted,
        "failed_units": [name for name, ok in units_run if not ok],
        "outcome": outcomes[0].details,
        "reference": ref_state,
        "problems": problems,
        "env": environment(),
    }
    print(json.dumps(details))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


UNITS_END_TO_END = {"wall_s": "s", "setup_s": "s", "evals_to_tol": "count", "peak_rss_mb": "MB"}

UNITS_PER_LAYER = {
    "grids.sample_noise_s": "s",
    "grids.noise_mb": "MB",
    "solver.evals": "count",
    "solver.eval_s.p50": "s",
    "solver.eval_s.p90": "s",
    "solver.forward_s": "s",
    "solver.backward_self_s": "s",
    "solver.xfit_calls": "count",
    "solver.xfit_s": "s",
    "solver.theta_s": "s",
    "solver.state_mb": "MB",
    "ensembles.features_s": "s",
    "ensembles.inner_calls": "count",
    "ensembles.inner_s": "s",
    "models.drivers_s": "s",
    "extragradient.v_evals": "count",
    "extragradient.probe_evals": "count",
    "extragradient.probe_s": "s",
    "extragradient.useful_frac": "1",
    "extragradient.iterations": "count",
    "extragradient.iter_s.p50": "s",
    "extragradient.loop_self_s": "s",
    "extragradient.time_to_tol_s": "s",
    "oracle.riccati_s": "s",
    "oracle.induced_control_s": "s",
    "oracle.picard_s": "s",
    "oracle.picard_sweeps": "count",
    "verification.checks_self_s": "s",
    "verification.v_evals": "count",
    "cli.write_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


if __name__ == "__main__":
    sys.exit(main())
