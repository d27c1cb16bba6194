"""Outside-in span tracing for the benchmark.

Wrappers are installed on the public functions of each layer at every module
that binds them (a `from x import f` makes a second binding, so wrapping only
the defining module would miss calls), recorded as spans in memory, and
removed again afterwards.  Nothing inside `src/` is edited.

A span is (name, start, end, parent, run id).  Self time is a span's duration
minus the time its direct children cover; calls are single-threaded, so
children never overlap and covering time is the sum of their durations.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps


FIELDS = ["sid", "name", "start", "end", "parent", "run", "info"]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = ""

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        """Write every span as one row: sid, name, start, end, parent, run, info."""
        rows = [[s.sid, s.name, s.start, s.end, s.parent, s.run, s.info] for s in self.spans]
        path.write_text(json.dumps({"fields": FIELDS, "spans": rows}, separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its direct children."""
    own = {s.sid: s.dur for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.dur
    return own


class Patch:
    """Replace attributes with wrappers; `restore` puts every original back."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr]
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def spanned(tracer: Tracer, name: str, annotate=None):
    def make(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                out = fn(*args, **kwargs)
                if annotate is not None:
                    rec.info.update(annotate(out))
                return out

        return wrapper

    return make


def _counted(counter: dict, key: str):
    def make(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            counter[key] = counter.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def _mb(*arrays) -> float:
    return sum(a.nbytes for a in arrays if a is not None) / 1e6


def _noise_info(bundle) -> dict:
    return {"mb": _mb(bundle.dB, bundle.dW0)}


def _solve_info(solve) -> dict:
    st = solve.state
    return {"mb": _mb(st.X, st.U, st.qf, st.qb, st.phi, st.Zphi, st.Zq, st.Z, solve.theta_F, solve.theta_H)}


def _picard_info(result) -> dict:
    return {"sweeps": result.sweeps}


def _targets(mm):
    """(owner, attribute, span name, annotate) for every traced binding."""
    cli, ex, orc, sol, ens, mod = mm.cli, mm.extragradient, mm.oracle, mm.solver, mm.ensembles, mm.models
    out = [
        (cli, "build_problem", "cli.build_problem", None),
        (cli, "write_csv", "cli.write_csv", None),
        (cli.RunManifest, "write", "cli.manifest_write", None),
        (cli, "sample_noise", "grids.sample_noise", _noise_info),
        (cli, "riccati_oracle", "oracle.riccati", None),
        (cli, "oracle_induced_control", "oracle.induced_control", None),
        (cli, "picard_solve", "oracle.picard", _picard_info),
        (cli, "estimate_lipschitz_v", "extragradient.probe", None),
        (ex, "estimate_lipschitz_v", "extragradient.probe", None),
        (cli, "run_extragradient", "extragradient.run", None),
        (ex, "extragradient_step", "extragradient.step", None),
        (ex.FbsdeOperator, "__call__", "extragradient.v", None),
        (ex, "decoupled_solve", "solver.decoupled_solve", _solve_info),
        (orc, "decoupled_solve", "solver.decoupled_solve", _solve_info),
        (sol, "solve_backward", "solver.backward", None),
        (sol, "regress_conditional", "solver.regress_conditional", None),
        (ex, "regress_conditional", "solver.regress_conditional", None),
        (sol, "theta_inverse", "solver.theta_inverse", None),
        (sol, "conditional_features", "ensembles.conditional_features", None),
        (ex, "conditional_features", "ensembles.conditional_features", None),
        (orc, "conditional_features", "ensembles.conditional_features", None),
        (ex, "inner_product_T", "ensembles.inner_product_T", None),
        (ens, "inner_product_T", "ensembles.inner_product_T", None),
        (mod.PrimedCoefficientSet, "Gp", "models.driver", None),
        (mod.PrimedCoefficientSet, "LHp", "models.driver", None),
        (mod.PrimedCoefficientSet, "Hzp", "models.driver", None),
        (cli, "compute_thresholds", "verification.check", None),
    ]
    for name in (
        "check_terminal_monotonicity",
        "check_coefficient_monotonicity",
        "check_v_monotonicity",
        "check_z_bound",
        "check_pontryagin_residual",
    ):
        out.append((cli, name, "verification.check", None))
    return out


@contextmanager
def traced(tracer: Tracer, mm):
    """Install span wrappers on every traced binding; restore them on exit."""
    patch = Patch()
    try:
        for owner, attr, name, annotate in _targets(mm):
            patch.wrap(owner, attr, spanned(tracer, name, annotate))
        yield patch
    finally:
        patch.restore()


@contextmanager
def counted(counter: dict, mm):
    """Count operator evaluations only: the untraced runs' one wrapper."""
    patch = Patch()
    try:
        patch.wrap(mm.extragradient.FbsdeOperator, "__call__", _counted(counter, "v_evals"))
        yield patch
    finally:
        patch.restore()


def traced_bindings(mm) -> list[tuple[object, str]]:
    return [(owner, attr) for owner, attr, _, _ in _targets(mm)]


def _pct(values, q):
    if not values:
        return 0.0
    vals = sorted(values)
    pos = (len(vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


_WRITE_SPANS = ("cli.write_csv", "cli.manifest_write")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see bench/README.md)."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.dur for s in named(name))

    solves = named("solver.decoupled_solve")
    backward = named("solver.backward")
    v_calls = named("extragradient.v")
    probes = named("extragradient.probe")
    probe_evals = sum(
        1 for v in v_calls if _has_ancestor(v, "extragradient.probe", by_id)
    )
    loop_self = 0.0
    for run in named("extragradient.run"):
        loop_self += run.dur - sum(
            c.dur for c in kids.get(run.sid, []) if c.name in ("extragradient.step", "extragradient.probe")
        )
    # time to tolerance: from the start of probing to the end of the EG loop,
    # i.e. every probe span outside a run plus every run span
    to_tol = total("extragradient.run") + sum(
        s.dur for s in probes if not _has_ancestor(s, "extragradient.run", by_id)
    )
    checks = named("verification.check")
    n_v = len(v_calls)
    return {
        "grids.sample_noise_s": total("grids.sample_noise"),
        "grids.noise_mb": sum(s.info.get("mb", 0.0) for s in named("grids.sample_noise")),
        "solver.evals": len(solves),
        "solver.eval_s.p50": _pct([s.dur for s in solves], 0.5),
        "solver.eval_s.p90": _pct([s.dur for s in solves], 0.9),
        "solver.forward_s": sum(s.dur for s in solves) - sum(s.dur for s in backward),
        "solver.backward_self_s": sum(own[s.sid] for s in backward),
        "solver.xfit_calls": len(named("solver.regress_conditional")),
        "solver.xfit_s": total("solver.regress_conditional"),
        "solver.theta_s": total("solver.theta_inverse"),
        "solver.state_mb": max((s.info.get("mb", 0.0) for s in solves), default=0.0),
        "ensembles.features_s": total("ensembles.conditional_features"),
        "ensembles.inner_calls": len(named("ensembles.inner_product_T")),
        "ensembles.inner_s": total("ensembles.inner_product_T"),
        "models.drivers_s": total("models.driver"),
        "extragradient.v_evals": n_v,
        "extragradient.probe_evals": probe_evals,
        "extragradient.probe_s": sum(s.dur for s in probes),
        "extragradient.useful_frac": (n_v - probe_evals) / n_v if n_v else 0.0,
        "extragradient.iterations": len(named("extragradient.step")),
        "extragradient.iter_s.p50": _pct([s.dur for s in named("extragradient.step")], 0.5),
        "extragradient.loop_self_s": loop_self,
        "extragradient.time_to_tol_s": to_tol,
        "oracle.riccati_s": total("oracle.riccati"),
        "oracle.induced_control_s": total("oracle.induced_control"),
        "oracle.picard_s": total("oracle.picard"),
        "oracle.picard_sweeps": sum(s.info.get("sweeps", 0) for s in named("oracle.picard")),
        "verification.checks_self_s": sum(own[s.sid] for s in checks),
        "verification.v_evals": sum(
            1 for v in v_calls if _has_ancestor(v, "verification.check", by_id)
        ),
        "cli.write_s": sum(total(name) for name in _WRITE_SPANS),
        "cli.self_s": sum(
            own[s.sid] for s in spans if s.name.startswith("cli.") and s.name not in _WRITE_SPANS
        ),
    }


def _has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    pid = span.parent
    while pid is not None:
        if by_id[pid].name == name:
            return True
        pid = by_id[pid].parent
    return False


def check_self_time_sum(spans: list[Span]) -> float:
    """Largest gap between a root span's duration and the summed self times
    of its subtree, relative to that duration; infinite when a self time is
    negative (a child outlived its parent, so the nesting is broken)."""
    own = self_times(spans)
    if any(v < -1e-9 for v in own.values()):
        return math.inf
    root_of: dict[int, int] = {}
    for s in spans:  # parents are recorded before their children
        root_of[s.sid] = s.sid if s.parent is None else root_of[s.parent]
    sums: dict[int, float] = {}
    for s in spans:
        sums[root_of[s.sid]] = sums.get(root_of[s.sid], 0.0) + own[s.sid]
    worst = 0.0
    for s in spans:
        if s.parent is None and s.dur > 0:
            worst = max(worst, abs(sums[s.sid] - s.dur) / s.dur)
    return worst
