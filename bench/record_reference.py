"""Record the benchmark's reference results for a list of seeds.

    python3 bench/record_reference.py --workload solve_m --seeds 1 2 3

Runs one untraced pass per seed and stores its comparable result in
bench/reference.json, next to the results already there.  The benchmark
compares every later run at a recorded seed against it (bench/README.md), so
record only on a commit whose numbers are the intended baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    mm = run.load_package()
    wl = WORKLOADS[args.workload]
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    table = reference.setdefault(wl.name, {})
    run.OUT_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            outcome = wl.run_pass(mm, seed, Path(tmp), contextlib.nullcontext)
        table[str(seed)] = outcome.result
        print(f"{wl.name} seed {seed}: {outcome.details}", flush=True)
        # rewrite after every seed so an interrupted recording keeps its work
        run.REFERENCE.write_text(dumps(reference))
    return 0


def dumps(reference: dict) -> str:
    """JSON with one line per (workload, seed) result, so a diff shows seeds."""
    blocks = []
    for name, table in sorted(reference.items()):
        rows = [
            f'  "{seed}": {json.dumps(table[seed], sort_keys=True)}'
            for seed in sorted(table, key=int)
        ]
        blocks.append(f' "{name}": {{\n' + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    raise SystemExit(main())
