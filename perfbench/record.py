#!/usr/bin/env python3
"""Record the per-seed reference values the benchmark checks outputs against.

Usage (from the repository root):

    python3 perfbench/record.py

Runs one full-size pass of every workload for each input seed 0 ..
REFERENCE_SEEDS-1, checks its artifacts, and rewrites references.json with
the headline values (J, mse, PRCC sums, Re, ...). Record them from a commit
whose outputs are trusted; a later change that moves a headline value beyond
the tolerances in workloads.py then fails the benchmark's checks.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def record(workload: str, seed: int) -> dict[str, float]:
    with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as name:
        tmp = Path(name)
        runner = run.Runner(tmp)
        steps = workloads.build(workload, seed, "full", tmp,
                                lambda argv, outdir: runner.cli(argv, outdir).returncode)
        _, problems, headline = run.run_pass(runner, steps, tmp / "pass", None)
    if problems:
        raise SystemExit(f"{workload} seed {seed}: " + "\n".join(problems))
    return headline


def main() -> int:
    seeds: dict[str, dict] = {}
    run.TMP_ROOT.mkdir(exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            table = seeds[workload] = {}
            for seed in range(workloads.REFERENCE_SEEDS):
                table[str(seed)] = record(workload, seed)
                print(f"{workload} seed {seed}: {table[str(seed)]}", file=sys.stderr)
    finally:
        try:
            run.TMP_ROOT.rmdir()
        except OSError:
            pass
    run.REFERENCES.write_text(json.dumps({"seeds": seeds}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
