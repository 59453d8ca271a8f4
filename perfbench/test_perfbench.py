"""Self-tests of the benchmark, at the tiny problem size.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REPEATED_COUNTS = ("model.rhs.calls", "optctl.sweep.iterations",
                   "calibrate.nelder_mead.evals", "sensitivity.rows.kept")


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3", "--seconds", "1",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per_workload(result: dict) -> dict[str, dict]:
    """Split the combined ``--workload all`` metrics back into workloads."""
    out: dict[str, dict] = {w: {} for w in workloads.WORKLOADS}
    for key, metric in result["metrics"].items():
        workload, name = key.split(".", 1)
        out[workload][name] = metric
    return out


def test_end_to_end_metrics_named_with_units():
    result = _last_json(_bench("--workload", "all", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for workload, metrics in _per_workload(result).items():
        assert {k: m["unit"] for k, m in metrics.items()} == expected, workload
        assert all(m["value"] > 0 for m in metrics.values()), workload


def test_traced_metrics_named_and_counts_repeat():
    first = _last_json(_bench("--workload", "all", "--trace", "1"))
    second = _last_json(_bench("--workload", "all", "--trace", "1"))
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    a, b = _per_workload(first), _per_workload(second)
    for workload in workloads.WORKLOADS:
        assert {k: m["unit"] for k, m in a[workload].items()} == expected, workload
        for name, metric in a[workload].items():
            if metric["unit"] in run.EXACT_UNITS:
                assert metric["value"] == b[workload][name]["value"], (workload, name)
    assert a["sweep"]["optctl.sweep.iterations"]["value"] > 0
    assert a["fit"]["calibrate.nelder_mead.evals"]["value"] > 0
    assert a["ensemble"]["sensitivity.rows.kept"]["value"] > 0
    assert all(a[w]["model.rhs.calls"]["value"] > 0 for w in workloads.WORKLOADS)


def _run_steps(workload: str, tmp_path: Path) -> tuple[list, Path]:
    runner = run.Runner(tmp_path)
    steps = workloads.build(workload, 3, "tiny", tmp_path,
                            lambda argv, outdir: runner.cli(argv, outdir).returncode)
    outroot = tmp_path / "pass"
    _, problems, headline = run.run_pass(runner, steps, outroot, None)
    assert problems == [] and headline
    return steps, outroot


def _inject_nan_csv(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[-1] = "nan"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _inject_nan_json(path: Path, key: str) -> None:
    payload = json.loads(path.read_text())
    payload[key] = math.nan
    path.write_text(json.dumps(payload))


def test_checker_rejects_injected_nan(tmp_path):
    steps, outroot = _run_steps("quick", tmp_path)
    assert run.check_artifacts(steps, outroot, None)[0] == []
    for step, target in ((steps[0], "trajectory.csv"), (steps[1], "reff.json"),
                         (steps[2], "reff_grid.csv")):
        broken = tmp_path / f"broken-{step.name}"
        shutil.copytree(outroot, broken)
        artifact = next((broken / step.name).glob(f"*/{target}"))
        if target.endswith(".csv"):
            _inject_nan_csv(artifact)
        else:
            _inject_nan_json(artifact, "Re")
        with pytest.raises(CheckError, match="non-finite"):
            workloads.check_step(step, broken / step.name)
        assert run.check_artifacts(steps, broken, None)[0] != []


def test_reference_rejects_risen_objective():
    ref = {"optimize.J": -1000.0, "prcc.I_H@2.sum": 0.5, "reff.Re": 2.0}
    assert workloads.compare_reference(dict(ref), ref) == []
    assert workloads.compare_reference({**ref, "optimize.J": -1000.0 + 1e-7}, ref) == []
    assert workloads.compare_reference({**ref, "optimize.J": -999.9}, ref) != []
    assert workloads.compare_reference({**ref, "prcc.I_H@2.sum": 0.5 + 1e-5}, ref) != []
    assert workloads.compare_reference({**ref, "reff.Re": 2.0 * (1 + 1e-5)}, ref) != []


def test_every_input_seed_has_a_reference():
    refs = json.loads(run.REFERENCES.read_text())["seeds"]
    assert sorted(refs) == sorted(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        assert sorted(map(int, refs[workload])) == list(range(workloads.REFERENCE_SEEDS))


def test_missing_reference_is_a_failed_check(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(HERE.parent / "src")
    refs_path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text())
    del refs["seeds"]["quick"]["5"]
    refs_path.write_text(json.dumps(refs))
    seed = 5 + workloads.REFERENCE_SEEDS
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quick", "--seed", str(seed),
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    result = _last_json(proc)
    assert not result["correct"]
    assert "references.json has no quick seed 5" in proc.stderr


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "quick", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
