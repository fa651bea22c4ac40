"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload on tiny inputs in both modes and checks the contract of
the last output line; then checks that a directory holding only the
benchmark fails cleanly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_meets_the_output_contract(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stdout
    assert line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_bare_benchmark_directory_fails_without_a_result():
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "cover", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
