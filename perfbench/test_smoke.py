"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every workload prints exactly the metrics ``BENCHMARK.json``
declares, with their units, that every check passes, that two runs of the
same seed report identical quality and per-layer counts, and that the
benchmark refuses to run without the program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    runs = {trace: [result(workload, trace) for _ in range(2)] for trace in (0, 1)}
    for trace, pair in runs.items():
        for out in pair:
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
            units = {name: m["unit"] for name, m in out["metrics"].items()}
            assert units == declared[trace]
    for name in ("precision", "recall"):
        first, second = (out["metrics"][name]["value"] for out in runs[0])
        assert first == second > 0
    counts = [
        {n: m["value"] for n, m in out["metrics"].items() if m["unit"] in ("count", "bytes")}
        for out in runs[1]
    ]
    assert counts[0] == counts[1]


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("block_scale", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
