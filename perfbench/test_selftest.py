"""Tiny-scale self-test of perfbench.

Checks that every declared workload emits every declared metric with
its unit in both trace modes, and that the command fails without
printing a result when the program is absent.  Run from the repository
root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()
from harness import declared  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in declared()["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    out = run.run_workload(WORKLOADS[workload](tiny=True), seed=3, seconds=0.1,
                           trace=bool(trace))
    result = run.result(out, bool(trace))
    assert result["correct"], out["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = declared()["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in emitted.items()}
    for name, metric in emitted.items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
