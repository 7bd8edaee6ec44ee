"""Self-test of the benchmark harness: every workload, at tiny size.

Run from the repository root with ``python3 -m pytest layerbench/tests -q``
(about two minutes: each case launches real ``repro serve`` processes).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, directory: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=directory, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload: str, trace: int) -> None:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    error_line = next(line for line in lines if line.startswith("error_rate"))
    assert float(error_line.split()[1]) == 0.0
    for metric in wanted:  # the human-readable lines name every metric too
        assert any(line.split()[:1] == [metric["name"]] for line in lines)


def test_refuses_without_a_program(tmp_path: Path) -> None:
    (tmp_path / "layerbench").mkdir()
    for path in (ROOT / "layerbench").glob("*.py"):
        (tmp_path / "layerbench" / path.name).write_text(path.read_text())
    done = _run(WORKLOADS[0], 0, tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
