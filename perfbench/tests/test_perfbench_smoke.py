"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced. It checks that every metric BENCHMARK.json names is reported and
that the output checks pass; it has no timing thresholds."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_and_passes_checks(workload):
    env0, untraced = _run(workload, 0)
    env1, traced = _run(workload, 1)
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # One seed gives byte-identical outputs, traced or not and at any --jobs.
    assert env0["outputs_sha256"] == env1["outputs_sha256"]
    assert env0["seed"] == env1["seed"] == 7


def test_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
