"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_workloads_match_declaration():
    from workloads import WORKLOADS

    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_declaration(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_truncated_curated_set_counts_as_failed():
    run = bench.Run(ROOT, "fine-tree", 3, tiny=True)
    try:
        for sub in ("logs", "tmp"):
            (run.work / sub).mkdir(parents=True)
        run.setup(1)
        done = bench.cli_pass(run)
        exits = {label: doc["exit"] for label, doc in done["commands"].items()}
        clean, _ = bench.check_outputs(run.work, run.expected, exits, "")
        assert clean == {}

        curated = run.work / "out" / "curated.jsonl"
        lines = curated.read_text("utf-8").splitlines(keepends=True)
        curated.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
        failures, _ = bench.check_outputs(run.work, run.expected, exits, "")
        assert "curate" in failures
        assert len(failures) / len(exits) > 0
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def test_refuses_a_directory_without_the_program():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fine-tree", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""
