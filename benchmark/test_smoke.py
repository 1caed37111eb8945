"""Smoke test of the benchmark: every workload runs briefly, traced, and passes its checks.

Run from the repository root with ``python -m pytest benchmark``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("sweep_min", "sweep_max", "round_heavy", "verify")


@pytest.fixture(scope="module")
def smoke_results():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "0"],
        capture_output=True, text=True, timeout=600, cwd=RUN.parent.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return {d["workload"]: d for d in map(json.loads, proc.stdout.strip().splitlines())}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_clean(smoke_results, name):
    res = smoke_results[name]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["trace.cover_frac"] > 0.95


def test_slater_probe_only_on_max_sweeps(smoke_results):
    calls = {n: smoke_results[n]["metrics"]["sdp.slater_calls"]["value"] for n in WORKLOADS}
    assert calls["sweep_min"] == 0 and calls["sweep_max"] > 0


def test_per_layer_names_match_benchmark_json(smoke_results):
    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for res in smoke_results.values():
        assert set(res["metrics"]) == names


def test_missing_sources_exit_nonzero():
    # a directory holding only the benchmark's own files cannot produce a result
    bare = RUN.parent / "out" / f"bare-{os.getpid()}"
    (bare / "benchmark").mkdir(parents=True)
    try:
        for f in RUN.parent.glob("*.py"):
            shutil.copy(f, bare / "benchmark" / f.name)
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", "verify", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
