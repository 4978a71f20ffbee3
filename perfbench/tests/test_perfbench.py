"""Tests of the benchmark itself (not part of the repository's tier-1
suite).  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from padicprob import padic  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _one_pass(wl, state):
    run.clear_caches()
    return wl.evaluate(state, wl.run(state), corrupt=False)


def _command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_and_checks_unchanged(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(ROOT, 5, tmp_path)
    plain_bytes, plain_checks = _one_pass(wl, state)
    original_mul = padic.PAdicNumber.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_bytes, traced_checks = _one_pass(wl, state)
    finally:
        tracer.uninstall()
    assert padic.PAdicNumber.__mul__ is original_mul
    assert traced_bytes == plain_bytes
    assert traced_checks == plain_checks
    assert all(plain_checks.values())
    assert sum(calls for calls, _, _ in tracer.spans.values()) > 0


def test_environment_seed_cannot_change_limit_verify(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["limit_mc"]
    state = wl.setup(ROOT, 5, tmp_path)
    monkeypatch.setenv("PADICPROB_SEED", "1")
    first, _ = _one_pass(wl, state)
    monkeypatch.setenv("PADICPROB_SEED", "2")
    second, _ = _one_pass(wl, state)
    assert first == second


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_negative_control_fails_the_run(name):
    proc = _command("--workload", name, "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--negative-control")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_reports_every_benchmark_metric(trace, section):
    proc = _command("--workload", "cp_fidelity", "--seed", "3", "--seconds", "2",
                    "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    meta = next(line for line in proc.stdout.splitlines() if line.startswith("meta "))
    assert json.loads(meta[5:])["seed"] == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command("--workload", "limit_mc", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
