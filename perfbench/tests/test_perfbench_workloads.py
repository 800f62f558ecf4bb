"""Workload inputs, correctness checks and the error rate, at tiny sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
TINY = 0.01


def _documents(workload):
    if hasattr(workload, "document"):
        return workload.document
    workload._new_document()
    return workload.documents


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_generated_inputs(name, tmp_path):
    first = WORKLOADS[name](1, tmp_path / "a")
    again = WORKLOADS[name](1, tmp_path / "b")
    other = WORKLOADS[name](2, tmp_path / "c")
    assert _documents(first) == _documents(again)
    assert _documents(first) != _documents(other)


@pytest.mark.parametrize("name", ["fleet-urban", "serve-mix"])
def test_seed_does_not_change_the_check_outcome(name, tmp_path):
    for seed in (1, 2):
        workload = WORKLOADS[name](seed, tmp_path / str(seed), scale=TINY)
        try:
            workload.setup()
            for index in range(2):
                assert workload.run_pass(index).units > 0
            workload.verify()
        finally:
            workload.close()
        assert workload.attempted > 0
        assert (workload.failed, workload.failures) == (0, [])


def test_tampered_fleet_row_is_a_failed_operation(tmp_path):
    workload = WORKLOADS["fleet-urban"](3, tmp_path, scale=TINY)
    try:
        workload.setup()
        workload.run_pass(0)
        workload.reference_rows[0] = {**workload.reference_rows[0], "harvested_mj": -1.0}
        workload.run_pass(1)
    finally:
        workload.close()
    assert workload.failed == 1
    assert "differ" in workload.failures[0]


def test_injected_failure_raises_the_error_rate(monkeypatch, capsys):
    from repro.errors import EmulationError
    from repro.fleet import FleetRunner

    real_run = FleetRunner.run
    calls = []

    def flaky(self):
        calls.append(1)
        if len(calls) == 2:
            raise EmulationError("injected")
        return real_run(self)

    monkeypatch.setattr(FleetRunner, "run", flaky)
    argv = ["--workload", "fleet-urban", "--seed", "1", "--seconds", "0.1"]
    assert run.main([*argv, "--scale", str(TINY), "--trace", "1"]) == 0
    output = capsys.readouterr().out.strip().splitlines()
    result = json.loads(output[-1])
    vehicles = WORKLOADS["fleet-urban"](1, ROOT, scale=TINY).document["vehicles"]
    assert result["correct"] is False
    assert result["failed"] == vehicles
    assert result["attempted"] >= 4 * vehicles
    error_line = next(line for line in output if line.startswith("error_rate:"))
    assert float(error_line.split()[1]) == pytest.approx(result["failed"] / result["attempted"])
    assert any("injected" in line for line in output)


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-grid", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
