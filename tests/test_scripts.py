"""Smoke tests of the scripts: the two deciders cross-checked on random
power-pole instances and planted solutions, and the case studies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_cross_validation_finds_no_mismatch():
    proc = _run_script("cross_validate_solvers.py", "--trials", "40", "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "mismatches: 0," in proc.stdout
    rechecked = int(proc.stdout.split("absences re-checked with wider bounds: ")[1].split()[0])
    assert rechecked > 0


def test_case_studies_run():
    proc = _run_script("case_studies.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("workload", ["elementary-tower", "cubic-batch", "risch-crossval"])
def test_benchmark_batch_workload_runs(workload):
    """One untimed round of a benchmark workload, run in-process, with every
    output checked by the benchmark's independent checker.  risch-crossval
    checks the univariate parser's values against that checker."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
