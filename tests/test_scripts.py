"""Smoke tests of the scripts: the two deciders cross-checked on random
power-pole instances and planted solutions, and the case studies."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_case_studies_run():
    proc = _run_script("case_studies.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
