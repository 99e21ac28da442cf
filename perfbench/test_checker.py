"""Tests of the independent output checker.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checker.py

Real program outputs must pass; each corruption named in the README (a
changed solution coefficient, a wrong verdict, a dropped or swapped batch
line) must be rejected.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checker
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ratcert import planar  # noqa: E402
from ratcert.cli import run  # noqa: E402


def _run_json(argv: list[str], path: Path) -> dict:
    code, _ = run(argv + ["--json", str(path)])
    assert code == 0
    return json.loads(path.read_text())


def _bump_first_integer(text: str) -> str:
    return re.sub(r"\d+", lambda m: str(int(m.group()) + 1), text, count=1)


@pytest.fixture(scope="module")
def tower(tmp_path_factory):
    p, q = "x^2 - (-67/53)*y", "y*(x + 1)"
    path = tmp_path_factory.mktemp("tower") / "r.json"
    return p, q, _run_json(["analyze", "--p", p, "--q", q, "--kmax", "5"], path)


@pytest.fixture(scope="module")
def cubic(tmp_path_factory):
    rng = random.Random(3)
    lines = [
        workloads._cubic_line(rng, boundary, at_infinity, planar)
        for boundary, at_infinity in ((True, False), (False, False), (False, True), (True, True))
    ]
    base = tmp_path_factory.mktemp("cubic")
    (base / "in.jsonl").write_text("".join(json.dumps(l["task"]) + "\n" for l in lines))
    code, _ = run(["batch", "--input", str(base / "in.jsonl"), "--output", str(base / "out.jsonl")])
    assert code == 0
    return lines, (base / "out.jsonl").read_text()


def test_tower_output_passes(tower):
    p, q, report = tower
    assert checker.check_tower(report, p, q, 5) == []


def test_changed_solution_coefficient_rejected(tower):
    p, q, report = tower
    bad = json.loads(json.dumps(report))
    sol = bad["orders"][1]["outcome"]["solution"]
    bad["orders"][1]["outcome"]["solution"] = _bump_first_integer(sol)
    assert any("does not satisfy" in m for m in checker.check_tower(bad, p, q, 5))


def test_changed_beta_rejected(tower):
    p, q, report = tower
    bad = json.loads(json.dumps(report))
    bad["orders"][2]["beta"] = _bump_first_integer(bad["orders"][2]["beta"])
    assert any("beta differs" in m for m in checker.check_tower(bad, p, q, 5))


def test_cubic_batch_passes(cubic):
    lines, text = cubic
    assert checker.check_batch(lines, text) == []


def test_wrong_verdict_rejected(cubic):
    lines, text = cubic
    out = [json.loads(t) for t in text.splitlines()]
    out[1]["verdict"] = {"status": "Inconclusive", "reason": "AllOrdersElementary", "k_max": 2}
    bad = "".join(json.dumps(o) + "\n" for o in out)
    assert any("verdict" in m for m in checker.check_batch(lines, bad))


def test_dropped_batch_line_rejected(cubic):
    lines, text = cubic
    kept = text.splitlines()
    bad = "\n".join(kept[:1] + kept[2:]) + "\n"
    assert checker.check_batch(lines, bad) != []


def test_swapped_batch_lines_rejected(cubic):
    lines, text = cubic
    kept = text.splitlines()
    kept[0], kept[1] = kept[1], kept[0]
    assert any("not the input line's field" in m for m in checker.check_batch(lines, "\n".join(kept)))


def test_crossval_outputs_pass_and_flipped_verdict_rejected(tmp_path):
    rng = random.Random(5)
    for i in range(12):
        eq = (workloads._power_pole if i % 2 == 0 else workloads._planted)(rng, 7 * i)
        argv = ["risch", "--alpha", eq["alpha"], "--beta", eq["beta"], "--order", "2"]
        report = _run_json(argv, tmp_path / f"{i}.json")
        assert checker.check_risch(eq, report) == [], eq
        flipped = json.loads(json.dumps(report))
        if flipped["outcome"]["status"] == "RationalSolution":
            flipped["outcome"] = {"status": "NoRationalSolution", "solver": "general"}
        else:
            flipped["outcome"] = {"status": "RationalSolution", "solver": "general", "solution": "1"}
        assert checker.check_risch(eq, flipped) != [], eq


def test_decider_on_known_power_pole_threshold():
    # A = 1, B = 1: pole exponent 2 is solvable, exponents 3..6 are not
    for k in range(2, 7):
        w = [Fraction(2)] + [Fraction(0)] * (k - 1) + [Fraction(2)]
        assert checker.has_rational_solution([1], k, w, 2 * k) == (k == 2)


def test_cubic_boundary_decided_independently():
    a, b = Fraction(3), Fraction(1)
    assert checker.has_rational_solution(*checker.cubic_equation(a, b, -a * b / 3))
    assert not checker.has_rational_solution(*checker.cubic_equation(a, b, Fraction(1)))


def test_evaluator_reads_program_strings():
    value = checker.evaluate("(-2*x^3 + 2*x^2 - 2*x - 2)/(x^6)", {"x": Fraction(1, 2)})
    assert value == (-Fraction(1, 4) + Fraction(1, 2) - 1 - 2) * 64
    y = checker.evaluate("(4*x + 2)/(x^2)", {"x": checker.Dual(Fraction(1), 1)})
    assert (y.v, y.d) == (6, -8)
