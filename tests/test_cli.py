"""Command-line interface: subcommands, exit codes, canonical JSON, batch mode."""

import functools
import json
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ratcert import analyzer, cli
from ratcert.algebra import Poly, RatFunc
from ratcert.analyzer import MAX_KMAX, SolverDisagreementError
from ratcert.cli import run
from ratcert.parsing import MAX_COEFF_BITS, MAX_DEGREE


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestAnalyzeCommand:
    def test_cubic_example(self, capsys):
        code, report = run(
            ["analyze", "--p", "x^3-y", "--q", "y*(x^2-x-1-y)", "--phi", "0", "--kmax", "2"]
        )
        assert code == 0
        assert report["verdict"] == {"status": "NotRationallyIntegrable", "k": 2}
        assert report["orders"][0]["outcome"]["case"] == "2d"
        out = capsys.readouterr().out
        assert "NotRationallyIntegrable" in out

    def test_lets_substitution(self):
        code, report = run(
            [
                "analyze",
                "--p", "x^3-y",
                "--q", "y*(x^2-c*x-b-a*y)",
                "--let", "a=3", "--let", "b=1", "--let", "c=-1",
                "--kmax", "2",
            ]
        )
        assert code == 0
        assert report["verdict"]["status"] == "Inconclusive"

    def test_json_report_is_byte_identical(self, tmp_path):
        args = [
            "analyze",
            "--p", "x^3-y",
            "--q", "y*(x^2-x-1-y)",
            "--kmax", "2",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run(args + ["--json", str(first)])[0] == 0
        assert run(args + ["--json", str(second)])[0] == 0
        assert first.read_bytes() == second.read_bytes()
        payload = read_json(first)
        assert payload["field"] == {"p": "x^3 - y", "q": "x^2*y - x*y - y^2 - y"}
        assert payload["meta"]["tool"] == "ratcert"

    def test_at_infinity_flag(self):
        code, report = run(
            ["analyze", "--p", "z2", "--q", "z1", "--vars", "z1,z2", "--at-infinity", "--kmax", "2"]
        )
        assert code == 0
        assert report["chart"] == "infinity"
        assert report["transformed"] == {"p": "x^2 - 1", "q": "x*y"}

    def test_degree_clause_interpretation_flag(self):
        code, report = run(
            ["analyze", "--p", "x^3-y", "--q", "y*(x^2-x-1-y)", "--kmax", "2", "--h1", "corrected"]
        )
        assert code == 0
        assert report["h1"]["interpretation"] == "corrected"

    def test_report_round_trips_through_canonical_form(self, tmp_path):
        path = tmp_path / "r.json"
        code, _ = run(
            ["analyze", "--p", "x^3-y", "--q", "y*(x^2-x-1-y)", "--kmax", "2", "--json", str(path)]
        )
        assert code == 0
        raw = path.read_text(encoding="utf-8")
        parsed = json.loads(raw)
        re_emitted = json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
        assert re_emitted == raw

    def test_input_error_exit_code(self, capsys):
        code, report = run(["analyze", "--p", "x^3-", "--q", "y", "--kmax", "2"])
        assert code == 2 and report is None
        assert "error" in capsys.readouterr().err

    def test_non_invariant_curve_is_input_error(self):
        code, _ = run(["analyze", "--p", "1", "--q", "1", "--kmax", "2"])
        assert code == 2

    def test_deep_nesting_is_input_error(self):
        deep = "(" * 2000 + "x" + ")" * 2000
        proc = subprocess.run(
            [sys.executable, "-m", "ratcert.cli", "analyze", "--p", deep, "--q", "y"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "nested deeper" in proc.stderr

    def test_duplicate_variable_names_rejected(self):
        code, _ = run(["analyze", "--p", "x", "--q", "x", "--vars", "x,x", "--kmax", "2"])
        assert code == 2

    def test_oversized_kmax_is_input_error(self):
        # rejected before any work: without the bound this does not finish
        proc = subprocess.run(
            [sys.executable, "-m", "ratcert.cli", "analyze", "--p", "x^3-y", "--q", "y",
             "--kmax", "100000000000"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"k_max must be <= {MAX_KMAX}" in proc.stderr


class TestRischCommand:
    def test_linear_profile_solution(self, capsys):
        code, report = run(
            ["risch", "--alpha", "(x+1)/x^2", "--beta", "(2*x+2)/x^4", "--order", "2"]
        )
        assert code == 0
        assert report["outcome"]["status"] == "RationalSolution"
        assert report["outcome"]["solution"] == "(4*x + 2)/(x^2)"
        assert "(4*x + 2)/(x^2)" in capsys.readouterr().out

    def test_no_solution_case_tag(self):
        code, report = run(
            ["risch", "--alpha", "(x^2-x-1)/x^3", "--beta", "(-2*x^3+2*x^2-2*x-2)/x^6", "--order", "2"]
        )
        assert code == 0
        assert report["outcome"]["status"] == "NoRationalSolution"
        assert report["outcome"]["case"] == "2d"

    def test_bad_order_rejected(self):
        code, _ = run(["risch", "--alpha", "1/x", "--beta", "1", "--order", "1"])
        assert code == 2


class TestTransformCommand:
    def test_rotation_like_field(self, capsys):
        code, report = run(["transform", "--p", "z2", "--q", "z1"])
        assert code == 0
        assert report["field"] == {"p": "x^2 - 1", "q": "x*y"}
        out = capsys.readouterr().out
        assert "p = x^2 - 1" in out and "q = x*y" in out

    def test_duplicate_variable_names_rejected(self, capsys):
        code, report = run(["transform", "--p", "z1", "--q", "z1", "--vars", "z1,z1"])
        assert code == 2 and report is None
        assert "--vars must name two distinct variables" in capsys.readouterr().err


# distinct valid cubic lines, and one line of each poisoned kind
_CUBIC_LETS = {
    "cubic-0": {"a": "1", "b": "1", "c": "1"},
    "cubic-1": {"a": "-2", "b": "1/3", "c": "5/2"},
    "cubic-2": {"a": "3/2", "b": "-1", "c": "0"},
}
_CUBIC = {"p": "x^3-y", "q": "y*(x^2-c*x-b-a*y)", "kmax": 2}
_BATCH_LINES = {
    **{name: json.dumps({**_CUBIC, "lets": lets}) for name, lets in _CUBIC_LETS.items()},
    "poison-not-object": "[1]",
    "poison-bad-json": '{"p": "x^3-y", "q": ',
    "poison-huge-kmax": '{"p": "x^3-y", "q": "y", "kmax": 1e400}',
    "poison-deep": json.dumps({"p": "(" * 2000 + "x" + ")" * 2000, "q": "y"}),
}


@functools.cache
def _analyze_report(name: str) -> dict:
    """The report of ``analyze`` on a valid line's field, without its meta
    block: what the batch line must hold."""
    argv = ["analyze", "--p", _CUBIC["p"], "--q", _CUBIC["q"], "--kmax", "2"]
    for let, value in _CUBIC_LETS[name].items():
        argv += ["--let", f"{let}={value}"]
    code, report = run(argv)
    assert code == 0
    report.pop("meta")
    return report


class TestBatchCommand:
    def test_line_counts_and_errors(self, tmp_path):
        tasks = [
            {"p": "x^3-y", "q": "y*(x^2-x-1-y)", "phi": "0", "kmax": 2},
            {"p": "x^2-y", "q": "y*(x+1)", "kmax": 3},
            {"p": "x^3-", "q": "y"},
        ]
        infile = tmp_path / "tasks.jsonl"
        infile.write_text("\n".join(json.dumps(t) for t in tasks) + "\n", encoding="utf-8")
        outfile = tmp_path / "out.jsonl"
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile)])
        assert code == 2  # one line failed, on its input
        assert report["failed"] == 1 and report["internal"] == 0
        lines = outfile.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(tasks)
        assert lines[2] == '{"error":"unexpected end of input (at position 4)"}'
        first = json.loads(lines[0])
        assert first["verdict"] == {"status": "NotRationallyIntegrable", "k": 2}
        second = json.loads(lines[1])
        assert second["verdict"]["status"] == "Inconclusive"
        assert "error" in json.loads(lines[2])

    def test_all_good_exit_zero(self, tmp_path):
        tasks = [
            {"p": "x^3-y", "q": "y*(x^2-c*x-b-a*y)", "lets": {"a": "1", "b": "1", "c": "1"}},
            {"p": "x^2-y", "q": "y*(x+1)", "kmax": 2, "h1": "corrected"},
        ]
        infile = tmp_path / "tasks.jsonl"
        infile.write_text("\n".join(json.dumps(t) for t in tasks) + "\n", encoding="utf-8")
        outfile = tmp_path / "out.jsonl"
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile), "--jobs", "2"])
        assert code == 0
        assert report["lines"] == 2 and report["failed"] == 0
        lines = outfile.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2

    def test_deeply_nested_lines_keep_their_neighbours(self, tmp_path):
        deep = "(" * 2000 + "x" + ")" * 2000
        tasks = [
            json.dumps({"p": "x^3-y", "q": "y*(x^2-x-1-y)", "kmax": 2}),
            json.dumps({"p": deep, "q": "y"}),
            "[" * 100000 + "]" * 100000,
            json.dumps({"p": "x^2-y", "q": "y*(x+1)", "kmax": 2}),
        ]
        infile = tmp_path / "tasks.jsonl"
        infile.write_text("\n".join(tasks) + "\n", encoding="utf-8")
        outfile = tmp_path / "out.jsonl"
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile)])
        assert code == 2
        assert report["lines"] == 4 and report["failed"] == 2
        lines = [json.loads(line) for line in outfile.read_text(encoding="utf-8").splitlines()]
        assert lines[0]["verdict"] == {"status": "NotRationallyIntegrable", "k": 2}
        assert list(lines[1]) == ["error"] and "nested deeper" in lines[1]["error"]
        assert list(lines[2]) == ["error"] and "recursion" in lines[2]["error"]
        assert lines[3]["field"] == {"p": "x^2 - y", "q": "x*y + y"}

    def test_lines_that_are_not_objects_become_error_lines(self, tmp_path):
        good = {"p": "x^3-y", "q": "y*(x^2-x-1-y)", "kmax": 2}
        tasks = [json.dumps(good), "[1]", '"s"', "null", "3", json.dumps(good), '{"p": "x", "q": "y", "lets": [1]}']
        infile = tmp_path / "tasks.jsonl"
        infile.write_text("\n".join(tasks) + "\n", encoding="utf-8")
        outfile = tmp_path / "out.jsonl"
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile)])
        assert code == 2
        assert report["lines"] == 7 and report["failed"] == 5
        lines = [json.loads(line) for line in outfile.read_text(encoding="utf-8").splitlines()]
        assert lines[0] == lines[5]
        assert lines[0]["verdict"] == {"status": "NotRationallyIntegrable", "k": 2}
        for line, kind in zip(lines[1:5], ("list", "str", "NoneType", "int")):
            assert line == {"error": f"a batch line must be a JSON object, got {kind}"}
        assert lines[6] == {"error": '"lets" must be a JSON object, got list'}

    def test_poisoned_kmax_lines_keep_their_neighbours(self, tmp_path):
        good = {"p": "x^3-y", "q": "y*(x^2-x-1-y)", "kmax": 2}
        other = {"p": "x^2-y", "q": "y*(x+1)", "kmax": 2}
        tasks = [
            json.dumps(good),
            '{"p": "x^3-y", "q": "y", "kmax": 1e400}',
            json.dumps(other),
            '{"p": "x^3-y", "q": "y", "kmax": 100000000000}',
            json.dumps(good),
        ]
        infile = tmp_path / "tasks.jsonl"
        infile.write_text("\n".join(tasks) + "\n", encoding="utf-8")
        outfile = tmp_path / "out.jsonl"
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile)])
        assert code == 2
        assert report["lines"] == 5 and report["failed"] == 2
        lines = [json.loads(line) for line in outfile.read_text(encoding="utf-8").splitlines()]
        assert lines[0] == lines[4]
        assert lines[0]["verdict"] == {"status": "NotRationallyIntegrable", "k": 2}
        assert lines[1] == {"error": '"kmax" must be a finite number, got inf'}
        assert lines[2]["field"] == {"p": "x^2 - y", "q": "x*y + y"}
        assert lines[3] == {"error": f"k_max must be <= {MAX_KMAX}, got 100000000000"}

    def test_internal_error_keeps_its_neighbours(self, tmp_path, monkeypatch):
        good = {"p": "x^3-y", "q": "y*(x^2-x-1-y)", "kmax": 2}
        other = {"p": "x^2-y", "q": "y*(x+1)", "kmax": 2}
        # alpha of the middle line's field along y = 0
        poisoned = RatFunc(Poly([1, 1]), Poly([0, 0, 1]))
        real = analyzer.solve_general

        def decider(eq, **kwargs):
            if eq.a == poisoned:
                raise SolverDisagreementError("existence disagreement at order 2")
            return real(eq, **kwargs)

        monkeypatch.setattr(analyzer, "solve_general", decider)
        infile = tmp_path / "tasks.jsonl"
        infile.write_text("\n".join(json.dumps(t) for t in (good, other, good)) + "\n", encoding="utf-8")
        outfile = tmp_path / "out.jsonl"
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile), "--jobs", "2"])
        assert code == 3
        assert report["lines"] == 3 and report["failed"] == 1 and report["internal"] == 1
        lines = [json.loads(line) for line in outfile.read_text(encoding="utf-8").splitlines()]
        assert lines[0] == lines[2]
        assert lines[0]["verdict"] == {"status": "NotRationallyIntegrable", "k": 2}
        assert lines[1] == {
            "error": "SolverDisagreementError: existence disagreement at order 2",
            "kind": "internal",
        }

    def test_missing_input_file(self):
        code, _ = run(["batch", "--input", "/nonexistent/tasks.jsonl"])
        assert code == 2

    @given(
        kinds=st.lists(st.sampled_from(sorted(_BATCH_LINES)), min_size=1, max_size=7),
        jobs=st.integers(1, 3),
    )
    @settings(deadline=None, max_examples=25)
    def test_one_output_line_per_input_line_in_order(self, kinds, jobs):
        with tempfile.TemporaryDirectory() as tmp:
            infile = Path(tmp) / "tasks.jsonl"
            infile.write_text("\n".join(_BATCH_LINES[k] for k in kinds) + "\n", encoding="utf-8")
            outfile = Path(tmp) / "out.jsonl"
            code, report = run(
                ["batch", "--input", str(infile), "--output", str(outfile), "--jobs", str(jobs)]
            )
            lines = [json.loads(line) for line in outfile.read_text(encoding="utf-8").splitlines()]
        poisoned = [k for k in kinds if k.startswith("poison")]
        assert code == (2 if poisoned else 0)
        assert report["lines"] == len(kinds) and report["failed"] == len(poisoned)
        assert len(lines) == len(kinds)
        for kind, line in zip(kinds, lines):
            if kind.startswith("poison"):
                assert list(line) == ["error"]
            else:
                assert line == _analyze_report(kind)


def _poisoned_decider(eq, **kwargs):
    raise SolverDisagreementError("existence disagreement at order 2")


class TestInternalErrors:
    """A fault of the program ends a single-line command in one stderr line
    and exit code 3, never in a traceback."""

    def _assert_one_line(self, capsys, message):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: internal: {message}\n"

    def test_analyze(self, capsys, monkeypatch):
        monkeypatch.setattr(analyzer, "solve_general", _poisoned_decider)
        assert run(["analyze", "--p", "x^3-y", "--q", "y*(x^2-x-1-y)"]) == (3, None)
        self._assert_one_line(capsys, "SolverDisagreementError: existence disagreement at order 2")

    def test_risch(self, capsys, monkeypatch):
        monkeypatch.setattr(analyzer, "solve_general", _poisoned_decider)
        argv = ["risch", "--alpha", "(x+1)/x^2", "--beta", "(2*x+2)/x^4", "--order", "2"]
        assert run(argv) == (3, None)
        self._assert_one_line(capsys, "SolverDisagreementError: existence disagreement at order 2")

    def test_transform(self, capsys, monkeypatch):
        def failed_check(field):
            raise RuntimeError("internal error: candidate solution failed substitution check")

        monkeypatch.setattr(cli, "infinity_transform", failed_check)
        assert run(["transform", "--p", "z2", "--q", "z1"]) == (3, None)
        self._assert_one_line(
            capsys, "RuntimeError: internal error: candidate solution failed substitution check"
        )

    @pytest.mark.parametrize("command", ["analyze", "risch", "transform"])
    def test_input_errors_keep_exit_code_two(self, capsys, command):
        argv = {
            "analyze": ["analyze", "--p", "x^3-", "--q", "y"],
            "risch": ["risch", "--alpha", "1/", "--beta", "1", "--order", "2"],
            "transform": ["transform", "--p", "z1^", "--q", "z2"],
        }[command]
        assert run(argv) == (2, None)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal" not in err


class TestUsage:
    def test_unknown_subcommand(self):
        code, report = run(["frobnicate"])
        assert code == 2 and report is None

    def test_missing_required_flag(self):
        code, _ = run(["analyze", "--p", "x"])
        assert code == 2

    def test_bad_arguments_leave_the_shared_parser_usable(self, capsys):
        assert run(["analyze", "--kmax", "two", "--p", "x", "--q", "y"]) == (2, None)
        code, report = run(["transform", "--p", "z2", "--q", "z1"])
        assert code == 0 and report["field"] == {"p": "x^2 - 1", "q": "x*y"}
        assert run(["risch", "--alpha", "1/x"]) == (2, None)

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ratcert.cli", "transform", "--p", "z2", "--q", "z1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "x^2 - 1" in proc.stdout


class TestInputSizeBound:
    def test_high_degree_is_input_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ratcert.cli", "transform",
             "--p", "(z1^2 + z2 + 1)^101", "--q", "z1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"total degree 202 exceeds the limit {MAX_DEGREE} (at position 15)" in proc.stderr

    def test_huge_constant_is_input_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ratcert.cli", "analyze",
             "--p", "x^3 - (9^200)^200*y", "--q", "y"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert (
            f"constant of up to 126800 bits exceeds the limit of {MAX_COEFF_BITS} bits"
            " (at position 13)" in proc.stderr
        )

    @pytest.mark.parametrize("power, bits", [(30, 19020), (20, 12680)])
    def test_huge_power_of_a_nonconstant_is_input_error(self, power, bits):
        proc = subprocess.run(
            [sys.executable, "-m", "ratcert.cli", "analyze",
             "--p", f"x^3 - (9^200*x)^{power}*y", "--q", "y"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            f"error: coefficient of up to {bits} bits exceeds the limit of {MAX_COEFF_BITS} bits"
            " (at position 15)\n"
        )

    def test_power_sixty_transforms(self, capsys):
        code, report = run(["transform", "--p", "(z1+z2+1)^60", "--q", "z1"])
        assert code == 0
        assert report["input"]["p"].startswith("z1^60 + 60*z1^59*z2")
        assert report["field"]["p"].startswith("x^61 + 60*x^60*y + 1770*x^59*y^2")
        assert report["field"]["q"].startswith("x^60*y + 60*x^59*y^2")

    def test_batch_line_over_the_bound_keeps_its_neighbours(self, tmp_path):
        good = {"p": "x^3-y", "q": "y*(x^2-x-1-y)", "kmax": 2}
        other = {"p": "x^2 - y", "q": "y*(x + 1)", "kmax": 2}
        tasks = [
            json.dumps(good),
            json.dumps({"p": "x^3 - y", "q": "y*x^150*x^60", "kmax": 2}),
            json.dumps(other),
        ]
        infile = tmp_path / "tasks.jsonl"
        infile.write_text("\n".join(tasks) + "\n", encoding="utf-8")
        outfile = tmp_path / "out.jsonl"
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile)])
        assert code == 2
        assert report["lines"] == 3 and report["failed"] == 1
        lines = [json.loads(line) for line in outfile.read_text(encoding="utf-8").splitlines()]
        assert lines[0]["verdict"] == {"status": "NotRationallyIntegrable", "k": 2}
        assert lines[1] == {
            "error": f"total degree 211 exceeds the limit {MAX_DEGREE} (at position 7)"
        }
        assert lines[2]["field"] == {"p": "x^2 - y", "q": "x*y + y"}

    def test_batch_line_with_a_huge_coefficient_keeps_its_neighbours(self, tmp_path):
        good = {"p": "x^3-y", "q": "y*(x^2-x-1-y)", "kmax": 2}
        other = {"p": "x^2 - y", "q": "y*(x + 1)", "kmax": 2}
        tasks = [good, {"p": "x^3 - (9^200*x)^30*y", "q": "y", "kmax": 2}, other]
        infile = tmp_path / "tasks.jsonl"
        infile.write_text("\n".join(json.dumps(t) for t in tasks) + "\n", encoding="utf-8")
        outfile = tmp_path / "out.jsonl"
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile)])
        assert code == 2
        assert report["lines"] == 3 and report["failed"] == 1 and report["internal"] == 0
        lines = [json.loads(line) for line in outfile.read_text(encoding="utf-8").splitlines()]
        assert lines[0]["verdict"] == {"status": "NotRationallyIntegrable", "k": 2}
        assert lines[1] == {
            "error": f"coefficient of up to 19020 bits exceeds the limit of {MAX_COEFF_BITS} bits"
            " (at position 15)"
        }
        assert lines[2]["field"] == {"p": "x^2 - y", "q": "x*y + y"}


def _write_batch(path: Path, kinds) -> None:
    path.write_text("".join(_BATCH_LINES[k] + "\n" for k in kinds), encoding="utf-8")


_STREAM_KINDS = ("cubic-0", "poison-bad-json", "cubic-1", "poison-not-object", "cubic-2", "cubic-0")


class TestSerialBatch:
    def test_each_result_is_written_before_the_next_line_runs(self, tmp_path, monkeypatch):
        infile, outfile = tmp_path / "tasks.jsonl", tmp_path / "out.jsonl"
        _write_batch(infile, _STREAM_KINDS)
        real = cli._batch_line
        written = []

        def spy(line):
            text = outfile.read_text(encoding="utf-8") if outfile.exists() else ""
            written.append(text.splitlines())
            return real(line)

        monkeypatch.setattr(cli, "_batch_line", spy)
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile), "--jobs", "2"])
        assert code == 2 and report["lines"] == len(_STREAM_KINDS) and report["failed"] == 2
        final = outfile.read_text(encoding="utf-8").splitlines()
        assert len(written) == len(final) == len(_STREAM_KINDS)
        for k, before in enumerate(written):
            assert before == final[:k]

    def test_lines_run_in_the_calling_thread(self, tmp_path, monkeypatch):
        infile, outfile = tmp_path / "tasks.jsonl", tmp_path / "out.jsonl"
        _write_batch(infile, _STREAM_KINDS)
        real = cli._batch_line
        seen = []

        def spy(line):
            seen.append((threading.active_count(), threading.get_ident()))
            return real(line)

        monkeypatch.setattr(cli, "_batch_line", spy)
        before = (threading.active_count(), threading.get_ident())
        code, _ = run(["batch", "--input", str(infile), "--output", str(outfile), "--jobs", "4"])
        assert code == 2
        assert seen == [before] * len(_STREAM_KINDS)

    def test_jobs_does_not_change_the_output(self, tmp_path):
        infile = tmp_path / "tasks.jsonl"
        _write_batch(infile, _STREAM_KINDS + ("poison-huge-kmax", "poison-deep", "cubic-1"))
        outputs = []
        for jobs in ("0", "1", "2", "4"):
            outfile = tmp_path / f"out-{jobs}.jsonl"
            code, _ = run(["batch", "--input", str(infile), "--output", str(outfile), "--jobs", jobs])
            assert code == 2
            outputs.append(outfile.read_bytes())
        assert outputs[0].count(b"\n") == len(_STREAM_KINDS) + 3
        assert outputs[1:] == outputs[:1] * 3

    def test_output_may_be_the_input_file(self, tmp_path):
        infile, separate = tmp_path / "tasks.jsonl", tmp_path / "out.jsonl"
        _write_batch(infile, _STREAM_KINDS)
        code, _ = run(["batch", "--input", str(infile), "--output", str(separate)])
        assert code == 2
        code, report = run(["batch", "--input", str(infile), "--output", str(infile)])
        assert code == 2 and report["lines"] == len(_STREAM_KINDS)
        assert infile.read_text(encoding="utf-8") == separate.read_text(encoding="utf-8")


class TestBatchLineSchema:
    def test_mistyped_and_unknown_keys_keep_their_neighbours(self, tmp_path):
        good = {**_CUBIC, "lets": _CUBIC_LETS["cubic-0"]}
        other = {**_CUBIC, "lets": _CUBIC_LETS["cubic-1"]}
        poisoned = [
            ({**good, "at_infinity": "false"}, '"at_infinity" must be a JSON boolean, got str'),
            ({**good, "at_infinity": 0}, '"at_infinity" must be a JSON boolean, got int'),
            ({**good, "kmax": 2.7}, '"kmax" must be a JSON integer, got float'),
            ({**good, "kmax": 2.0}, '"kmax" must be a JSON integer, got float'),
            ({**good, "kmax": True}, '"kmax" must be a JSON integer, got bool'),
            ({**good, "kmax": "2"}, '"kmax" must be a JSON integer, got str'),
            ({**good, "p": 5}, '"p" must be a JSON string, got int'),
            ({**good, "q": ["y"]}, '"q" must be a JSON string, got list'),
            (
                {**good, "vars": "x,y"},
                'unknown key "vars" in a batch line; its keys are p, q, phi, kmax, at_infinity, h1, lets',
            ),
            (
                {"kmx": 3, **good, "Q": "y"},
                'unknown key "kmx", "Q" in a batch line; its keys are p, q, phi, kmax, at_infinity, h1, lets',
            ),
        ]
        tasks = [good]
        for task, _ in poisoned:
            tasks += [task, other]
        tasks.append({**good, "at_infinity": False})
        tasks.append('{"p": "x^3-y", "q": "y", "kmax": 1e400}')
        infile = tmp_path / "tasks.jsonl"
        infile.write_text(
            "".join((t if isinstance(t, str) else json.dumps(t)) + "\n" for t in tasks),
            encoding="utf-8",
        )
        outfile = tmp_path / "out.jsonl"
        code, report = run(["batch", "--input", str(infile), "--output", str(outfile)])
        assert code == 2
        assert report["lines"] == len(tasks)
        assert report["failed"] == len(poisoned) + 1 and report["internal"] == 0
        lines = [json.loads(line) for line in outfile.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == len(tasks)
        assert lines[0] == lines[-2] == _analyze_report("cubic-0")
        for i, (_, message) in enumerate(poisoned):
            assert lines[2 * i + 1] == {"error": message}
            assert lines[2 * i + 2] == _analyze_report("cubic-1")
        assert lines[-1] == {"error": '"kmax" must be a finite number, got inf'}
