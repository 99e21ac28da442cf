"""Command-line interface.

Subcommands:

  analyze    run the full obstruction procedure on a field p*d/dx + q*d/dy
  risch      decide rational solvability of one equation y' + (k-1)*a*y = b
  transform  push a field through the infinity chart change and print it
  batch      run independent analyses, one JSON object per input line

Exit codes: 0 when a verdict or result was produced (including an explicit
inconclusive verdict), 2 on input errors, 3 on an internal error: a
single-line command prints one ``error: internal: <Type>: <message>`` line
on stderr, and a batch line that meets one gets an output line with
``"kind": "internal"`` while the other lines are still written.  JSON
reports are canonical: keys sorted, rationals rendered as exact "num/den"
strings, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Mapping

from . import __version__
from .algebra import RatFunc
from .analyzer import MAX_KMAX, Certificate, _outcome_dict, analyze, canonical_json, check_hk
from .parsing import ParseError, parse_lets, parse_poly, parse_univar_ratfunc
from .planar import DegenerateCurveError, PlanarField, infinity_transform

_INPUT_ERRORS = (ParseError, DegenerateCurveError, ValueError, ZeroDivisionError, OSError)


@dataclass(frozen=True)
class FieldSpec:
    """Source-level description of one analysis task."""

    p_text: str
    q_text: str
    phi_text: str = "0"
    k_max: int = 2
    at_infinity: bool = False
    interpretation: str = "literal"
    variables: tuple[str, str] = ("x", "y")
    lets: Mapping[str, Fraction] = dataclass_field(default_factory=dict)

    def build(self) -> tuple[PlanarField, RatFunc]:
        p = parse_poly(self.p_text, self.variables, self.lets)
        q = parse_poly(self.q_text, self.variables, self.lets)
        phi = parse_univar_ratfunc(self.phi_text, self.variables[0], self.lets)
        return PlanarField(p, q), phi

    def run(self) -> Certificate:
        field, phi = self.build()
        return analyze(
            field,
            phi,
            self.k_max,
            at_infinity=self.at_infinity,
            interpretation=self.interpretation,
        )


def _meta(options: dict) -> dict:
    return {"tool": "ratcert", "version": __version__, "options": options}


def _write_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(report))
        handle.write("\n")


def _variables(text: str) -> tuple[str, str]:
    """The two variable names of a ``--vars`` option."""
    variables = tuple(text.split(","))
    if (
        len(variables) != 2
        or variables[0] == variables[1]
        or not all(v.isidentifier() for v in variables)
    ):
        raise ValueError(f"--vars must name two distinct variables, got {text!r}")
    return variables


def _spec_from_args(args) -> FieldSpec:
    return FieldSpec(
        p_text=args.p,
        q_text=args.q,
        phi_text=args.phi,
        k_max=args.kmax,
        at_infinity=args.at_infinity,
        interpretation=args.h1,
        variables=_variables(args.vars),
        lets=parse_lets(args.let),
    )


def _print_certificate(report: dict, out) -> None:
    """The text form of an analysis, rendered from its report dict, so each
    rational function is formatted once."""
    h1 = report["h1"]
    print(f"chart: {report['chart']}" + (" (roles swapped)" if report["swapped"] else ""), file=out)
    print(
        f"h1: holds={h1['holds']} (pole>1={h1['has_high_order_finite_pole']} "
        f"degree={h1['degree_condition']} residues_integer={h1['residues_all_integer']} "
        f"interpretation={h1['interpretation']})",
        file=out,
    )
    for order in report["orders"]:
        o = order["outcome"]
        if "solution" in o:
            detail = f"y = {o['solution']}"
        else:
            detail = o.get("reason", "no rational solution")
        extra = f", case {o['case']}" if "case" in o else ""
        print(f"k={order['k']}: {o['status']} [{o['solver']}{extra}] {detail}", file=out)
    v = report["verdict"]
    if "k" in v:
        print(f"verdict: {v['status']} (k={v['k']})", file=out)
    elif "k_max" in v:
        print(f"verdict: {v['status']} ({v['reason']}, k_max={v['k_max']})", file=out)
    else:
        print(f"verdict: {v['status']} ({v['reason']})", file=out)


def _cmd_analyze(args) -> tuple[int, dict]:
    spec = _spec_from_args(args)
    started = time.perf_counter()
    cert = spec.run()
    elapsed = time.perf_counter() - started
    report = dict(cert.to_dict())
    report["meta"] = _meta(
        {
            "command": "analyze",
            "kmax": spec.k_max,
            "at_infinity": spec.at_infinity,
            "h1": spec.interpretation,
            "vars": list(spec.variables),
        }
    )
    _print_certificate(report, sys.stdout)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if args.json:
        _write_json(args.json, report)
    return 0, report


def _cmd_risch(args) -> tuple[int, dict]:
    lets = parse_lets(args.let)
    alpha = parse_univar_ratfunc(args.alpha, "x", lets)
    beta = parse_univar_ratfunc(args.beta, "x", lets)
    if args.order < 2:
        raise ValueError("--order must be >= 2")
    _, outcome = check_hk(alpha, beta, args.order)
    eq = outcome.equation
    o = _outcome_dict(outcome)
    report = {
        "meta": _meta({"command": "risch", "order": args.order}),
        "equation": {"a": eq.a.to_str(), "b": eq.b.to_str(), "order": args.order},
        "outcome": o,
    }
    if "solution" in o:
        print(f"RationalSolution: y = {o['solution']} [{o['solver']}]")
        if "case" in o:
            print(f"case: {o['case']}")
    else:
        case = f", case {o['case']}" if "case" in o else ""
        print(f"NoRationalSolution [{o['solver']}{case}] {o.get('reason', '')}")
    if args.json:
        _write_json(args.json, report)
    return 0, report


def _cmd_transform(args) -> tuple[int, dict]:
    variables = _variables(args.vars)
    lets = parse_lets(args.let)
    p = parse_poly(args.p, variables, lets)
    q = parse_poly(args.q, variables, lets)
    out = infinity_transform(PlanarField(p, q))
    report = {
        "meta": _meta({"command": "transform", "vars": list(variables)}),
        "input": {"p": p.to_str(variables), "q": q.to_str(variables)},
        "field": {"p": out.p.to_str(), "q": out.q.to_str()},
    }
    print(f"p = {out.p.to_str()}")
    print(f"q = {out.q.to_str()}")
    if args.json:
        _write_json(args.json, report)
    return 0, report


# the keys of a batch line (README, "Batch input lines")
_BATCH_KEYS = ("p", "q", "phi", "kmax", "at_infinity", "h1", "lets")
_JSON_TYPES = {str: "string", int: "integer", bool: "boolean"}


def _typed(value, key: str, kind: type):
    """``value`` of batch-line key ``key``, required to have exactly the JSON
    type ``kind`` (so a bool is not an integer and "false" is not a bool)."""
    if type(value) is not kind:
        raise TypeError(f'"{key}" must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}')
    return value


def _batch_line(line: str) -> dict:
    try:
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise TypeError(f"a batch line must be a JSON object, got {type(payload).__name__}")
        unknown = [key for key in payload if key not in _BATCH_KEYS]
        if unknown:
            raise ValueError(
                f"unknown key {', '.join(json.dumps(key) for key in unknown)} in a batch line; "
                f"its keys are {', '.join(_BATCH_KEYS)}"
            )
        lets = payload.get("lets") or {}
        if not isinstance(lets, dict):
            raise TypeError(f'"lets" must be a JSON object, got {type(lets).__name__}')
        lets = {name: Fraction(str(value)) for name, value in lets.items()}
        kmax = payload.get("kmax", 2)
        if isinstance(kmax, float) and not math.isfinite(kmax):
            # json reads 1e400 as inf, which keeps its own message
            raise ValueError(f'"kmax" must be a finite number, got {kmax!r}')
        spec = FieldSpec(
            p_text=_typed(payload["p"], "p", str),
            q_text=_typed(payload["q"], "q", str),
            phi_text=str(payload.get("phi", "0")),
            k_max=_typed(kmax, "kmax", int),
            at_infinity=_typed(payload.get("at_infinity", False), "at_infinity", bool),
            interpretation=payload.get("h1", "literal"),
            lets=lets,
        )
        return spec.run().to_dict()
    except _INPUT_ERRORS + (KeyError, json.JSONDecodeError, TypeError, RecursionError) as exc:
        # RecursionError: json.loads recurses once per nesting level of a line
        return {"error": str(exc)}
    except Exception as exc:
        # a fault of the program on this line, such as a decider disagreement
        # or a failed substitution check: the other lines still get results
        return {"error": f"{type(exc).__name__}: {exc}", "kind": "internal"}


def _cmd_batch(args) -> tuple[int, dict]:
    # the whole input is read before the output is opened, which may be the
    # same file
    with open(args.input, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    failed = internal = 0
    sink = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        # one line after another in this thread: the work is CPU-bound under
        # the interpreter lock, so worker threads only add lock hand-offs
        for line in lines:
            result = _batch_line(line)
            failed += "error" in result
            internal += result.get("kind") == "internal"
            sink.write(canonical_json(result))
            sink.write("\n")
            sink.flush()
    finally:
        if sink is not sys.stdout:
            sink.close()
    report = {
        "meta": _meta({"command": "batch"}),
        "lines": len(lines),
        "failed": failed,
        "internal": internal,
    }
    return (3 if internal else 2 if failed else 0), report


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``run`` call (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="ratcert",
        description="Certify non-rational-integrability of planar polynomial vector fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the obstruction procedure on a field")
    pa.add_argument("--p", required=True, help="first component of the field")
    pa.add_argument("--q", required=True, help="second component of the field")
    pa.add_argument("--phi", default="0", help="invariant curve y = phi(x); default 0")
    pa.add_argument(
        "--kmax", type=int, default=2, help=f"highest variational order to test (2..{MAX_KMAX})"
    )
    pa.add_argument("--at-infinity", action="store_true", help="analyse along the line at infinity")
    pa.add_argument("--h1", choices=("literal", "corrected"), default="literal")
    pa.add_argument("--json", default=None, help="write the canonical JSON report to PATH")
    pa.add_argument("--let", action="append", default=[], metavar="NAME=VALUE")
    pa.add_argument("--vars", default="x,y", help="variable names, comma separated")
    pa.set_defaults(func=_cmd_analyze)

    pr = sub.add_parser("risch", help="decide one equation y' + (order-1)*alpha*y = beta")
    pr.add_argument("--alpha", required=True)
    pr.add_argument("--beta", required=True)
    pr.add_argument("--order", type=int, required=True)
    pr.add_argument("--json", default=None)
    pr.add_argument("--let", action="append", default=[], metavar="NAME=VALUE")
    pr.set_defaults(func=_cmd_risch)

    pt = sub.add_parser("transform", help="print the field in the infinity chart")
    pt.add_argument("--p", required=True)
    pt.add_argument("--q", required=True)
    pt.add_argument("--vars", default="z1,z2")
    pt.add_argument("--json", default=None)
    pt.add_argument("--let", action="append", default=[], metavar="NAME=VALUE")
    pt.set_defaults(func=_cmd_transform)

    pb = sub.add_parser("batch", help="analyse one JSON task per input line")
    pb.add_argument("--input", required=True)
    pb.add_argument("--output", default=None)
    pb.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="accepted and ignored: lines run one after another in this process, "
        "since the work is CPU-bound under the interpreter lock and a pool of "
        "threads or processes made batches slower",
    )
    pb.set_defaults(func=_cmd_batch)
    return parser


def run(argv=None) -> tuple[int, dict | None]:
    """Parse arguments and execute; returns (exit code, report)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except Exception as exc:
        # a fault of the program, such as a decider disagreement or a failed
        # substitution check: one line, the exit code batch uses for it
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3, None


def main(argv=None) -> int:
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
