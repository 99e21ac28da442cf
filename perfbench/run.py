#!/usr/bin/env python3
"""ratcert benchmark: one workload per process, drift-normalised costs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the program only through ``ratcert.cli.run``, in-process, with stdout
sent to a null sink.  Set-up (import, input generation, one untimed warm-up
operation) is repeated ``Workload.setup_repeats`` times, each set-up
bracketed by the reference kernel like an operation, and its median cost is
reported.  The timed phase then runs whole rounds of the workload's
operations for at least ``--seconds``.  Every operation, or block of short operations, is bracketed
by the reference kernel; an operation's cost is its wall time over the mean
reference time around it (see ``costs_in_ref``), in units of one kernel run
(``ref``).  Every output is checked by ``checker`` after the timed phase.
See README.md for the workloads, the metrics and reference figures.

With ``--trace 1`` the layers are wrapped at runtime (see ``tracing``) and
the per-layer metrics are printed instead of the end-to-end ones.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TAIL_LADDER = (99, 95, 90, 75)
REF_TERMS = 44
REF_MATRIX = 14
# bracket runs averaged on each side of an operation's own two brackets
REF_WINDOW = 4
# median kernel time on the machine the README figures come from; set-up
# cost in ref is reported as seconds of that machine
REF_NOMINAL_S = 0.033


def reference_kernel() -> None:
    """Fixed exact-arithmetic work of about 30 ms, standard library only and
    no ratcert code: the square of a polynomial with Fraction coefficients
    (denominators grow to a few hundred bits), then Gauss-Jordan elimination
    of a shifted Hilbert matrix over Fractions."""
    coeffs = [Fraction(i + 1, 2 * i + 3) for i in range(REF_TERMS)]
    acc = [Fraction(0)] * (2 * REF_TERMS - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            acc[i + j] += a * b
    n = REF_MATRIX
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] + [acc[i]] for i in range(n)]
    for col in range(n):
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * p for v, p in zip(rows[r], rows[col])]



def reference_time() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def _purge_program() -> None:
    for name in [m for m in sys.modules if m == "ratcert" or m.startswith("ratcert.")]:
        del sys.modules[name]


def _run_op(cli, op) -> tuple[float, str | None]:
    """Time one operation; returns (seconds, error or None)."""
    with contextlib.suppress(FileNotFoundError):
        op.output.unlink()
    t0 = time.perf_counter()
    try:
        code, _ = cli.run(op.argv)
    except Exception:  # the benchmark records the failure and goes on
        return time.perf_counter() - t0, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    return elapsed, None if code == 0 else f"exit code {code}"


def setup(workload, seed: int, workdir: Path):
    """Import the program, generate the inputs and run one warm-up
    operation; returns (cli module, ops, raw seconds)."""
    t0 = time.perf_counter()
    _purge_program()
    cli = importlib.import_module("ratcert.cli")
    planar = importlib.import_module("ratcert.planar")
    ops = workload.build(random.Random(seed), workdir, planar)
    _run_op(cli, ops[0])
    return cli, ops, time.perf_counter() - t0


def timed_phase(cli, ops, block: int, seconds: float):
    """Whole rounds of ``ops`` until ``seconds`` have passed, with a
    reference run after every block of ``block`` operations.

    Returns per-operation records (round, index, raw seconds, block, error),
    each operation's first successful output, the operations whose later
    outputs differ from it, the reference times (block b lies between
    refs[b] and refs[b + 1]) and the phase's wall seconds.
    """
    records = []
    first: list[str | None] = [None] * len(ops)
    mismatched: set[int] = set()
    refs = [reference_time()]
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        for b0 in range(0, len(ops), block):
            for i in range(b0, min(b0 + block, len(ops))):
                elapsed, error = _run_op(cli, ops[i])
                records.append((rnd, i, elapsed, len(refs) - 1, error))
                if error is not None:
                    continue
                text = ops[i].output.read_text(encoding="utf-8")
                if first[i] is None:
                    first[i] = text
                elif text != first[i]:
                    mismatched.add(i)
            refs.append(reference_time())
        rnd += 1
    return records, first, mismatched, refs, time.perf_counter() - start


def costs_in_ref(timings, refs) -> list[float]:
    """Each (raw seconds, block) timing over the mean of the block's two
    brackets, ``refs[block]`` and ``refs[block + 1]``, and the
    ``REF_WINDOW`` bracket runs on either side of them.

    One 30 ms kernel run is itself noisy on a shared machine (about 19%
    between neighbours); averaging ten of them tracks the slow drift without
    adding that noise to every operation.
    """
    costs = []
    for elapsed, b in timings:
        window = refs[max(0, b - REF_WINDOW): b + REF_WINDOW + 2]
        costs.append(elapsed / (sum(window) / len(window)))
    return costs


def _tail(costs: list[float], distinct: int) -> tuple[int, float]:
    """The highest ladder percentile with at least ten of the round's
    ``distinct`` operations beyond it; the median when there is none."""
    for p in TAIL_LADDER:
        if distinct * (100 - p) / 100 >= 10 and len(costs) > 1:
            return p, statistics.quantiles(costs, n=100, method="inclusive")[p - 1]
    return 50, statistics.median(costs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ratcert" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = HERE / "out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        with open(os.devnull, "w", encoding="utf-8") as null, \
                contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
            setups, setup_refs = [], [reference_time()]
            for _ in range(workload.setup_repeats):
                cli, ops, raw = setup(workload, args.seed, workdir)
                setups.append(raw)
                setup_refs.append(reference_time())
            if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
                raise RuntimeError(f"ratcert imported from {cli.__file__}, not {SRC}")
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
            try:
                records, first, mismatched, refs, wall = timed_phase(
                    cli, ops, workload.block, args.seconds
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems = {}
            for i, op in enumerate(ops):
                if first[i] is not None:
                    try:
                        found = op.check(first[i])
                    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                        found = [f"unreadable output: {exc!r}"]
                    if i in mismatched:
                        found.append("output differs between rounds")
                    if found:
                        problems[i] = found
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [(i, err) for _, i, _, _, err in records if err is not None]
    failed = len(errors) + sum(1 for _, i, _, _, err in records if err is None and i in problems)
    for i, err in errors[:3]:
        print(f"operation {i} failed: {err}", file=sys.stderr)
    for i, found in list(problems.items())[:3]:
        print(f"operation {i} output rejected: {found[:5]}", file=sys.stderr)

    costs = costs_in_ref([(r[2], r[3]) for r in records], refs)
    setup_costs = costs_in_ref([(raw, i) for i, raw in enumerate(setups)], setup_refs)
    # percentiles over the operations that did not fail, if any did not
    ok_costs = [c for c, r in zip(costs, records) if r[4] is None] or costs
    # one round's cost, each operation at its median over the rounds
    per_op: list[list[float]] = [[] for _ in ops]
    for c, r in zip(costs, records):
        per_op[r[1]].append(c)
    wall_ref = sum(statistics.median(v) for v in per_op)
    ref_s = statistics.median(refs)
    digest = hashlib.sha256("".join(f"{t}\n" for t in first if t is not None).encode()).hexdigest()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": records[-1][0] + 1,
        "operations_per_round": len(ops),
        "attempted": len(records),
        "failed": failed,
        "raw_wall_s": wall,
        "raw_op_p50_s": statistics.median(r[2] for r in records),
        "ref_median_s": ref_s,
        "wall_ref": wall_ref,
        "output_sha256": digest,
        "setup_raw_s": setups,
        "setup_ref_median_s": statistics.median(setup_refs),
    }
    if tracer is None:
        tail_p, tail = _tail(ok_costs, len(ops))
        info.update(tail_percentile=tail_p, tail_samples=len(ok_costs))
        metrics = {
            # set-up cost in ref, as seconds of the reference machine
            "setup_s": (statistics.median(setup_costs) * REF_NOMINAL_S, "s"),
            "wall_ref": (wall_ref, "ref"),
            "op_p50_ref": (statistics.median(ok_costs), "ref"),
            "op_tail_ref": (tail, "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics, absent = tracer.metrics(len(records))
        info.update(trace_file=str(trace_path.relative_to(ROOT)), absent=absent)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
