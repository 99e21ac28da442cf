"""Seeded inputs for the three workloads, as command lines for ``ratcert.cli.run``.

Each workload turns a seed into one round: a fixed list of operations, every
one a command line plus the file its canonical output lands in and the
independent check for that output.  The program sees only the generated
command lines and files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checker

# elementary-tower: fields per round and the highest order analysed
TOWER_FIELDS = 3
TOWER_KMAX = 20
# cubic-batch: batch files per round, lines per file, worker threads
CUBIC_FILES = 4
CUBIC_LINES = 24
CUBIC_JOBS = 2
# risch-crossval: equations per round (half power-pole, half planted)
CROSSVAL_EQUATIONS = 600


@dataclass(frozen=True)
class Op:
    argv: list[str]
    output: Path
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    # operations run between two reference brackets
    block: int
    # set-ups per run; short set-ups are repeated more for a steady median
    setup_repeats: int
    build: Callable  # (rng, workdir, planar module) -> list[Op]


# ---------------------------------------------------------------------------
# small polynomial helpers (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------


def _pmul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _pstr(coeffs: list) -> str:
    terms = [f"({Fraction(c)})*x^{i}" for i, c in enumerate(coeffs) if c]
    return " + ".join(terms) or "0"


def _frac(rng: random.Random, bound: int, dens: int, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-bound, bound), rng.randint(1, dens))
        if v or not nonzero:
            return v


# ---------------------------------------------------------------------------
# elementary-tower
# ---------------------------------------------------------------------------


def _rescaling(rng: random.Random) -> Fraction:
    """c = +-n/d with n, d coprime in 50..99: a fixed size class, so that the
    cost of an analysis varies little between seeds."""
    while True:
        n, d = rng.randint(50, 99), rng.randint(50, 99)
        if math.gcd(n, d) == 1:
            return Fraction(rng.choice((1, -1)) * n, d)


def _check_tower(p: str, q: str, text: str) -> list[str]:
    return checker.check_tower(json.loads(text), p, q, TOWER_KMAX)


def build_tower(rng: random.Random, workdir: Path, planar) -> list[Op]:
    ops = []
    for i in range(TOWER_FIELDS):
        p, q = f"x^2 - ({_rescaling(rng)})*y", "y*(x + 1)"
        out = workdir / f"tower-{i}.json"
        argv = ["analyze", "--p", p, "--q", q, "--kmax", str(TOWER_KMAX), "--json", str(out)]
        ops.append(Op(argv, out, partial(_check_tower, p, q)))
    return ops


# ---------------------------------------------------------------------------
# cubic-batch
# ---------------------------------------------------------------------------


def _cubic_line(rng: random.Random, boundary: bool, at_infinity: bool, planar) -> dict:
    a = _frac(rng, 6, 3)
    b = _frac(rng, 6, 3, nonzero=True)
    if boundary:
        c = -a * b / 3
    else:
        c = _frac(rng, 6, 3)
        while c == -a * b / 3:
            c += 1
    params = {"a": str(a), "b": str(b), "c": str(c)}
    if at_infinity:
        # the same member in the chart before the change at infinity
        bp = planar.BivarPoly
        parts = [
            bp.zero(),
            bp.zero(),
            bp({(2, 0): -a}),
            bp({(1, 2): Fraction(1), (2, 1): -c, (3, 0): -b}),
        ]
        field = planar.family_from_P(parts, 3, 3)
        task = {"p": field.p.to_str(), "q": field.q.to_str(), "kmax": 2, "at_infinity": True}
    else:
        task = {"p": checker.CUBIC_P, "q": checker.CUBIC_Q, "kmax": 2, "lets": params}
    return {"params": params, "task": task}


def build_cubic(rng: random.Random, workdir: Path, planar) -> list[Op]:
    ops = []
    for f in range(CUBIC_FILES):
        lines: list[dict] = []
        seen = set()
        while len(lines) < CUBIC_LINES:
            i = len(lines)
            line = _cubic_line(rng, i % 6 == 0, i % 4 == 1, planar)
            key = tuple(line["params"].values())
            if key not in seen:
                seen.add(key)
                lines.append(line)
        src = workdir / f"cubic-{f}.jsonl"
        src.write_text("".join(json.dumps(l["task"]) + "\n" for l in lines), encoding="utf-8")
        out = workdir / f"cubic-{f}.out.jsonl"
        argv = ["batch", "--input", str(src), "--output", str(out), "--jobs", str(CUBIC_JOBS)]
        ops.append(Op(argv, out, partial(checker.check_batch, lines)))
    return ops


# ---------------------------------------------------------------------------
# risch-crossval: drawn as scripts/cross_validate_solvers.py draws them
# ---------------------------------------------------------------------------


def _power_pole(rng: random.Random, t: int) -> dict:
    """alpha = A/x^k, beta = (2*A + 2*x^k*B)/x^(2k), B zero in 3 of 10.

    The counter ``t`` sets the shape (k, deg A, whether B is zero); the
    seeded ``rng`` draws the coefficients and deg B.
    """
    k = 2 + t % 5
    n = t // 5 % k
    cs = [Fraction(rng.randint(-5, 5)) for _ in range(n + 1)]
    if cs[0] == 0:
        cs[0] = Fraction(rng.choice([1, -1, 2]))
    if cs[-1] == 0:
        cs[-1] = Fraction(rng.choice([1, -1, 2]))
    if rng.random() < 0.2 and n >= 1:
        cs[-1] = Fraction(rng.randint(1, 9), rng.choice([2, 3, 4]))
    w = [2 * c for c in cs]
    if t // 30 % 10 >= 3:
        m = rng.randint(0, k - 1)
        bs = [Fraction(rng.randint(-4, 4)) for _ in range(m + 1)]
        if bs[0] == 0:
            bs[0] = Fraction(1)
        if bs[-1] == 0:
            bs[-1] = Fraction(1)
        w = _padd(w, [Fraction(0)] * k + [2 * c for c in bs])
    return {
        "alpha": f"({_pstr(cs)})/(x^{k})",
        "beta": f"({_pstr(w)})/(x^{2 * k})",
        "power_pole": (cs, k, w, 2 * k),
    }


def _planted(rng: random.Random, t: int) -> dict:
    """alpha = core/x^j + sum ell/(x - r), beta = h' + alpha*h, h = N/x^m.

    The counter ``t`` sets the shape (j, the number of simple-pole draws,
    the length of N, m); the seeded ``rng`` draws the coefficients.
    """
    j, poles, terms, m = 2 + t % 3, t // 3 % 3, 1 + t // 9 % 4, t // 36 % 3
    core = [Fraction(rng.randint(-4, 4)) for _ in range(j)]
    if not any(core) or core[0] == 0:
        core[0] += 1
    num, den = core, [Fraction(0)] * j + [Fraction(1)]
    for _ in range(poles):
        ell = rng.randint(-3, 3)
        if ell:
            lin = [Fraction(-rng.randint(1, 5)), Fraction(1)]
            num, den = _padd(_pmul(num, lin), [ell * c for c in den]), _pmul(den, lin)
    h = [Fraction(rng.randint(-4, 4)) for _ in range(terms)]
    if not any(h):
        h = [Fraction(1)]
    # h' = (N'*x - m*N)/x^(m+1); beta = ((N'*x - m*N)*den + num*N*x)/(den*x^(m+1))
    dh = _padd([Fraction(0)] + [i * c for i, c in enumerate(h)][1:], [-m * c for c in h])
    xm1 = [Fraction(0)] * (m + 1) + [Fraction(1)]
    b_num = _padd(_pmul(dh, den), _pmul(_pmul(num, h), [Fraction(0), Fraction(1)]))
    return {
        "alpha": f"({_pstr(num)})/({_pstr(den)})",
        "beta": f"({_pstr(b_num)})/({_pstr(_pmul(den, xm1))})",
        "planted": f"({_pstr(h)})/(x^{m})",
    }


def _check_risch(eq: dict, text: str) -> list[str]:
    return checker.check_risch(eq, json.loads(text))


def build_crossval(rng: random.Random, workdir: Path, planar) -> list[Op]:
    """The shapes the script draws at random cycle here through all their
    values, so every round has the same mix and only the coefficients
    depend on the seed."""
    ops = []
    for i in range(CROSSVAL_EQUATIONS):
        eq = (_power_pole if i % 2 == 0 else _planted)(rng, i // 2)
        out = workdir / f"risch-{i}.json"
        argv = ["risch", "--alpha", eq["alpha"], "--beta", eq["beta"], "--order", "2"]
        ops.append(Op(argv + ["--json", str(out)], out, partial(_check_risch, eq)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("elementary-tower", 1, 5, build_tower),
        Workload("cubic-batch", 1, 7, build_cubic),
        Workload("risch-crossval", 40, 11, build_crossval),
    )
}
