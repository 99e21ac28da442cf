#!/usr/bin/env python3
"""Randomised cross-validation of the two rational-solution deciders.

Usage:
    python scripts/cross_validate_solvers.py [--trials N] [--seed S]

Draws random power-pole instances, runs both the specialized case analysis
and the general bound-based solver, and reports any disagreement on
existence or on the solution itself.  Every absence is decided again with
a wider candidate denominator (one more pole order at each place); a
solution found that way is a mismatch too, since the pole bound would then
have missed it.  The numerator degree needs no widening: the recurrence's
own cap bounds it, whatever the caller asks.  Also replays planted-solution
round-trips through the general solver.  Exits nonzero on any mismatch.
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from ratcert.algebra import Poly, RatFunc
from ratcert.risch import (
    KaltofenInstance,
    RischEquation,
    solve_general,
    solve_xk_specialized,
    verify_solution,
)


def random_instance(rng: random.Random) -> KaltofenInstance:
    k = rng.randint(2, 6)
    n = rng.randint(0, k - 1)
    cs = [Fraction(rng.randint(-5, 5)) for _ in range(n + 1)]
    if cs[0] == 0:
        cs[0] = Fraction(rng.choice([1, -1, 2]))
    if cs[-1] == 0:
        cs[-1] = Fraction(rng.choice([1, -1, 2]))
    if rng.random() < 0.2 and n >= 1:
        cs[-1] = Fraction(rng.randint(1, 9), rng.choice([2, 3, 4]))
    shift = None
    if rng.random() >= 0.3:
        m = rng.randint(0, k - 1)
        bs = [Fraction(rng.randint(-4, 4)) for _ in range(m + 1)]
        if bs[0] == 0:
            bs[0] = Fraction(1)
        if bs[-1] == 0:
            bs[-1] = Fraction(1)
        shift = Poly(bs)
    return KaltofenInstance(Poly(cs), shift, k)


def random_planted(rng: random.Random) -> tuple[RischEquation, RatFunc]:
    j = rng.randint(2, 4)
    core = Poly([Fraction(rng.randint(-4, 4)) for _ in range(j)])
    if core.is_zero or core.coeff(0) == 0:
        core = core + 1
    a = RatFunc(core, Poly.monomial(j))
    for _ in range(rng.randint(0, 2)):
        ell = rng.randint(-3, 3)
        if ell:
            a = a + ell * RatFunc(1, Poly([-rng.randint(1, 5), 1]))
    num = Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
    if num.is_zero:
        num = Poly.one()
    h = RatFunc(num, Poly.monomial(rng.randint(0, 2)))
    return RischEquation(a, h.derivative() + a * h), h


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    started = time.perf_counter()
    mismatches = 0
    solvable = 0
    rechecked = 0
    cases = {}
    for _ in range(args.trials):
        inst = random_instance(rng)
        special = solve_xk_specialized(inst)
        general = solve_general(inst.equation())
        cases[special.case] = cases.get(special.case, 0) + 1
        if special.has_rational_solution != general.has_rational_solution:
            mismatches += 1
            print(f"EXISTENCE MISMATCH: {inst}")
            continue
        if special.has_rational_solution:
            solvable += 1
            if special.solution != general.solution:
                mismatches += 1
                print(f"SOLUTION MISMATCH: {inst}")
        else:
            rechecked += 1
            wider = solve_general(inst.equation(), pole_slack=1)
            if wider.has_rational_solution:
                mismatches += 1
                print(f"ABSENCE MISSED BY THE BOUNDS: {inst}")

    recovered = 0
    for _ in range(args.trials):
        eq, planted = random_planted(rng)
        out = solve_general(eq)
        if not out.has_rational_solution or not verify_solution(eq, out.solution):
            mismatches += 1
            print(f"ROUND-TRIP FAILURE: {eq}")
        elif out.solution == planted:
            recovered += 1

    elapsed = time.perf_counter() - started
    print(f"instances: {args.trials} cross-validated ({solvable} solvable), "
          f"case counts {dict(sorted(cases.items()))}")
    print(f"absences re-checked with wider bounds: {rechecked}")
    print(f"planted round-trips: {args.trials}, exact recoveries: {recovered}")
    print(f"mismatches: {mismatches}, elapsed {elapsed:.1f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
