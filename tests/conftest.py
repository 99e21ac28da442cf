"""Shared builders and independent oracles for the test suite."""

import math
import random
from fractions import Fraction

from ratcert.algebra import Poly, RatFunc
from ratcert.planar import BivarPoly, PlanarField, infinity_transform
from reference import VEStructure, projective_clear


def make_poly(*coeffs) -> Poly:
    """Poly from coefficients, lowest degree first."""
    return Poly([Fraction(c) for c in coeffs])


def rand_fraction(rng: random.Random, bound: int = 5, max_den: int = 1) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))


def rand_poly(
    rng: random.Random,
    max_deg: int = 4,
    bound: int = 5,
    nonzero: bool = False,
    max_den: int = 1,
) -> Poly:
    deg = rng.randint(0, max_deg)
    p = Poly([rand_fraction(rng, bound, max_den) for _ in range(deg + 1)])
    if nonzero and p.is_zero:
        return Poly([1])
    return p


def rand_ratfunc(rng: random.Random, num_deg: int = 4, den_deg: int = 4, bound: int = 4) -> RatFunc:
    num = rand_poly(rng, num_deg, bound)
    den = rand_poly(rng, den_deg, bound, nonzero=True)
    return RatFunc(num, den)


def rand_bivar(
    rng: random.Random, max_total: int = 4, bound: int = 3, nonzero: bool = False
) -> BivarPoly:
    terms = {}
    for i in range(max_total + 1):
        for j in range(max_total + 1 - i):
            if rng.random() < 0.4:
                c = rng.randint(-bound, bound)
                if c:
                    terms[(i, j)] = Fraction(c)
    p = BivarPoly(terms)
    if nonzero and p.is_zero:
        return BivarPoly({(0, 0): Fraction(1)})
    return p


def rand_family(rng: random.Random, max_n: int = 6):
    """Valid (parts, n, k) input for family_from_P with a nonzero top part."""
    n = rng.randint(2, max_n)
    k = rng.randint(2, n)
    parts = [BivarPoly.zero()]
    for i in range(1, n + 1):
        terms = {}
        for a in range(1, i + 1):
            if rng.random() < 0.5:
                c = rng.randint(-3, 3)
                if c:
                    terms[(a, i - a)] = Fraction(c)
        parts.append(BivarPoly(terms))
    if parts[n].is_zero:
        parts[n] = BivarPoly({(n, 0): Fraction(1)})
    return parts, n, k


def projective_relations_hold(tilde: PlanarField) -> bool:
    """Chart-change identities, cleared of denominators.

    With pi the substitution x = z2/z1, y = 1/z1 and (p, q) the transformed
    field: z1**(N+1)*q(pi) equals the input first component, z1**(N+1)*p(pi)
    equals z2*P - z1*Q of the input, and the cross-multiplied foliation
    identity holds.
    """
    n = tilde.degree
    tr = infinity_transform(tilde)
    z1, z2 = BivarPoly.var(0), BivarPoly.var(1)
    qpi = projective_clear(tr.q, n + 1)
    ppi = projective_clear(tr.p, n + 1)
    rel_first = qpi == tilde.p
    rel_second = ppi == (z2 * tilde.p - z1 * tilde.q)
    foliation = (tilde.q * (z1 * qpi)) == (tilde.p * (z2 * qpi - ppi))
    return rel_first and rel_second and foliation


# ---------------------------------------------------------------------------
# flow-series oracle: Picard iteration on y' = f(x, y), y(0) = eps
# ---------------------------------------------------------------------------


def _series_mul(a, b, x_order, eps_order):
    out = {}
    for (i1, e1), c1 in a.items():
        for (i2, e2), c2 in b.items():
            i, e = i1 + i2, e1 + e2
            if i <= x_order and e <= eps_order:
                out[(i, e)] = out.get((i, e), Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _poly_at_series(f: BivarPoly, yser, x_order, eps_order):
    maxj = max((j for _, j in f.terms), default=0)
    powers = [{(0, 0): Fraction(1)}]
    for _ in range(maxj):
        powers.append(_series_mul(powers[-1], yser, x_order, eps_order))
    out = {}
    for (i, j), c in f.terms.items():
        for (ii, e), v in powers[j].items():
            if i + ii <= x_order:
                key = (i + ii, e)
                out[key] = out.get(key, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v}


def picard_flow_series(f: BivarPoly, x_order: int, eps_order: int):
    """Truncated flow of y' = f(x, y) with y(0) = eps, around the solution
    y = 0 (requires f(x, 0) = 0).  Coefficients keyed by (x power, eps power).
    """
    assert all(j > 0 for _, j in f.terms), "the zero curve must solve the equation"
    y = {(0, 1): Fraction(1)}
    for _ in range(x_order + 1):
        fy = _poly_at_series(f, y, x_order, eps_order)
        nxt = {(0, 1): Fraction(1)}
        for (i, e), c in fy.items():
            if i + 1 <= x_order:
                key = (i + 1, e)
                nxt[key] = nxt.get(key, Fraction(0)) + c / (i + 1)
        y = nxt
    return y


def ve_rows_hold_on_flow(f: BivarPoly, structure: VEStructure, x_order: int = 12) -> bool:
    """Check every row of the variational structure against the transverse
    Taylor coefficients of the actual flow, as truncated series identities.

    This path never touches the Bell machinery: it integrates the equation
    directly and differentiates the extracted coefficients.
    """
    kmax = structure.order
    flow = picard_flow_series(f, x_order, kmax)

    def coeff_fn(r):
        return [flow.get((i, r), Fraction(0)) * math.factorial(r) for i in range(x_order + 1)]

    def mul_t(a, b):
        out = [Fraction(0)] * (x_order + 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for k2, cb in enumerate(b):
                if i + k2 <= x_order:
                    out[i + k2] += ca * cb
        return out

    rows_f = f.rows

    def beta(i):
        p = rows_f.get(i, Poly.zero())
        return [p.coeff(d) * math.factorial(i) for d in range(x_order + 1)]

    for j in range(1, kmax + 1):
        phi_j = coeff_fn(j)
        lhs = [phi_j[i + 1] * (i + 1) for i in range(x_order)]
        rhs = [Fraction(0)] * (x_order + 1)
        for term in structure.rows[j - 1]:
            prod = [Fraction(1)] + [Fraction(0)] * x_order
            for r in term.monomial:
                prod = mul_t(prod, coeff_fn(r))
            prod = mul_t(prod, beta(term.beta_index))
            rhs = [a + term.coeff * b for a, b in zip(rhs, prod)]
        if any(lhs[i] != rhs[i] for i in range(x_order)):
            return False
    return True
