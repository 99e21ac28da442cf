"""The paper's reference constructions, kept beside the tests that compare
the program against them.  No command runs any of this.

Variational equations along an invariant curve and their linearisations.
The order-k variational system is triangular: row j expresses the derivative
of the j-th transverse Taylor coefficient in terms of the lower ones, with
coefficients beta_i (the i-th y-derivatives of the foliation slope on the
curve).  Row j is a sum of partial Bell polynomials:

    row_j = sum over i of beta_i * B_{j,i}(c_1, ..., c_{j-i+1})

Full linearised matrices are built only for orders 2 and 3; higher orders
are consumed through the two-row subsystem that carries the obstruction.

The module also provides a small formal differential ring in the symbols
(w, t1, t2) with the rewrite rules w' = alpha*w, t1' = beta2*w,
t2' = beta3*w**2, used to verify the closed-form fundamental matrices by
pure differentiation.

Beside them: the closed-form second-order coefficients read from the
homogeneous parts of a pre-transform field (checked against
``planar.foliation_derivatives``), the projective relations of the chart
change, residue normalisation of a Risch equation (checked against
``risch.solve_general``), the bound on a solution's numerator degree from
degrees at infinity (the size of the elimination that
``risch.solve_undetermined`` is checked against), a coprime refinement of
squarefree polynomials, over which the tests bound the poles of a
candidate denominator one element at a time (checked against
``risch._candidate_denominator``), the resultant both as a Sylvester
determinant and by Euclid's remainder sequence on primitive remainders
(each checked against ``algebra._resultant_std``, which runs Collins'
subresultant sequence), the residue report with no shortcut for equal
residues, from Sylvester resultants interpolated by Newton's divided
differences on ``Fraction``s (checked against ``algebra.residues``), the gcd
by Euclid on the kernel's own ``%`` (checked against ``algebra.poly_gcd``),
the power-pole system built from polynomial columns with one ``Fraction``
per cell (checked against ``risch._specialized_system``), the power-pole
case label from the gap k - lc(alpha_num) as a ``Fraction`` (checked
against ``KaltofenInstance.case``), the gcd degree modulo a prime by long
division reduced mod p at every step (checked against
``algebra._gf_gcd_degree``), the bivariate printer on ``Fraction``
terms (checked against ``BivarPoly.to_str``), and schoolbook arithmetic on
lists of ``Fraction`` coefficients, lowest degree first, zeros included
(checked against every ``Poly`` operation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Sequence

from ratcert.algebra import (
    Poly,
    RatFunc,
    ResidueReport,
    _pair_mul,
    _pseudo_divmod,
    _ratio,
    hermite_reduce,
    poly_gcd,
    rational_roots,
    residues,
    solve_linear_system,
    squarefree_decompose,
)
from ratcert.planar import BivarPoly, InputError, PlanarField, _part_at_one
from ratcert.risch import (
    REASON_DEGREE_MISMATCH,
    REASON_INCONSISTENT,
    KaltofenInstance,
    RischEquation,
    RischOutcome,
    verify_solution,
)


# ---------------------------------------------------------------------------
# variational right-hand sides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VETerm:
    """One monomial contribution: coeff * beta_{beta_index} * prod c_r."""

    coeff: int
    beta_index: int
    monomial: tuple[int, ...]  # sorted indices; (1, 1, 2) encodes c1*c1*c2


@dataclass(frozen=True)
class VEStructure:
    """Rows of the variational system up to a given order.

    rows[j-1] lists the terms of the equation for c_j'.
    """

    order: int
    rows: tuple[tuple[VETerm, ...], ...]


def partial_bell(j: int, i: int) -> dict[tuple[int, ...], int]:
    """Partial Bell polynomial B_{j,i} as {monomial: coefficient}.

    Recurrence: B_{j,i} = sum_r C(j-1, r-1) * x_r * B_{j-r, i-1}.
    """
    if j == 0 and i == 0:
        return {(): 1}
    if j <= 0 or i <= 0 or i > j:
        return {}
    out: dict[tuple[int, ...], int] = {}
    for r in range(1, j - i + 2):
        sub = partial_bell(j - r, i - 1)
        c = comb(j - 1, r - 1)
        for mono, coeff in sub.items():
            key = tuple(sorted(mono + (r,)))
            out[key] = out.get(key, 0) + c * coeff
    return out


def ve_rhs(k: int) -> VEStructure:
    """Variational rows for orders 1..k."""
    if k < 1:
        raise ValueError("order must be >= 1")
    rows: list[tuple[VETerm, ...]] = []
    for j in range(1, k + 1):
        terms: list[VETerm] = []
        for i in range(1, j + 1):
            for mono, coeff in sorted(partial_bell(j, i).items()):
                terms.append(VETerm(coeff, i, mono))
        terms.sort(key=lambda t: (t.beta_index, t.monomial))
        rows.append(tuple(terms))
    return VEStructure(k, tuple(rows))


def bell_number(j: int) -> int:
    """Sum over i of B_{j,i} at all arguments equal to 1."""
    total = 0
    for i in range(1, j + 1):
        total += sum(partial_bell(j, i).values())
    return total if j else 1


# ---------------------------------------------------------------------------
# linearised systems
# ---------------------------------------------------------------------------


def lve_matrix(k: int, betas: Sequence[RatFunc]) -> tuple[tuple[RatFunc, ...], ...]:
    """Exact lower-triangular linearised matrix for k in {2, 3}."""
    if k not in (2, 3):
        raise ValueError("full linearised matrices are only built for orders 2 and 3")
    if len(betas) != k:
        raise ValueError(f"need {k} coefficient functions, got {len(betas)}")
    zero = RatFunc.zero()
    b = list(betas)
    if k == 2:
        return (
            (2 * b[0], zero),
            (b[1], b[0]),
        )
    return (
        (3 * b[0], zero, zero),
        (b[1], 2 * b[0], zero),
        (b[2], 3 * b[1], b[0]),
    )


@dataclass(frozen=True)
class LVESubsystem:
    """Two-row subsystem u1' = k*alpha*u1, uk' = alpha*uk + beta_k*u1."""

    alpha: RatFunc
    beta_k: RatFunc
    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("subsystem order must be >= 2")

    def matrix(self) -> tuple[tuple[RatFunc, RatFunc], tuple[RatFunc, RatFunc]]:
        zero = RatFunc.zero()
        return (
            (self.order * self.alpha, zero),
            (self.beta_k, self.alpha),
        )


# ---------------------------------------------------------------------------
# formal words and fundamental matrices
# ---------------------------------------------------------------------------


class FormalWord:
    """Polynomial in (w, t1, t2) with rational-function coefficients.

    Keys are exponent triples (e_w, e_t1, e_t2).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out: dict[tuple[int, int, int], RatFunc] = {}
        if terms:
            for key, c in terms.items():
                if isinstance(c, (int, Fraction)):
                    c = RatFunc(c)
                if not c.is_zero:
                    out[tuple(key)] = c
        self.terms = out

    @classmethod
    def symbol(cls, name: str) -> "FormalWord":
        idx = {"w": 0, "t1": 1, "t2": 2}[name]
        key = [0, 0, 0]
        key[idx] = 1
        return cls({tuple(key): RatFunc.one()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other) -> "FormalWord":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, RatFunc.zero()) + c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return FormalWord(out)

    def __neg__(self) -> "FormalWord":
        return FormalWord({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "FormalWord":
        return self + (-other)

    def __mul__(self, other) -> "FormalWord":
        if isinstance(other, (int, Fraction, RatFunc)):
            c = other if isinstance(other, RatFunc) else RatFunc(other)
            return FormalWord({k: v * c for k, v in self.terms.items()})
        out: dict[tuple[int, int, int], RatFunc] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                s = out.get(key, RatFunc.zero()) + c1 * c2
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return FormalWord(out)

    __rmul__ = __mul__

    def differentiate(self, alpha: RatFunc, beta2: RatFunc, beta3: RatFunc) -> "FormalWord":
        """d/dx under w' = alpha*w, t1' = beta2*w, t2' = beta3*w**2."""
        out = FormalWord()
        for (ew, e1, e2), c in self.terms.items():
            base = {(ew, e1, e2): c.derivative()}
            out = out + FormalWord(base)
            if ew:
                out = out + FormalWord({(ew, e1, e2): c * alpha * ew})
            if e1:
                out = out + FormalWord({(ew + 1, e1 - 1, e2): c * beta2 * e1})
            if e2:
                out = out + FormalWord({(ew + 2, e1, e2 - 1): c * beta3 * e2})
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalWord):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "FormalWord(0)"
        names = ("w", "t1", "t2")
        parts = []
        for key in sorted(self.terms):
            factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(key) if e]
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({self.terms[key].to_str()})*{mono}")
        return "FormalWord(" + " + ".join(parts) + ")"


def fundamental_matrix(k: int) -> tuple[tuple[FormalWord, ...], ...]:
    """Closed-form fundamental matrix of the linearised system, k in {2, 3}."""
    if k not in (2, 3):
        raise ValueError("fundamental matrices are only built for orders 2 and 3")
    w = FormalWord.symbol("w")
    t1 = FormalWord.symbol("t1")
    t2 = FormalWord.symbol("t2")
    zero = FormalWord()
    if k == 2:
        return (
            (w * w, zero),
            (w * t1, w),
        )
    return (
        (w * w * w, zero, zero),
        (w * w * t1, w * w, zero),
        (w * t1 * t1 * Fraction(3, 2) + w * t2, w * t1 * 3, w),
    )


def matrix_satisfies_lve(
    phi: Sequence[Sequence[FormalWord]],
    system: Sequence[Sequence[RatFunc]],
    alpha: RatFunc,
    beta2: RatFunc,
    beta3: RatFunc,
) -> bool:
    """Check phi' = system * phi entrywise under the rewrite rules."""
    size = len(phi)
    for i in range(size):
        for j in range(size):
            lhs = phi[i][j].differentiate(alpha, beta2, beta3)
            rhs = FormalWord()
            for ell in range(size):
                rhs = rhs + phi[ell][j] * system[i][ell]
            if lhs != rhs:
                return False
    return True


def verify_fundamental_matrix(
    k: int, alpha: RatFunc, beta2: RatFunc, beta3: RatFunc | None = None
) -> bool:
    """True iff the closed-form fundamental matrix solves the order-k system
    for the given coefficient functions; the identity is formal, so this
    holds for every rational choice."""
    if k == 2:
        betas = [alpha, beta2]
        b3 = RatFunc.zero()
    elif k == 3:
        if beta3 is None:
            raise ValueError("order 3 needs beta3")
        betas = [alpha, beta2, beta3]
        b3 = beta3
    else:
        raise ValueError("only orders 2 and 3 are supported")
    phi = fundamental_matrix(k)
    system = lve_matrix(k, betas)
    return matrix_satisfies_lve(phi, system, alpha, beta2, b3)


# ---------------------------------------------------------------------------
# homogeneous parts and the chart change
# ---------------------------------------------------------------------------


def homogeneous_parts(p: BivarPoly) -> list[BivarPoly]:
    """Split into homogeneous parts, indexed by degree; empty for zero."""
    if p.is_zero:
        return []
    parts: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(p.total_degree + 1)]
    for (i, j), c in p.terms.items():
        parts[i + j][(i, j)] = c
    return [BivarPoly(d) for d in parts]


def projective_clear(p: BivarPoly, n: int) -> BivarPoly:
    """z1**n * p(z2/z1, 1/z1) as a polynomial in (z1, z2).

    Requires n >= total degree; term x**i y**j maps to z1**(n-i-j) z2**i.
    """
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in p.terms.items():
        e = n - i - j
        if e < 0:
            raise ValueError("clearing exponent below total degree")
        out[(e, i)] = c
    return BivarPoly(out)


def fields_equivalent(a: PlanarField, b: PlanarField) -> bool:
    """Same foliation: Q_a * P_b - Q_b * P_a = 0."""
    return (a.q * b.p - b.q * a.p).is_zero


def lve2_coefficients_from_parts(field: PlanarField) -> tuple[RatFunc, RatFunc]:
    """Second-order variational coefficients read from the homogeneous parts
    of a pre-transform field:

        alpha = P_N(1,x) / (x*P_N(1,x) - Q_N(1,x))
        beta  = 2*(P_N*Q_{N-1} - P_{N-1}*Q_N)(1,x) / (x*P_N(1,x) - Q_N(1,x))**2
    """
    n = field.degree
    pn = _part_at_one(field.p, n)
    qn = _part_at_one(field.q, n)
    pn1 = _part_at_one(field.p, n - 1) if n >= 1 else Poly.zero()
    qn1 = _part_at_one(field.q, n - 1) if n >= 1 else Poly.zero()
    den = pn.shift(1) - qn
    if den.is_zero:
        raise InputError("x*P_N(1,x) - Q_N(1,x) vanishes identically")
    alpha = RatFunc(pn, den)
    beta = RatFunc(2 * (pn * qn1 - pn1 * qn), den * den)
    return alpha, beta


# ---------------------------------------------------------------------------
# residue normalisation
# ---------------------------------------------------------------------------


class NonIntegerResidueError(ValueError):
    """Residue normalisation requires every residue to be an integer."""

    def __init__(self, message: str, residue: Fraction | None = None):
        super().__init__(message)
        self.residue = residue


def residue_normalize(eq: RischEquation) -> tuple[RischEquation, RatFunc]:
    """Strip the integer-residue simple poles of the coefficient a.

    Returns the transformed equation, at order 2 so that its coefficient is
    the new a, and the multiplier u = prod q**residue; h solves the original
    equation iff h*u solves the normalised one.
    """
    rep = residues(eq.a)
    if not rep.all_integer:
        for _, c in rep.per_factor:
            if c.denominator != 1:
                raise NonIntegerResidueError(
                    f"residue {c} is not an integer", residue=c
                )
        raise NonIntegerResidueError(
            "residue polynomial does not split over Q with integer roots"
        )
    a_new = eq.a
    u = RatFunc.one()
    for q, c in rep.per_factor:
        ell = int(c)
        a_new = a_new - ell * RatFunc(q.derivative(), q)
        u = u * RatFunc(q) ** ell
    return RischEquation(a_new, eq.b * u), u


# ---------------------------------------------------------------------------
# numerator degree at infinity
# ---------------------------------------------------------------------------


def degree_bound_at_infinity(a: RatFunc, b: RatFunc, den: Poly) -> int:
    """Bound on deg N over the solutions y = N/den of y' + a*y = b, from
    matching degrees at infinity: deg den + max(0, db + 1, db - da, -lam),
    with da and db the degrees at infinity (deg num - deg den) of a and b and
    lam = lc(num a), den a being monic.  A term in db is left out when b = 0,
    where 0 is the particular solution, and a term in da when a = 0.  The
    recurrence's cap is never above this bound (``risch``'s module
    docstring), so it sizes the elimination the recurrence is checked
    against, which then searches degrees the recurrence never visits."""
    candidates = [0]
    db = b.num.degree - b.den.degree
    if not b.is_zero:
        candidates.append(db + 1)
    if not a.is_zero:
        da = a.num.degree - a.den.degree
        if da >= 0 and not b.is_zero:
            candidates.append(db - da)
        lam = a.num.lc
        if da == -1 and lam.denominator == 1 and lam < 0:
            candidates.append(-int(lam))
    return den.degree + max(candidates)


# ---------------------------------------------------------------------------
# coprime refinement
# ---------------------------------------------------------------------------


def coprime_refinement(polys: Sequence[Poly]) -> list[Poly]:
    """Pairwise-coprime monic basis refining a family of squarefree polys.

    Every input is a product of basis elements; used to localise pole
    analysis without factoring over Q.
    """
    pending = [p.monic() for p in polys if p.degree > 0]
    basis: list[Poly] = []
    while pending:
        p = pending.pop()
        if p.degree == 0:
            continue
        placed = True
        for i, q in enumerate(basis):
            g = poly_gcd(p, q)
            if g.degree == 0:
                continue
            basis.pop(i)
            for part in (g, q.divexact(g)):
                if part.degree > 0:
                    basis.append(part)
            rem = p.divexact(g)
            if rem.degree > 0:
                pending.append(rem)
            placed = False
            break
        if placed:
            basis.append(p)
    # sorted by (degree, coeffs) without building a Fraction: each element is
    # monic, so coefficient val + i is ints[i]/ints[-1], those below val are
    # 0, and times a common multiple of the leads each is an integer
    scale = lcm(*(f.ints[-1] for f in basis))
    basis.sort(
        key=lambda f: (f.degree, [0] * f.val + [c * (scale // f.ints[-1]) for c in f.ints])
    )
    return basis


# ---------------------------------------------------------------------------
# Resultants: the Sylvester determinant and Euclid's remainder sequence
# ---------------------------------------------------------------------------


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): after step k every entry below row k is a minor of order
    k + 1, so each division by the previous pivot is exact; a row swap
    flips the sign."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            m[i] = [(m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev for j in range(n)]
        prev = m[k][k]
    return sign * prev


def sylvester_resultant(a: Poly, b: Poly) -> Fraction:
    """lc(a)**deg(b) * prod of b over the roots of a, as the determinant of
    the Sylvester matrix of a and b (checked against
    ``algebra._resultant_std``).  The determinant is linear in each row, so
    the rows hold the primitive integer coefficients and the contents are
    taken out."""
    if a.is_zero:
        raise ValueError("resultant of the zero polynomial")
    if b.is_zero:
        return Fraction(0) if a.degree > 0 else Fraction(1)
    m, n = a.degree, b.degree
    size = m + n
    acs = list(reversed((0,) * a.val + a.ints))
    bcs = list(reversed((0,) * b.val + b.ints))
    rows = [[0] * r + acs + [0] * (size - m - 1 - r) for r in range(n)]
    rows += [[0] * r + bcs + [0] * (size - n - 1 - r) for r in range(m)]
    return Fraction(a.cn**n * b.cn**m * bareiss_det(rows), a.cd**n * b.cd**m)


def euclid_resultant(a: Poly, b: Poly) -> Fraction:
    """lc(a)**deg(b) * prod of b over the roots of a, by Euclid's remainder
    sequence (checked against ``algebra._resultant_std``, which runs
    Collins' subresultant sequence): for b of positive degree and
    r = a mod b, res(a, b) is 0 when r vanishes and otherwise
    (-1)**(deg a * deg b) * lc(b)**(deg a - deg r) * res(b, r); for a
    nonzero constant c, res(a, c) = c**deg(a).  Each term is a content
    pair times a primitive int vector: with scale*u = quo*w + r from
    ``_pseudo_divmod``, a mod b is content(a)*(g/scale)*(r/g), g = cont(r),
    and the powers of lc(b) are multiplied into one num/den."""
    if a.is_zero:
        raise ValueError("resultant of the zero polynomial")
    if b.is_zero:
        return Fraction(0) if a.degree > 0 else Fraction(1)
    num = den = 1
    m, n = a.degree, b.degree
    u, (ucn, ucd) = (0,) * a.val + a.ints, (a.cn, a.cd)
    w, (wcn, wcd) = (0,) * b.val + b.ints, (b.cn, b.cd)
    while n:
        _, r, scale = _pseudo_divmod(u, w)
        while r and not r[-1]:
            r.pop()
        if not r:
            return Fraction(0)
        if m & n & 1:
            num = -num
        e = m - len(r) + 1
        num *= (wcn * w[-1]) ** e
        den *= wcd**e
        g = gcd(*r)
        rcn, rcd = _pair_mul(ucn, ucd, *_ratio(g, scale))
        u, ucn, ucd = w, wcn, wcd
        w, wcn, wcd = [v // g for v in r], rcn, rcd
        m, n = n, len(w) - 1
    return Fraction(num * (wcn * w[0]) ** m, den * wcd**m)


# ---------------------------------------------------------------------------
# Residues with no shortcut
# ---------------------------------------------------------------------------


def newton_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """The polynomial through exact points at distinct nodes, by Newton's
    divided differences on ``Fraction``s (checked against
    ``algebra._interpolate``, which runs on ints at the nodes 0..n-1)."""
    n = len(points)
    xs = [pt[0] for pt in points]
    dd = [pt[1] for pt in points]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    poly = Poly([dd[n - 1]])
    for i in range(n - 2, -1, -1):
        poly = poly * Poly([-xs[i], 1]) + Poly([dd[i]])
    return poly


def rothstein_trager_report(r: RatFunc) -> ResidueReport:
    """The residue report of r by Rothstein-Trager on every input (checked
    against ``algebra.residues``, which reads the report off at once when
    every residue is equal): R(t) = res(D, N - t*D') for the simple-pole
    part N/D, from Sylvester determinants at t = 0..deg D and
    ``newton_interpolate``; each rational root c of R gets the factor
    gcd(D, N - c*D')."""
    split = tuple(squarefree_decompose(r.den)) if r.den.degree > 0 else ()
    g = hermite_reduce(r, split)
    if g.is_zero:
        return ResidueReport((), True, split)
    num, den = g.num, g.den
    dden = den.derivative()
    dd = den.degree
    pts = [(Fraction(t), sylvester_resultant(den, num - t * dden)) for t in range(dd + 1)]
    rroots = rational_roots(newton_interpolate(pts))
    per = tuple((poly_gcd(den, num - c * dden), c) for c in sorted(set(rroots)))
    integer_roots = sum(1 for c in rroots if c.denominator == 1)
    return ResidueReport(per, integer_roots == dd, split)


# ---------------------------------------------------------------------------
# Euclid on the kernel's remainder
# ---------------------------------------------------------------------------


def divmod_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by Euclid on ``Poly.__mod__``, which forms each quotient
    and reduces each remainder's rational content (checked against
    ``algebra.poly_gcd``, which keeps only primitive pseudo-remainders)."""
    if p.degree < q.degree:
        p, q = q, p
    if q.is_zero:
        return p.monic()
    while q.degree > 0:
        p, q = q, p % q
    return p.monic() if q.is_zero else Poly.one()


def gf_mod(a: list[int], b: list[int], q: int) -> list[int]:
    """a mod b over GF(q), for residue vectors with b's last entry nonzero:
    long division by the inverse of lc(b), every entry reduced mod q."""
    a = a[:]
    inv = pow(b[-1], -1, q)
    while len(a) >= len(b):
        factor = a[-1] * inv % q
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % q
        while a and a[-1] == 0:
            a.pop()
    return a


def gf_gcd_degree(a: list[int], b: list[int], q: int) -> int:
    """Degree of gcd(a, b) over GF(q) by Euclid on ``gf_mod`` (checked
    against ``algebra._gf_gcd_degree``, which divides on ints)."""
    a, b = [v % q for v in a], [v % q for v in b]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, gf_mod(a, b, q)
    return len(a) - 1


# ---------------------------------------------------------------------------
# Fractions read off the kernel's ints, and arithmetic on Fraction lists
# ---------------------------------------------------------------------------


def coeffs(p: Poly) -> tuple[Fraction, ...]:
    """The coefficients of p as Fractions, lowest degree first: val(p)
    zeros, then one per entry of ints."""
    return (Fraction(0),) * p.val + tuple(Fraction(p.cn * v, p.cd) for v in p.ints)


def trim(cs: Sequence) -> list:
    """cs without its trailing zeros."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def padded(a: list, b: list) -> list:
    """The pairs (a[i], b[i]), the shorter list padded with zeros."""
    n = max(len(a), len(b))
    return list(zip(a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))))


def fraction_product(a: list, b: list) -> list:
    """Every pair of nonzero coefficients."""
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def fraction_power(a: list, n: int) -> list:
    out = [Fraction(1)]
    for _ in range(n):
        out = fraction_product(out, a)
    return out


def fraction_divmod(a: list, b: list) -> tuple[list, list]:
    """Schoolbook long division over Q (b trimmed and nonzero)."""
    rem = trim(a)
    quo = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        f = rem[-1] / b[-1]
        quo[k] = f
        for i, c in enumerate(b):
            if c:
                rem[k + i] -= f * c
        rem = trim(rem)
    return quo, rem


def fraction_gcd(a: list, b: list) -> list:
    """Monic gcd by Euclid on ``fraction_divmod`` (zero for two zeros)."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def fraction_to_str(cs: list, var: str = "x") -> str:
    """The rendering through one Fraction per coefficient."""
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            v = var if i == 1 else f"{var}^{i}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) or "0"


def specialized_columns_system(
    inst: KaltofenInstance,
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The power-pole system of ``risch._specialized_system`` built from the
    column polynomials (i-k)*x**(i+k-1) + alpha_num*x**i for y_1..y_cap and
    the right side 2*k*x**(k-1) + 2*x**k*beta_shift, one ``Fraction`` per
    cell, up to the highest degree a column or the right side reaches."""
    k = inst.pole_order
    columns = [
        Poly.monomial(i + k - 1, i - k) + inst.alpha_num.shift(i)
        for i in range(1, inst.degree_cap + 1)
    ]
    rhs = Poly.monomial(k - 1, 2 * k)
    if inst.beta_shift is not None:
        rhs = rhs + 2 * inst.beta_shift.shift(k)
    top = max([rhs.degree] + [c.degree for c in columns])
    rows = [[c.coeff(d) for c in columns] for d in range(top + 1)]
    return rows, [rhs.coeff(d) for d in range(top + 1)]


def specialized_by_columns(inst: KaltofenInstance) -> RischOutcome:
    """``risch.solve_xk_specialized`` on ``specialized_columns_system``: a
    degree mismatch when the rows up to deg(rhs) alone are solvable."""
    rows, vec = specialized_columns_system(inst)
    ncols = inst.degree_cap
    sol = solve_linear_system(rows, vec, ncols)
    if sol is None:
        top = max(d for d, v in enumerate(vec) if v)  # deg(rhs)
        reason = REASON_INCONSISTENT
        if solve_linear_system(rows[: top + 1], vec[: top + 1], ncols) is not None:
            reason = REASON_DEGREE_MISMATCH
        return RischOutcome(None, "specialized", case=inst.case, reason=reason)
    solution = RatFunc(Poly([Fraction(2)] + sol), Poly.monomial(inst.pole_order))
    assert verify_solution(inst.equation(), solution)
    return RischOutcome(solution, "specialized", case=inst.case)


def kaltofen_case_by_gap(inst: KaltofenInstance) -> str:
    """The power-pole case label from the gap k - lc(alpha_num), taken as a
    ``Fraction`` (checked against ``KaltofenInstance.case``, which reads
    ``rho``)."""
    k = inst.pole_order
    if inst.alpha_num.degree < k - 1:
        return "1"
    a_n = inst.alpha_num.lc
    gap_positive = a_n.denominator == 1 and (k - a_n) >= 1
    m = inst.beta_shift.degree if inst.beta_shift is not None else None
    if not gap_positive:
        return "2a" if (m is None or m == 0) else "2b"
    if m is not None and m >= int(k - a_n):
        return "2c"
    return "2d"


def bivar_terms_str(p: BivarPoly, variables: tuple[str, str] = ("x", "y")) -> str:
    """``BivarPoly.to_str`` from the ``(i, j) -> Fraction`` terms, in the
    graded order (-(i+j), -i, -j), each coefficient printed from its own
    Fraction."""
    terms = p.terms
    if not terms:
        return "0"
    vx, vy = variables
    parts: list[str] = []
    for i, j in sorted(terms, key=lambda k: (-(k[0] + k[1]), -k[0], -k[1])):
        c = terms[(i, j)]
        mag = str(abs(c.numerator)) if c.denominator == 1 else f"{abs(c.numerator)}/{c.denominator}"
        factors = []
        if i:
            factors.append(vx if i == 1 else f"{vx}^{i}")
        if j:
            factors.append(vy if j == 1 else f"{vy}^{j}")
        if not factors:
            body = mag
        else:
            body = "*".join(factors)
            if mag != "1":
                body = f"{mag}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)
