"""Exact univariate arithmetic over the rationals.

Dense polynomials, reduced rational functions, and the classical reduction
algorithms (GCD, squarefree split, Sylvester resultants, Hermite reduction,
Rothstein-Trager residue extraction) that every layer above consumes.

Representation notes:

  * coefficients are ``fractions.Fraction`` (exact, arbitrary precision);
  * ``Poly`` stores a dense coefficient tuple, lowest degree first, with no
    trailing zeros; the zero polynomial is the empty tuple and has degree -1;
  * ``RatFunc`` keeps numerator and denominator coprime with a monic
    denominator, so structural equality is mathematical equality.

All values are immutable; every operation returns a fresh value, which makes
everything here safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Poly:
    """Univariate polynomial over Q, dense, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, deg: int, c=1) -> "Poly":
        if deg < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((0,) * deg + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return Poly()
            return Poly(tuple(c * v for v in self.coeffs))
        other = _poly(other)
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        # sparse operands such as the power-of-x candidate denominators are
        # common: skip the zero coefficients of both
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in right:
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        other = _poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q: list[Fraction] = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        dlc = other.lc
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            factor = rem[-1] / dlc
            q[k] = factor
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def divexact(self, other) -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(tuple(c * i for i, c in enumerate(self.coeffs) if i))

    def antiderivative(self) -> "Poly":
        return Poly((0,) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def eval(self, v) -> Fraction:
        v = _as_fraction(v)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero:
            return Poly()
        return Poly((0,) * k + self.coeffs)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self * (1 / self.lc)

    # -- misc ----------------------------------------------------------------

    def is_power_of_x(self) -> int | None:
        """Degree k when the polynomial is exactly x**k (monic), else None."""
        if self.is_zero or self.lc != 1:
            return None
        if any(c != 0 for c in self.coeffs[:-1]):
            return None
        return self.degree

    def to_str(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
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
        return "".join(parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.to_str()})"


def _poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Poly")


# ---------------------------------------------------------------------------
# gcd family
# ---------------------------------------------------------------------------


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) = monic(p), gcd(0, 0) = 0."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def extended_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, s, t) with s*p + t*q = g and g the monic gcd."""
    r0, r1 = p, q
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    if r0.is_zero:
        return r0, s0, t0
    scale = 1 / r0.lc
    return r0 * scale, s0 * scale, t0 * scale


def squarefree_decompose(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lc * prod q_i**m_i with q_i monic squarefree,
    pairwise coprime, and the multiplicities m_i strictly increasing."""
    if p.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    f = p.monic()
    if f.degree == 0:
        return []
    df = f.derivative()
    g = poly_gcd(f, df)
    if g.degree == 0:
        return [(f, 1)]
    out: list[tuple[Poly, int]] = []
    c = f.divexact(g)
    d = df.divexact(g) - c.derivative()
    i = 1
    while c.degree > 0:
        h = poly_gcd(c, d)
        if h.degree > 0:
            out.append((h, i))
        c = c.divexact(h)
        d = d.divexact(h) - c.derivative()
        i += 1
    return out


def multiplicity(factor: Poly, p: Poly) -> int:
    """Largest m with factor**m dividing p (0 when factor does not divide)."""
    if factor.degree < 1:
        raise ValueError("multiplicity requires a nonconstant factor")
    count = 0
    work = p
    while not work.is_zero and work.degree >= factor.degree:
        quo, rem = divmod(work, factor)
        if not rem.is_zero:
            break
        work = quo
        count += 1
    return count


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
    basis.sort(key=lambda f: (f.degree, f.coeffs))
    return basis


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def _resultant_std(a: Poly, b: Poly) -> Fraction:
    """lc(a)**deg(b) * prod of b over the roots of a (Sylvester determinant)."""
    if a.is_zero:
        raise ValueError("resultant of the zero polynomial")
    if b.is_zero:
        return Fraction(0) if a.degree > 0 else Fraction(1)
    m, n = a.degree, b.degree
    size = m + n
    if size == 0:
        return Fraction(1)
    acs = list(reversed(a.coeffs))
    bcs = list(reversed(b.coeffs))
    rows = []
    for r in range(n):
        rows.append([Fraction(0)] * r + acs + [Fraction(0)] * (size - m - 1 - r))
    for r in range(m):
        rows.append([Fraction(0)] * r + bcs + [Fraction(0)] * (size - n - 1 - r))
    return _det(rows)


def resultant(p: Poly, q: Poly) -> Fraction:
    """Sylvester resultant, with the q-block on top of the matrix.

    Fixed convention so that examples are bit-exact:
    resultant(p, q) = lc(q)**deg(p) * prod of p over the roots of q.
    In particular resultant(x - 1, x - 2) = 1 and resultant(x - 3, 2) = 2.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant requires nonzero polynomials")
    return _resultant_std(q, p)


def _interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Newton interpolation through exact points."""
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


# ---------------------------------------------------------------------------
# rational root finding (modular, factorisation-free)
# ---------------------------------------------------------------------------
#
# Candidates are found as roots of the squarefree part modulo a good prime,
# Hensel-lifted, and rationally reconstructed against the rational-root
# bounds (numerators divide the trailing coefficient, denominators the
# leading one); every candidate is verified exactly before acceptance.
# This avoids enumerating divisors, which blows up on highly composite
# coefficients.


def _is_small_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _gf_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _gf_mod(a: list[int], b: list[int], q: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], -1, q)
    while len(a) >= len(b):
        factor = a[-1] * inv % q
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % q
        _gf_trim(a)
        if not a:
            break
    return a


def _gf_gcd_degree(a: list[int], b: list[int], q: int) -> int:
    a, b = _gf_trim(a[:]), _gf_trim(b[:])
    while b:
        a, b = b, _gf_mod(a, b, q)
    return len(a) - 1


def _rational_reconstruct(residue: int, modulus: int, num_bound: int, den_bound: int):
    """n/d with n = residue*d mod modulus, |n| <= num_bound, 0 < d <= den_bound."""
    r0, r1 = modulus, residue % modulus
    t0, t1 = 0, 1
    while r1 > num_bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    if t1 == 0:
        return None
    n, d = (r1, t1) if t1 > 0 else (-r1, -t1)
    if d > den_bound:
        return None
    return Fraction(n, d)


def _candidate_rational_roots(ints: list[int]) -> set[Fraction]:
    """Verified rational roots (without multiplicity) of a primitive integer
    polynomial with nonzero trailing coefficient."""
    from math import gcd as igcd

    poly = Poly(ints)
    square = poly.divexact(poly_gcd(poly, poly.derivative()))
    denom = 1
    for c in square.coeffs:
        denom = denom * c.denominator // igcd(denom, c.denominator)
    s_ints = [int(c * denom) for c in square.coeffs]
    content = 0
    for v in s_ints:
        content = igcd(content, abs(v))
    s_ints = [v // content for v in s_ints]
    num_bound = abs(s_ints[0])
    den_bound = abs(s_ints[-1])
    deriv = [c * i for i, c in enumerate(s_ints)][1:]
    if len(s_ints) == 2:  # linear: read the root off directly
        root = Fraction(-s_ints[0], s_ints[1])
        return {root}
    prime = 2
    while True:
        prime += 1
        if not _is_small_prime(prime):
            continue
        if s_ints[-1] % prime == 0:
            continue
        if _gf_gcd_degree([c % prime for c in s_ints], [c % prime for c in deriv], prime) != 0:
            continue  # not squarefree modulo this prime
        break

    def eval_mod(cs: list[int], at: int, modulus: int) -> int:
        acc = 0
        for c in reversed(cs):
            acc = (acc * at + c) % modulus
        return acc

    mod_roots = [r for r in range(prime) if eval_mod(s_ints, r, prime) == 0]
    target = 2 * num_bound * den_bound + 1
    found: set[Fraction] = set()
    for root in mod_roots:
        modulus = prime
        lifted = root
        while modulus < target:
            modulus = modulus * modulus
            inv = pow(eval_mod(deriv, lifted, modulus), -1, modulus)
            lifted = (lifted - eval_mod(s_ints, lifted, modulus) * inv) % modulus
        candidate = _rational_reconstruct(lifted, modulus, num_bound, den_bound)
        if candidate is not None and square.eval(candidate) == 0:
            found.add(candidate)
    return found


def rational_roots(p: Poly) -> tuple[Fraction, ...]:
    """All rational roots with multiplicity.

    Numerators divide the trailing integer coefficient and denominators the
    leading one; the roots themselves are located modularly and verified
    exactly, so large composite coefficients cost nothing extra.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every root")
    roots: list[Fraction] = []
    k = 0
    while p.coeff(k) == 0:
        k += 1
    roots.extend([Fraction(0)] * k)
    work = Poly(p.coeffs[k:])
    if work.degree == 0:
        return tuple(sorted(roots))
    from math import gcd as igcd

    denom = 1
    for c in work.coeffs:
        denom = denom * c.denominator // igcd(denom, c.denominator)
    ints = [int(c * denom) for c in work.coeffs]
    content = 0
    for v in ints:
        content = igcd(content, abs(v))
    ints = [v // content for v in ints]
    for cand in sorted(_candidate_rational_roots(ints)):
        while work.degree >= 1 and work.eval(cand) == 0:
            work = work.divexact(Poly([-cand, 1]))
            roots.append(cand)
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Reduced rational function over Q: coprime num/den, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _poly(num)
        den = _poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = Poly.zero(), Poly.one()
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divexact(g)
            den = den.divexact(g)
        scale = 1 / den.lc
        self.num = num * scale
        self.den = den * scale

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(1)

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(Poly.x())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def degree_at_infinity(self) -> int:
        """deg(num) - deg(den): growth order at infinity (zero input -> raises)."""
        if self.is_zero:
            raise ValueError("zero function has no degree at infinity")
        return self.num.degree - self.den.degree

    def __add__(self, other) -> "RatFunc":
        other = _ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other) -> "RatFunc":
        return self + (-_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return _ratfunc(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _ratfunc(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return _ratfunc(other) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def split_polynomial_part(self) -> tuple[Poly, "RatFunc"]:
        """(q, r) with self = q + r, r strictly proper."""
        q, rem = divmod(self.num, self.den)
        return q, RatFunc(rem, self.den)

    def eval(self, v) -> Fraction:
        d = self.den.eval(v)
        if d == 0:
            raise ZeroDivisionError(f"pole at {v}")
        return self.num.eval(v) / d

    def to_str(self, var: str = "x") -> str:
        if self.den == Poly.one():
            return self.num.to_str(var)
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.to_str()})"


def _ratfunc(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction, Poly)):
        return RatFunc(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to RatFunc")


# ---------------------------------------------------------------------------
# Hermite reduction and residues
# ---------------------------------------------------------------------------


def hermite_reduce(r: RatFunc) -> tuple[RatFunc, RatFunc]:
    """Split r = h' + g where g has only simple poles and a squarefree
    denominator.  The polynomial part of r is absorbed into h, so the
    residues of r are exactly the residues of g."""
    poly_part, frac = r.split_polynomial_part()
    h = RatFunc(poly_part.antiderivative())
    while True:
        if frac.is_zero:
            break
        dec = squarefree_decompose(frac.den)
        if not dec or dec[-1][1] == 1:
            break
        v, m = dec[-1]
        u = frac.den.divexact(v**m)
        g1, s0, _ = extended_gcd(u * v.derivative(), v)
        assert g1 == Poly.one()
        s = (frac.num * s0) % v
        t = (frac.num - s * u * v.derivative()).divexact(v)
        h = h + RatFunc(-s, (m - 1) * v ** (m - 1))
        frac = RatFunc(t * (m - 1) + u * s.derivative(), (m - 1) * (u * v ** (m - 1)))
    return h, frac


@dataclass(frozen=True)
class ResidueReport:
    """Residue data of a rational function at its finite poles.

    simple_part   pure simple-pole part left by Hermite reduction
    residue_poly  Rothstein-Trager resultant in the residue variable; its
                  roots are exactly the residues at the poles
    per_factor    (squarefree factor of den(simple_part), residue) pairs for
                  each rational residue value; conjugate poles sharing a
                  rational residue are collected into one factor
    all_integer   True iff residue_poly splits over Q with integer roots
    """

    simple_part: RatFunc
    residue_poly: Poly
    per_factor: tuple[tuple[Poly, Fraction], ...]
    all_integer: bool


def residues(r: RatFunc) -> ResidueReport:
    """Rothstein-Trager residue computation (after Hermite reduction)."""
    _, g = hermite_reduce(r)
    if g.is_zero or g.den.degree == 0:
        return ResidueReport(g, Poly.one(), (), True)
    num, den = g.num, g.den
    dden = den.derivative()
    dd = den.degree
    pts = []
    for i in range(dd + 1):
        t0 = Fraction(i)
        pts.append((t0, _resultant_std(den, num - t0 * dden)))
    rpoly = _interpolate(pts)
    assert rpoly.degree == dd
    rroots = rational_roots(rpoly)
    per: list[tuple[Poly, Fraction]] = []
    int_count = 0
    for c in sorted(set(rroots)):
        q = poly_gcd(den, num - c * dden)
        assert q.degree == rroots.count(c)
        per.append((q, c))
        if c.denominator == 1:
            int_count += rroots.count(c)
    return ResidueReport(g, rpoly, tuple(per), int_count == dd)
