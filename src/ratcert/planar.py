"""Planar polynomial vector fields over Q.

A bivariate polynomial is stored by rows: ``BivarPoly.rows`` maps each power
j of the second variable to its coefficient, a nonzero ``algebra.Poly`` in
the first variable.  Products and sums therefore run on the integer kernel
of ``algebra`` (int convolutions times one rational content per row); the
``(i, j) -> Fraction`` view ``BivarPoly.terms`` is built on access.  The two
variables are positional: a field (p, q) read in the finite chart uses
(x, y), a field about to be pushed through the infinity chart uses (z1, z2).
Names only matter when parsing or printing.

This module carries the chart change that moves the line at infinity to
y = 0, invariant-curve verification, the extraction of the variational
coefficients along a curve y = phi(x), and the Darboux-type first-integral
check X(R) + R*X(S) = 0.

The variational coefficients come from one Taylor series.  With phi = n/d
and D the degree of the field in y, the polynomials

    F_m = d**D * [eta**m] F(x, n/d + eta)
        = sum_{j >= m} C(j, m) * F_j(x) * n**(j-m) * d**(D-j+m)

(F = P, Q; F_j the rows) give Q(x, phi+eta)/P(x, phi+eta) = sum s_j*eta**j
with s_j = N_j / P_0**(j+1), where

    N_j = Q_j*P_0**j - sum_{i=1..j} P_i*N_{j-i}*P_0**(i-1),

and beta_j, the j-th y-derivative of Q/P on the curve, is j!*s_j.  The
invariance test is the m = 0 case on cleared denominators:
Q(x, phi) = phi' * P(x, phi) exactly when Q_0*d**2 = (n'*d - n*d')*P_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Mapping, Sequence

from .algebra import Poly, RatFunc, _from_ints, _inverse_lc, _power_str, _terms_str, _times


class InputError(ValueError):
    """Input refused on purpose: a malformed or oversized expression, a
    degenerate or non-invariant curve, or an option or a batch-line field
    out of range.  The command line exits 2 on it and 3 on any other
    exception, which is a fault of the program."""


class DegenerateCurveError(InputError):
    """The graph parametrisation y = phi(x) degenerates: P(x, phi(x)) = 0."""


def _from_rows(rows: dict[int, Poly]) -> "BivarPoly":
    """A BivarPoly from rows that are all nonzero."""
    out = object.__new__(BivarPoly)
    out.rows = rows
    return out


class BivarPoly:
    """Bivariate polynomial over Q, stored by rows (see the module
    docstring).  ``rows`` is read-only by contract."""

    __slots__ = ("rows",)

    def __init__(self, terms: Mapping[tuple[int, int], object] | None = None):
        grouped: dict[int, dict[int, object]] = {}
        for (i, j), c in (terms or {}).items():
            i, j = int(i), int(j)
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            grouped.setdefault(j, {})[i] = c
        rows: dict[int, Poly] = {}
        for j, cs in grouped.items():
            coeffs: list[object] = [0] * (max(cs) + 1)
            for i, c in cs.items():
                coeffs[i] = c
            row = Poly(coeffs)
            if row.ints:
                rows[j] = row
        self.rows = rows

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return _from_rows({})

    @classmethod
    def const(cls, c) -> "BivarPoly":
        row = Poly.const(c)
        return _from_rows({0: row} if row.ints else {})

    @classmethod
    def var(cls, index: int) -> "BivarPoly":
        if index == 0:
            return _from_rows({0: Poly.x()})
        if index == 1:
            return _from_rows({1: Poly.one()})
        raise ValueError("variable index must be 0 or 1")

    # -- queries -------------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero coefficients keyed by (power of first, power of
        second), built on access."""
        out: dict[tuple[int, int], Fraction] = {}
        for j, row in self.rows.items():
            cn, cd = row.cn, row.cd
            for i, v in enumerate(row.ints, row.val):
                if v:
                    out[(i, j)] = Fraction(cn * v, cd)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def total_degree(self) -> int:
        return max((j + row.degree for j, row in self.rows.items()), default=-1)

    def coeff(self, i: int, j: int) -> Fraction:
        row = self.rows.get(j)
        return row.coeff(i) if row is not None else Fraction(0)

    def degree_in(self, index: int) -> int:
        if index == 1:
            return max(self.rows, default=-1)
        return max((row.degree for row in self.rows.values()), default=-1)

    # -- arithmetic ----------------------------------------------------------

    def _add(self, other: "BivarPoly", negate: bool) -> "BivarPoly":
        rows = dict(self.rows)
        for j, r in other.rows.items():
            mine = rows.get(j)
            if mine is None:
                rows[j] = -r if negate else r
                continue
            s = mine - r if negate else mine + r
            if s.ints:
                rows[j] = s
            else:
                del rows[j]
        return _from_rows(rows)

    def __add__(self, other) -> "BivarPoly":
        return self._add(_bivar(other), False)

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        return _from_rows({j: -r for j, r in self.rows.items()})

    def __sub__(self, other) -> "BivarPoly":
        return self._add(_bivar(other), True)

    def __rsub__(self, other) -> "BivarPoly":
        return _bivar(other)._add(self, True)

    def __mul__(self, other) -> "BivarPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _from_rows({})
            return _from_rows({j: r * other for j, r in self.rows.items()})
        other = _bivar(other)
        out: dict[int, Poly] = {}
        for j1, r1 in self.rows.items():
            for j2, r2 in other.rows.items():
                j = j1 + j2
                prod = r1 * r2
                acc = out.get(j)
                out[j] = prod if acc is None else acc + prod
        return _from_rows({j: r for j, r in out.items() if r.ints})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivarPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return BivarPoly.const(1)
        if len(self.rows) == 1:
            # a single row, monomials such as x**7 included: one Poly power
            ((j, row),) = self.rows.items()
            return _from_rows({j * n: row**n})
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- calculus and substitution -------------------------------------------

    def diff(self, index: int) -> "BivarPoly":
        if index == 0:
            rows = {j: r.derivative() for j, r in self.rows.items() if r.degree > 0}
        else:
            rows = {j - 1: r * j for j, r in self.rows.items() if j > 0}
        return _from_rows(rows)

    def swap_vars(self) -> "BivarPoly":
        return BivarPoly({(j, i): c for (i, j), c in self.terms.items()})

    def divexact_first(self) -> "BivarPoly":
        """Exact division by the first variable."""
        if not all(r.val for r in self.rows.values()):
            raise ValueError("polynomial is not divisible by the first variable")
        return _from_rows({j: r.shift(-1) for j, r in self.rows.items()})

    def is_homogeneous(self, degree: int) -> bool:
        # row j must be a single monomial of degree degree - j
        return all(r.val == degree - j and len(r.ints) == 1 for j, r in self.rows.items())

    def to_str(self, variables: tuple[str, str] = ("x", "y")) -> str:
        # every term over the one denominator den, in the graded order
        # (-(i+j), -i, -j); the first two keys already tell terms apart
        vx, vy = variables
        den = lcm(*(row.cd for row in self.rows.values()))
        keyed = []
        for j, row in self.rows.items():
            scale = row.cn * (den // row.cd)
            for i, v in enumerate(row.ints, row.val):
                if v:
                    keyed.append((-(i + j), -i, j, scale * v))
        keyed.sort()
        terms = [
            (u, "*".join(m for m in (_power_str(vx, -ni), _power_str(vy, j)) if m))
            for _, ni, j, u in keyed
        ]
        return _terms_str(1, den, terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.const(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(frozenset(self.rows.items()))

    def __repr__(self):
        return f"BivarPoly({self.to_str()})"


def _bivar(value) -> BivarPoly:
    if isinstance(value, BivarPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BivarPoly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to BivarPoly")


def _lowered(p: BivarPoly, i: int, j: int) -> BivarPoly:
    """p / (first**i * second**j), for a monomial that divides p."""
    return _from_rows({k - j: r.shift(-i) for k, r in p.rows.items()})


class BivarRatFunc:
    """Bivariate rational function, lightly normalised.

    Full bivariate gcd reduction is deliberately avoided: common monomial
    factors are stripped and the denominator is scaled by its coefficient at
    the largest (i, j) key, while equality testing goes through
    cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _bivar(num)
        den = _bivar(den)
        if den.is_zero:
            raise ZeroDivisionError("bivariate rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = BivarPoly.zero(), BivarPoly.const(1)
            return
        rows = (*num.rows.values(), *den.rows.values())
        i_min = min(r.val for r in rows)
        j_min = min(min(num.rows), min(den.rows))
        if i_min or j_min:
            num = _lowered(num, i_min, j_min)
            den = _lowered(den, i_min, j_min)
        # the largest key (i, j): highest power of the first variable, then
        # of the second
        top = den.degree_in(0)
        lead = den.rows[max(j for j, r in den.rows.items() if r.degree == top)]
        n, d = _inverse_lc(lead)
        if n != 1 or d != 1:
            num = _from_rows({j: _times(r, n, d) for j, r in num.rows.items()})
            den = _from_rows({j: _times(r, n, d) for j, r in den.rows.items()})
        self.num = num
        self.den = den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other) -> "BivarRatFunc":
        other = _bivar_rf(other)
        return BivarRatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "BivarRatFunc":
        return BivarRatFunc(-self.num, self.den)

    def __sub__(self, other) -> "BivarRatFunc":
        return self + (-_bivar_rf(other))

    def __mul__(self, other) -> "BivarRatFunc":
        other = _bivar_rf(other)
        return BivarRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BivarRatFunc":
        other = _bivar_rf(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return BivarRatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, BivarPoly)):
            other = BivarRatFunc(other)
        if not isinstance(other, BivarRatFunc):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    def __hash__(self):
        raise TypeError("BivarRatFunc is not hashable (equality is projective)")

    def __repr__(self):
        return f"BivarRatFunc(({self.num.to_str()})/({self.den.to_str()}))"


def _bivar_rf(value) -> BivarRatFunc:
    if isinstance(value, BivarRatFunc):
        return value
    if isinstance(value, (int, Fraction, BivarPoly)):
        return BivarRatFunc(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to BivarRatFunc")


@dataclass(frozen=True)
class PlanarField:
    """Polynomial vector field p * d/dx + q * d/dy."""

    p: BivarPoly
    q: BivarPoly

    def __post_init__(self):
        if self.p.is_zero and self.q.is_zero:
            raise InputError("vector field must not be identically zero")

    @property
    def degree(self) -> int:
        return max(self.p.total_degree, self.q.total_degree)

    def apply_to(self, f: BivarPoly) -> BivarPoly:
        return self.p * f.diff(0) + self.q * f.diff(1)

    def apply_to_rational(self, f: BivarRatFunc) -> BivarRatFunc:
        return BivarRatFunc(
            self.apply_to(f.num) * f.den - f.num * self.apply_to(f.den),
            f.den * f.den,
        )

    def swap_roles(self) -> "PlanarField":
        """Interchange the two variables and the two components."""
        return PlanarField(self.q.swap_vars(), self.p.swap_vars())


def _part_at_one(p: BivarPoly, degree: int) -> Poly:
    """P_degree(1, t): the homogeneous part of the given degree with the
    first variable set to 1, as a polynomial in the second: row b's term
    of power degree - b, read off its ints and content, for each b."""
    rows = [(b, r) for b, r in p.rows.items() if 0 <= degree - b - r.val < len(r.ints)]
    den = lcm(*(r.cd for _, r in rows))
    ints = [0] * (degree + 1)
    for b, r in rows:
        ints[b] = r.cn * (den // r.cd) * r.ints[degree - b - r.val]
    return _from_ints(ints, 0, 1, den)


def infinity_transform(field: PlanarField) -> PlanarField:
    """Push a polynomial field through y = 1/z1, x = z2/z1.

    The line at infinity of the input becomes y = 0 in the output chart.
    Output components, with parts P_i, Q_i of the input and N its degree:

        p(x, y) = sum_i y**(N-i) * (x*P_i(1, x) - Q_i(1, x))
        q(x, y) = y * sum_i y**(N-i) * P_i(1, x)

    so row N-i of p is x*P_i(1, x) - Q_i(1, x) and row N-i+1 of q is
    P_i(1, x).
    """
    n = field.degree
    p_rows: dict[int, Poly] = {}
    q_rows: dict[int, Poly] = {}
    for i in range(n + 1):
        pi = _part_at_one(field.p, i)
        row = pi.shift(1) - _part_at_one(field.q, i)
        if row.ints:
            p_rows[n - i] = row
        if pi.ints:
            q_rows[n - i + 1] = pi
    return PlanarField(_from_rows(p_rows), _from_rows(q_rows))


def family_from_P(parts: Sequence[BivarPoly], n: int, k: int) -> PlanarField:
    """Field (p, q) in the pre-transform chart whose image under
    infinity_transform has foliation
    dy/dx = y*(P_1(x)*y**(n-1) + ... + P_n(x)) / (x**k - y).

    parts[i] must be homogeneous of degree i, parts[0] = 0, and every part
    divisible by the first variable.
    """
    if n < 2:
        raise ValueError("family requires degree n >= 2")
    if not 2 <= k <= n:
        raise ValueError("family requires 2 <= k <= n")
    if len(parts) != n + 1:
        raise ValueError(f"expected {n + 1} homogeneous parts, got {len(parts)}")
    for i, part in enumerate(parts):
        if not part.is_homogeneous(i) or (not part.is_zero and part.total_degree != i):
            raise ValueError(f"part {i} is not homogeneous of degree {i}")
    if not parts[0].is_zero:
        raise ValueError("part 0 must vanish")
    for i in range(1, n + 1):
        if not all(r.val for r in parts[i].rows.values()):
            raise ValueError(f"part {i} must vanish on the line z1 = 0")
    z1 = BivarPoly.var(0)
    z2 = BivarPoly.var(1)
    q_parts: list[BivarPoly] = [BivarPoly.zero()]
    for ell in range(1, n + 1):
        q = z2 * parts[ell].divexact_first()
        if ell == n - 1:
            q = q + z1 ** (n - 1)
        if ell == n:
            q = q - z1 ** (n - k) * z2**k
        q_parts.append(q)
    p_total = BivarPoly.zero()
    q_total = BivarPoly.zero()
    for part in parts:
        p_total = p_total + part
    for part in q_parts:
        q_total = q_total + part
    return PlanarField(p_total, q_total)


def _taylor_rows(f: BivarPoly, n: Poly, d: Poly, top: int, count: int) -> list[Poly]:
    """[F_0, ..., F_{count-1}] with F_m = d**top * [eta**m] f(x, n/d + eta),
    for top at least the degree of f in y (see the module docstring)."""
    npow = [Poly.one()]
    dpow = [Poly.one()]
    for _ in range(top):
        npow.append(npow[-1] * n)
        dpow.append(dpow[-1] * d)
    unit_den = d.degree == 0  # d is monic: phi is a polynomial
    out = [Poly.zero()] * count
    for j, row in f.rows.items():
        for m in range(min(j, count - 1) + 1):
            k = j - m  # the power of n
            if k and n.is_zero:
                continue
            term = row
            if k:
                term = term * npow[k] * comb(j, k)
            if not unit_den:
                term = term * dpow[top - k]
            out[m] = out[m] + term
    return out


def _y_degree(field: PlanarField) -> int:
    return max(field.p.degree_in(1), field.q.degree_in(1))


def is_invariant_curve(field: PlanarField, phi: RatFunc) -> bool:
    """Exact identity Q(x, phi) - phi' * P(x, phi) = 0, tested on cleared
    denominators as Q_0*d**2 == (n'*d - n*d')*P_0 (see the module
    docstring)."""
    n, d = phi.num, phi.den
    top = _y_degree(field)
    (p0,) = _taylor_rows(field.p, n, d, top, 1)
    if p0.is_zero:
        raise DegenerateCurveError("P vanishes identically on the curve y = phi(x)")
    (q0,) = _taylor_rows(field.q, n, d, top, 1)
    return q0 * d * d == (n.derivative() * d - n * d.derivative()) * p0


def foliation_derivatives(field: PlanarField, phi: RatFunc, count: int) -> list[RatFunc]:
    """[beta_1, ..., beta_count] with beta_j the j-th y-derivative of the
    foliation slope Q/P restricted to the curve y = phi(x), read off the
    Taylor series of Q/P in y - phi (see the module docstring): one gcd per
    beta."""
    if count < 1:
        raise ValueError("need at least one derivative")
    if not is_invariant_curve(field, phi):
        raise InputError("curve y = phi(x) is not invariant for the field")
    top = _y_degree(field)
    orders = min(count, top) + 1
    ps = _taylor_rows(field.p, phi.num, phi.den, top, orders)
    qs = _taylor_rows(field.q, phi.num, phi.den, top, orders)
    p0 = ps[0]
    p0_pows = [Poly.one(), p0]  # p0_pows[i] = P_0**i
    nums = [qs[0]]  # nums[j] = N_j
    betas: list[RatFunc] = []
    factorial = 1
    for j in range(1, count + 1):
        acc = qs[j] * p0_pows[j] if j < orders else Poly.zero()
        for i in range(1, min(j, orders - 1) + 1):
            acc = acc - ps[i] * nums[j - i] * p0_pows[i - 1]
        nums.append(acc)
        p0_pows.append(p0_pows[-1] * p0)
        factorial *= j
        betas.append(RatFunc(acc * factorial, p0_pows[j + 1]))
    return betas


def verify_darboux_integral(field: PlanarField, r: BivarRatFunc, s: BivarRatFunc) -> bool:
    """True iff X(R) + R*X(S) = 0, i.e. R*exp(S) is a first integral."""
    if r.is_zero:
        raise ValueError("R must be nonzero")
    total = field.apply_to_rational(r) + r * field.apply_to_rational(s)
    return total.is_zero
