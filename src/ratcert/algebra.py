"""Exact univariate arithmetic over the rationals.

Dense polynomials, reduced rational functions, and the classical reduction
algorithms (GCD, squarefree split, resultants by Collins' subresultant
remainder sequence, Hermite reduction, Rothstein-Trager residue extraction)
that every layer above consumes, plus the one exact linear-system routine
(``solve_linear_system``).

Representation notes:

  * ``Poly`` stores ``(cn/cd) * x**val * sum(ints[i] * x**i)``: ``ints`` is
    a tuple of Python ints, lowest degree first, with ``ints[0] != 0``, gcd
    1 and a positive last entry; the content is the int pair ``cn``/``cd``
    in lowest terms with ``cd > 0``, carrying the sign and the scale.  Zero
    is ``()`` with ``val`` 0 and content 0/1, and has degree -1.  The form
    is canonical, so structural equality and hashing are mathematical
    equality.  A power of x, as in P(x, 0) = x**k, is one int.
  * Arithmetic runs on ints only: a product adds the ``val``s and convolves
    the ``ints`` (so by c*x**k it copies nothing), times the product of the
    two contents, taken with cross gcds (a product of primitive polynomials
    is primitive, by Gauss's lemma, so it needs no further gcd); a sum
    aligns the ``val``s, brings the two contents to a common denominator
    and takes one gcd.  Every division is the one pseudo-division loop on
    int vectors, ``_pseudo_divmod``, which scales only where a leading
    entry is not a multiple of the divisor's: ``divmod`` applies the two
    contents to its quotient and remainder; ``divexact`` divides the
    ``ints`` alone; the gcd modulo a prime of the rational-root search
    reduces each remainder mod p.  A
    ``fractions.Fraction`` is built only where a rational leaves the
    kernel: ``coeff``, ``lc``, ``eval``, resultants, roots and residues.
  * Printing runs on ints too: ``Poly.to_str`` and ``planar.BivarPoly``'s
    printer pass their int coefficients and one content n/d to
    ``_terms_str``, the one term printer, which reduces each n*u/d by
    gcd(u, d) alone.
  * ``RatFunc`` keeps numerator and denominator coprime with a monic
    denominator, so structural equality is mathematical equality.  A
    product with (or a quotient by) a nonzero rational keeps both
    properties, so it scales the numerator and takes no gcd.
  * ``squarefree_decompose`` runs Yun's algorithm on p/x**val(p) and puts
    x into the entry of multiplicity val(p).  Yun's loop exits early.  At
    step i, with c the product of the factors q_j (j >= i) still to be
    found, Yun's d is sum_{j>=i} (j-i)*q_j'*prod_{l!=j} q_l.  So d = s*c'
    for a rational s exactly when every factor left in c has multiplicity
    i + s (reduce modulo each q_j), and then (c, i + s) is the last entry
    the full loop would give.  On a high power such as (x - 1)**40 the
    loop ends at its first step instead of after forty.
  * ``hermite_reduce`` lowers the pole at x = 0, the paper's, by one
    truncated power-series division on ints, and each other multiple factor
    of the split that ``residues`` makes one power at a time (Bronstein's
    quadratic Hermite reduction); it returns only the simple-pole part g,
    as one reduced ``RatFunc``, and builds no integral.
  * ``residues`` owns the squarefree split of its argument's denominator:
    the ``ResidueReport`` keeps it with the residues, so the checks and
    deciders above read one split of alpha instead of making their own.
    Every order's coefficient (k-1)*alpha has alpha's denominator and k-1
    times its residues, so one report serves every order.  The order-k
    decider splits nothing else: it bounds den(beta_k)'s part of a
    solution's denominator with gcd(den, den') alone.
  * For the simple-pole part N/D (D squarefree, deg N < deg D), every
    residue is c exactly when N = c*D': the residue at a root of D is N/D'
    there, and N - c*D', of degree below deg D, vanishes at all deg D roots
    of D only when it is zero.  So when N and D' have the same ``ints`` and
    ``val``, ``residues`` reads the report off and forms no resultant.  A D
    of degree 1, as for the paper's alpha = A/x**k, always takes this exit.
  * D squarefree makes R(t) = res(D, N - t*D') a constant times the product
    of N/D' - t over the roots of D, so a rational root c of R has
    multiplicity deg gcd(D, N - c*D'): ``rational_roots`` gives distinct roots.
  * ``_subresultant_prs`` is the one remainder sequence over Z: Collins'
    subresultant sequence on ``_pseudo_divmod``, with no gcd per step.  A
    resultant reads its last element, and ``poly_gcd`` is x**min(val) times
    the primitive part of its last nonzero element on the ``ints``.  Two
    loops stay apart: the gcd degree modulo a prime divides by inverses
    mod p, and ``inverse_mod`` needs the cofactor, which the sequence does
    not carry.  No determinant is formed anywhere.
    ``solve_linear_system`` is the one elimination: plain fraction-free
    integer elimination (Bareiss 1968), in which every division is exact.

All values are immutable, which makes everything here safe to share between
threads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

_FRACTION_ZERO = Fraction(0)

# str() refuses an int of more digits than the interpreter's limit (4300 by
# default), which may be set no lower than this threshold; below this bound
# an int has fewer digits than the threshold
_STR_BOUND = 10 ** (sys.int_info.str_digits_check_threshold - 1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _scalar(value) -> tuple[int, int]:
    """An int or Fraction as a reduced pair (n, d), d > 0."""
    if isinstance(value, int):
        return value, 1
    return value.numerator, value.denominator


def _ratio(n: int, d: int) -> tuple[int, int]:
    """n/d (d nonzero) as a reduced pair with a positive denominator."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _pair_mul(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad) * (bn/bd) for two reduced pairs: the cross gcds leave the
    product reduced."""
    g = gcd(an, bd)
    h = gcd(bn, ad)
    if g != 1:
        an //= g
        bd //= g
    if h != 1:
        bn //= h
        ad //= h
    return an * bn, ad * bd


def _int_str(n: int) -> str:
    """str(n) under any limit on int-to-str conversion: an int of fewer
    digits than the limit's threshold goes to str(), a longer one is split
    at a power of ten and its two parts are written the same way."""
    if -_STR_BOUND < n < _STR_BOUND:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    # about half the digits of n (log10(2) < 0.30103), so high > 0
    half = n.bit_length() * 30103 // 200000
    high, low = divmod(n, 10**half)
    return _int_str(high) + _int_str(low).zfill(half)


def _power_str(var: str, i: int) -> str:
    """var**i as printed: "" for i = 0, "var" or "var^i"."""
    return f"{var}^{i}" if i > 1 else var if i else ""


def _terms_str(n: int, d: int, terms: Iterable[tuple[int, str]]) -> str:
    """The sum of (n*u/d)*monomial over ``terms``, in their order: each u a
    nonzero int, "" the monomial 1, and n/d a pair in lowest terms with
    d > 0, so that n*u/d is in lowest terms once divided by gcd(u, d).
    "0" when there are no terms."""
    parts: list[str] = []
    neg = n < 0
    for u, mono in terms:
        top, bot = abs(n * u), d
        if d != 1:
            g = gcd(u, d)
            top //= g
            bot //= g
        # _int_str's own test first: a call fewer for most terms
        mag = str(top) if top < _STR_BOUND else _int_str(top)
        if bot != 1:
            mag = f"{mag}/{str(bot) if bot < _STR_BOUND else _int_str(bot)}"
        term = mag
        if mono:
            term = mono if mag == "1" else f"{mag}*{mono}"
        parts.append(f" - {term}" if (u < 0) != neg else f" + {term}")
    if not parts:
        return "0"
    # the first term takes no " + " and a bare "-"
    parts[0] = parts[0][3:] if parts[0][1] == "+" else "-" + parts[0][3:]
    return "".join(parts)


def _make(ints: tuple[int, ...], val: int, cn: int, cd: int) -> "Poly":
    """A Poly from parts already in canonical form."""
    p = object.__new__(Poly)
    p.ints = ints
    p.val = val
    p.cn = cn
    p.cd = cd
    return p


def _from_ints(ints: list[int], val: int, cn: int, cd: int) -> "Poly":
    """(cn/cd) * x**val * ints, brought to canonical form (any ints, any
    pair with cd nonzero)."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints or not cn:
        return _ZERO
    if not ints[0]:
        k = next(i for i, v in enumerate(ints) if v)
        del ints[:k]
        val += k
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
        cn *= g
    cn, cd = _ratio(cn, cd)
    return _make(tuple(ints), val, cn, cd)


def _inverse_lc(p: "Poly") -> tuple[int, int]:
    """1/lc(p) as a reduced pair, for p nonzero.  lc(p) = cn*lead/cd, and
    cd/(cn*lead) is not in lowest terms when lead and cd share a factor."""
    return _ratio(p.cd, p.cn * p.ints[-1])


def _times(p: "Poly", n: int, d: int) -> "Poly":
    """p * (n/d) for a reduced pair, d > 0."""
    if not n or not p.ints:
        return _ZERO
    return _make(p.ints, p.val, *_pair_mul(p.cn, p.cd, n, d))


def _power(base, n: int, one):
    """base**n by repeated squaring, for a Poly or a BivarPoly; ``one`` is
    base**0."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = one
    while n:
        if n & 1:
            result = base if result is one else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _pseudo_divmod(a: Sequence[int], d: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of the int vector a by d, whose last entry is
    nonzero: (quo, rem, scale) with scale*a = quo*d + rem and rem shorter
    than d (it may end in zeros).  The partial remainder, and the quotient
    built so far, are scaled only when the leading entry is not a multiple
    of lc(d), so an exact division never scales; each step's factor divides
    lc(d)."""
    dd = len(d) - 1
    rem = list(a)
    quo = [0] * (len(rem) - dd)
    lc = d[-1]
    low = [(i, c) for i, c in enumerate(d[:-1]) if c]
    scale = 1
    for k in range(len(quo) - 1, -1, -1):
        lead = rem[k + dd]
        if not lead:
            continue
        if lead % lc:
            s = lc // gcd(lead, lc)
            rem = [v * s for v in rem[: k + dd + 1]]
            for j in range(k + 1, len(quo)):
                quo[j] *= s
            scale *= s
            lead *= s
        f = lead // lc
        quo[k] = f
        for i, c in low:
            rem[k + i] -= f * c
    del rem[dd:]
    return quo, rem, scale


class Poly:
    """Univariate polynomial over Q, stored as a rational content ``cn/cd``
    times x**``val`` times primitive integer coefficients ``ints``, lowest
    degree first, the first one nonzero (see the module docstring).  All
    attributes are read-only by contract."""

    __slots__ = ("ints", "val", "cn", "cd")

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        den = 1
        for c in cs:
            if isinstance(c, int):
                continue
            if isinstance(c, Fraction):
                den = lcm(den, c.denominator)
            else:
                raise TypeError(f"expected an exact rational, got {type(c).__name__}")
        if den == 1:
            ints = [c.numerator for c in cs]
        else:
            ints = [c.numerator * (den // c.denominator) for c in cs]
        p = _from_ints(ints, 0, 1, den)
        self.ints, self.val, self.cn, self.cd = p.ints, p.val, p.cn, p.cd

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return _make((1,), 1, 1, 1)

    @classmethod
    def monomial(cls, deg: int, c=1) -> "Poly":
        if deg < 0:
            raise ValueError("monomial degree must be >= 0")
        if not c:
            return _ZERO
        return _make((1,), deg, *_scalar(c))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.ints) + self.val - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def lc(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.cn * self.ints[-1], self.cd)

    def coeff(self, i: int) -> Fraction:
        i -= self.val
        if 0 <= i < len(self.ints):
            return Fraction(self.cn * self.ints[i], self.cd)
        return _FRACTION_ZERO

    # -- arithmetic --------------------------------------------------------

    def _add(self, other: "Poly", negate: bool) -> "Poly":
        if not other.ints:
            return self
        bn = -other.cn if negate else other.cn
        if not self.ints:
            return _make(other.ints, other.val, bn, other.cd)
        # ca*a + cb*b = (g/q) * (ma*a + mb*b) with q the common denominator
        da, db = self.cd, other.cd
        q = da * db // gcd(da, db)
        ma = self.cn * (q // da)
        mb = bn * (q // db)
        g = gcd(ma, mb)
        ma //= g
        mb //= g
        # b's terms start `off` places above a's
        a, b, val = self.ints, other.ints, self.val
        off = other.val - val
        if off < 0:
            a, b, ma, mb, val, off = b, a, mb, ma, other.val, -off
        out = list(a) if ma == 1 else [ma * v for v in a]
        out += [0] * (off + len(b) - len(out))
        for i, v in enumerate(b, off):
            if v:
                out[i] += mb * v
        return _from_ints(out, val, g, q)

    def __add__(self, other) -> "Poly":
        return self._add(_poly(other), False)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        if not self.ints:
            return self
        return _make(self.ints, self.val, -self.cn, self.cd)

    def __sub__(self, other) -> "Poly":
        return self._add(_poly(other), True)

    def __rsub__(self, other) -> "Poly":
        return _poly(other)._add(self, True)

    def __mul__(self, other) -> "Poly":
        # Poly first: an isinstance test against Fraction, an ABC, is slow
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return _times(self, *_scalar(other))
            other = _poly(other)
        a, b = self.ints, other.ints
        if not a or not b:
            return _ZERO
        # the powers of x add; by c*x**k, whose ints are (1,), the other
        # factor's ints are kept as they are
        val = self.val + other.val
        c = _pair_mul(self.cn, self.cd, other.cn, other.cd)
        if len(a) == 1 or len(b) == 1:
            return _make(b if len(a) == 1 else a, val, *c)
        out = [0] * (len(a) + len(b) - 1)
        # sparse operands such as shifted columns are common: skip the zero
        # coefficients of both
        right = [(j, v) for j, v in enumerate(b) if v]
        for i, u in enumerate(a):
            if u:
                for j, v in right:
                    out[i + j] += u * v
        return _make(tuple(out), val, *c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        return _power(self, n, _ONE)

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        """Quotient and remainder over Q: ``_pseudo_divmod`` of the two int
        vectors from x**min(val) up, with its scale and the two contents
        folded into each result's content."""
        other = _poly(other)
        d = other.ints
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return _ZERO, self
        m = min(self.val, other.val)
        a = (0,) * (self.val - m) + self.ints
        quo, rem, scale = _pseudo_divmod(a, (0,) * (other.val - m) + d)
        cn, cd = self.cn, self.cd * scale
        return (
            _from_ints(quo, 0, cn * other.cd, cd * other.cn),
            _from_ints(rem, m, cn, cd),
        )

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def divexact(self, other) -> "Poly":
        """self/other for a divisor of self: the ``val``s subtract and the
        ``ints`` divide."""
        other = _poly(other)
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        if self.val < other.val and self.ints:
            raise ValueError("inexact polynomial division")
        quo, rem, scale = _pseudo_divmod(self.ints, other.ints)
        if any(rem):
            raise ValueError("inexact polynomial division")
        return _from_ints(quo, self.val - other.val, self.cn * other.cd, self.cd * scale * other.cn)

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> "Poly":
        # the term of ints[i] has power v + i; a constant term drops out
        a, v = self.ints, self.val
        ints = [(v + i) * c for i, c in enumerate(a)] if v else [i * a[i] for i in range(1, len(a))]
        return _from_ints(ints, max(v - 1, 0), self.cn, self.cd)

    def eval(self, v) -> Fraction:
        v = _as_fraction(v)
        a = self.ints
        if not a:
            return _FRACTION_ZERO
        p, q = v.numerator, v.denominator
        acc = 0
        if q == 1:
            for c in reversed(a):
                acc = acc * p + c
            return Fraction(self.cn * acc * p**self.val, self.cd)
        # homogeneous Horner: acc = sum a_i * p**i * q**(len(a) - 1 - i)
        qpow = 1
        for c in reversed(a):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(self.cn * acc * p**self.val, self.cd * (qpow // q) * q**self.val)

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k; a negative k, down to -val, divides."""
        if not self.ints:
            return _ZERO
        return _make(self.ints, self.val + k, self.cn, self.cd)

    def monic(self) -> "Poly":
        if not self.ints:
            return self
        return _make(self.ints, self.val, 1, self.ints[-1])

    # -- misc ----------------------------------------------------------------

    def to_str(self, var: str = "x") -> str:
        a, v = self.ints, self.val
        terms = [(a[i], _power_str(var, v + i)) for i in range(len(a) - 1, -1, -1) if a[i]]
        return _terms_str(self.cn, self.cd, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        a, b = self, other
        return (a.ints, a.val, a.cn, a.cd) == (b.ints, b.val, b.cn, b.cd)

    def __hash__(self):
        return hash((self.ints, self.val, self.cn, self.cd))

    def __repr__(self):
        return f"Poly({self.to_str()})"


_ZERO = _make((), 0, 0, 1)
_ONE = _make((1,), 0, 1, 1)


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
    """Monic greatest common divisor; gcd(p, 0) = monic(p), gcd(0, 0) = 0.

    x**min(val) times the gcd of the int vectors, which x does not divide:
    the primitive part of the last nonzero element of their subresultant
    remainder sequence (``_subresultant_prs``), or 1 when that element is a
    constant, since a gcd over Q does not see contents."""
    if len(p.ints) < len(q.ints):
        p, q = q, p
    if q.is_zero:
        return p.monic()
    # a constant q.ints is the last element of its own sequence
    last = _subresultant_prs(p.ints, q.ints)[0] if len(q.ints) > 1 else q.ints
    val = min(p.val, q.val)
    if len(last) == 1:
        return _make((1,), val, 1, 1)
    g = gcd(*last)
    if last[-1] < 0:
        g = -g
    return _make(tuple(v // g for v in last), val, 1, last[-1] // g)


def inverse_mod(a: Poly, m: Poly) -> Poly:
    """s with s*a = 1 modulo m, for a coprime to m: the first cofactor of
    the extended Euclidean algorithm, divided by the last nonzero remainder.
    A nonzero constant a modulo m of positive degree is that remainder
    itself, so its inverse 1/a is returned without a division."""
    if a.degree == 0 < m.degree:
        return _make((1,), 0, *_ratio(a.cd, a.cn))
    r0, r1 = a, m
    s0, s1 = _ONE, _ZERO
    while not r1.is_zero:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
    if r0.degree != 0:
        raise ValueError("not invertible: the polynomials share a factor")
    return _times(s0, *_inverse_lc(r0))


def squarefree_decompose(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lc * prod q_i**m_i with q_i monic squarefree,
    pairwise coprime, and the multiplicities m_i strictly increasing.  The
    loop runs on the monic p/x**val(p) and stops as soon as the factors
    left share one multiplicity (see the module docstring); x then joins
    the entry of multiplicity val(p)."""
    if p.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    f = _make(p.ints, 0, 1, p.ints[-1])
    df = f.derivative()
    g = poly_gcd(f, df)
    c = f.divexact(g)
    dc = c.derivative()
    d = df.divexact(g) - dc
    parts: dict[int, Poly] = {}  # multiplicity -> factor
    i = 1
    while c.degree > 0:
        # d = s*c' exactly when every factor left in c has multiplicity i + s
        # (see the module docstring): c is then the last entry
        if d.ints == dc.ints and d.val == dc.val:
            s, r = divmod(d.cn * dc.cd, d.cd * dc.cn)
            if not r and s > 0:
                parts[i + s] = c
                break
        h = poly_gcd(c, d)
        if h.degree > 0:
            parts[i] = h
            c = c.divexact(h)
            d = d.divexact(h)
            dc = c.derivative()
        d = d - dc
        i += 1
    if p.val:
        h = parts.get(p.val)
        parts[p.val] = h.shift(1) if h is not None else Poly.x()
    return [(q, m) for m, q in sorted(parts.items())]


# ---------------------------------------------------------------------------
# linear systems and resultants
# ---------------------------------------------------------------------------


def solve_linear_system(rows: Sequence[Sequence], rhs: Sequence, ncols: int) -> list[Fraction] | None:
    """Particular solution of rows * x = rhs (free unknowns set to 0), or
    None when the system is inconsistent.  Entries are ints or Fractions.

    Each augmented row is scaled by the lcm of its denominators, all-zero
    rows are dropped, and the integer matrix is brought to echelon form by
    fraction-free (Bareiss) forward elimination over its first ``ncols``
    columns, the right-hand side carried along.  Pivot columns are chosen in
    increasing order, each pivot being the first row at or below the current
    rank with a nonzero entry; every row below the pivot row then becomes
    (p*row - f*pivot_row)/d, with p the pivot, f the row's entry in the
    pivot column and d the pivot of the step before (1 at the first).
    Every division is exact: each entry is then a minor of the matrix
    (Bareiss 1968), and the last pivot d is the determinant of the minor
    formed by the pivot rows and columns.

    The pivot columns are the columns independent of all earlier ones, a
    property of the matrix, so the particular solution is the one
    Gauss-Jordan elimination over Q gives.  Back-substitution stays in the
    integers: d times each unknown is an integer (Cramer's rule on the pivot
    minor), so every division is exact.
    """
    aug: list[list[int]] = []
    for row, val in zip(rows, rhs):
        if not any(row):
            if val:
                return None
            continue
        cells = [*row, val]
        den = lcm(*[v.denominator for v in cells])
        if den == 1:
            aug.append([v.numerator for v in cells])
        else:
            aug.append([v.numerator * (den // v.denominator) for v in cells])
    pivots: list[int] = []
    d = 1
    rank = 0
    for col in range(ncols):
        piv = rank
        while piv < len(aug) and not aug[piv][col]:
            piv += 1
        if piv == len(aug):
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        prow = aug[rank]
        p = prow[col]
        for r in range(rank + 1, len(aug)):
            f = aug[r][col]
            aug[r] = [(p * v - f * w) // d for v, w in zip(aug[r], prow)]
        d = p
        pivots.append(col)
        rank += 1
    for row in aug[rank:]:
        if row[ncols]:
            return None
    scaled = [0] * ncols  # d * solution
    for r in range(rank - 1, -1, -1):
        row, col = aug[r], pivots[r]
        acc = row[ncols] * d
        for c in pivots[r + 1 :]:
            if row[c]:
                acc -= row[c] * scaled[c]
        scaled[col] = acc // row[col]
    solution = [_FRACTION_ZERO] * ncols
    for col in pivots:
        solution[col] = Fraction(scaled[col], d)
    return solution


def _subresultant_prs(u: Sequence[int], w: Sequence[int]) -> tuple[Sequence[int], int, int, int]:
    """Collins' subresultant remainder sequence of two int vectors with
    nonzero last entries and len(u) >= len(w) (Collins 1967; Bronstein,
    Symbolic Integration I, ch. 1): (last, m, sign, h), with last the last
    nonzero element, m the degree of the element before it, sign the sign
    that res(u, w) picks up and h Collins' running subresultant coefficient.
    Each step takes the exact pseudo-remainder of u by w, that is
    ``_pseudo_divmod``'s remainder times lc(w)**(delta+1)/scale with
    delta = deg u - deg w, and divides it exactly by g*h**delta, with g the
    previous divisor's leading entry; no gcd or content is taken per step.
    The sequence stops at a zero remainder or at a constant."""
    m, n = len(u) - 1, len(w) - 1
    sign = g = h = 1
    while n:
        delta = m - n
        if m & n & 1:
            sign = -sign
        _, r, scale = _pseudo_divmod(u, w)
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        lead = w[-1]
        f = lead ** (delta + 1) // scale
        q = g * h**delta
        u, w = w, [v * f // q for v in r]
        m, n = n, len(r) - 1
        g = lead
        if delta:
            h = g**delta // h ** (delta - 1)
    return w, m, sign, h


def _resultant_std(a: Poly, b: Poly) -> Fraction:
    """lc(a)**deg(b) * prod of b over the roots of a, by ``_subresultant_prs``
    on the two int vectors, with x**val written out as zeros.  The contents
    come out once: res(c*u, d*w) = c**deg(w) * d**deg(u) * res(u, w), and
    res(u, w) = 1 when either is a constant.  res(u, w) is 0 when the last
    nonzero element of the sequence is not a constant; when it is a
    constant c after an element of degree m, res(u, w) is the sign times
    c**m / h**(m-1)."""
    if a.is_zero:
        raise ValueError("resultant of the zero polynomial")
    if b.is_zero:
        return Fraction(0) if a.degree > 0 else Fraction(1)
    m, n = a.degree, b.degree
    num = a.cn**n * b.cn**m
    den = a.cd**n * b.cd**m
    if not m or not n:
        return Fraction(num, den)
    u = (0,) * a.val + a.ints
    w = (0,) * b.val + b.ints
    sign = 1
    if m < n:
        u, w = w, u
        if m & n & 1:
            sign = -1
    last, m, s, h = _subresultant_prs(u, w)
    if len(last) > 1:
        return Fraction(0)
    return Fraction(sign * s * (last[0] ** m // h ** (m - 1)) * num, den)


def _interpolate(values: Sequence[Fraction]) -> Poly:
    """The polynomial of degree below n = len(values) that takes values[i]
    at x = i.  At the nodes 0..n-1 Newton's divided differences are the
    forward differences of the values divided by j!, so they run on ints
    with one common denominator L: with c_j = (n-1)!/j! times the j-th
    forward difference of L*values, the polynomial is
    sum_j c_j * x*(x-1)*...*(x-j+1), over L*(n-1)!, and Horner's rule on
    the int vector builds it."""
    n = len(values)
    den = lcm(*[v.denominator for v in values])
    diffs = [v.numerator * (den // v.denominator) for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    fact = 1  # (n-1)!/j!, then (n-1)!
    for j in range(n - 1, 0, -1):
        diffs[j] *= fact
        fact *= j
    diffs[0] *= fact
    out = [diffs[n - 1]]
    for i in range(n - 2, -1, -1):
        # out * (x - i) + c_i, in place from the top
        out.append(out[-1])
        for k in range(len(out) - 2, 0, -1):
            out[k] = out[k - 1] - i * out[k]
        out[0] = diffs[i] - i * out[0]
    return _from_ints(out, 0, 1, den * fact)


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


def _gf_gcd_degree(a: list[int], b: list[int], q: int) -> int:
    """Degree of gcd(a, b) modulo the prime q, for vectors of residues
    (-1 when both vanish).  Euclid on ``_pseudo_divmod``: each step's factor
    divides the divisor's leading entry, in 1..q-1, so the scale is a unit
    modulo q and the gcd is unchanged."""
    a, b = _gf_trim(a[:]), _gf_trim(b[:])
    while b:
        a, b = b, _gf_trim([v % q for v in _pseudo_divmod(a, b)[1]])
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


def rational_roots(p: Poly) -> tuple[Fraction, ...]:
    """The distinct rational roots of p, in increasing order.

    x**val(p) gives the root 0.  The other roots are lifted from a prime
    that does not divide the leading entry of p's ints and modulo which
    they are squarefree, rationally reconstructed against the rational-root
    bounds and verified exactly.  A factor repeated over Q stays repeated
    modulo such a prime, so finding one shows that the ints are squarefree
    over Q; their squarefree part is taken by a gcd over Q only after three
    primes fail."""
    if p.is_zero:
        raise ValueError("the zero polynomial has every root")
    found = {_FRACTION_ZERO} if p.val else set()
    square = _make(p.ints, 0, 1, 1)
    s_ints = p.ints
    deriv = [c * i for i, c in enumerate(s_ints)][1:]
    misses = 0
    prime = 2
    while len(s_ints) > 2:  # a linear polynomial needs no prime
        prime += 1
        if not _is_small_prime(prime) or s_ints[-1] % prime == 0:
            continue
        if _gf_gcd_degree([c % prime for c in s_ints], [c % prime for c in deriv], prime) == 0:
            break
        misses += 1
        if misses == 3:
            square = square.divexact(poly_gcd(square, square.derivative()))
            s_ints = square.ints
            deriv = [c * i for i, c in enumerate(s_ints)][1:]
    if len(s_ints) == 2:  # linear: read the root off directly
        found.add(Fraction(-s_ints[0], s_ints[1]))
    elif len(s_ints) > 2:
        num_bound = abs(s_ints[0])
        den_bound = abs(s_ints[-1])

        def eval_mod(cs: list[int], at: int, modulus: int) -> int:
            acc = 0
            for c in reversed(cs):
                acc = (acc * at + c) % modulus
            return acc

        target = 2 * num_bound * den_bound + 1
        for root in range(prime):
            if eval_mod(s_ints, root, prime):
                continue
            modulus = prime
            lifted = root
            while modulus < target:
                modulus = modulus * modulus
                inv = pow(eval_mod(deriv, lifted, modulus), -1, modulus)
                lifted = (lifted - eval_mod(s_ints, lifted, modulus) * inv) % modulus
            candidate = _rational_reconstruct(lifted, modulus, num_bound, den_bound)
            if candidate is not None and square.eval(candidate) == 0:
                found.add(candidate)
    return tuple(sorted(found))


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
        self.num = _times(num, *_inverse_lc(den))
        self.den = den.monic()

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(1)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other) -> "RatFunc":
        other = _ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _ratfunc_parts(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return _ratfunc(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        if not isinstance(other, RatFunc) and isinstance(other, (int, Fraction)):
            # a nonzero scalar keeps num and den coprime and den monic
            n, d = _scalar(other)
            return _ratfunc_parts(_times(self.num, n, d), self.den) if n else _RATFUNC_ZERO
        other = _ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        if not isinstance(other, RatFunc) and isinstance(other, (int, Fraction)):
            n, d = _scalar(other)
            if not n:
                raise ZeroDivisionError("division by the zero function")
            return _ratfunc_parts(_times(self.num, *_ratio(d, n)), self.den)
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
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction, Poly)):
                return NotImplemented
            other = RatFunc(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.to_str()})"


def _ratfunc_parts(num: Poly, den: Poly) -> RatFunc:
    """A RatFunc from a numerator and denominator already coprime, with den
    monic (and 1 when num is zero)."""
    out = object.__new__(RatFunc)
    out.num = num
    out.den = den
    return out


_RATFUNC_ZERO = _ratfunc_parts(_ZERO, _ONE)


def _ratfunc(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction, Poly)):
        return RatFunc(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to RatFunc")


# ---------------------------------------------------------------------------
# Hermite reduction and residues
# ---------------------------------------------------------------------------


def hermite_reduce(r: RatFunc, split: Sequence[tuple[Poly, int]]) -> RatFunc:
    """The simple-pole part g of r = h' + g: g is proper with a squarefree
    denominator, and unique.  The polynomial part of r goes into h, so the
    residues of r are exactly the residues of g.

    ``split`` is the squarefree split of den(r), which ``residues`` makes:
    the proper part a/d of r keeps r's denominator, since num and den of r
    are coprime.  The pole at x = 0 goes first, by one power-series
    division: with d = u*x**m, m >= 2 and t = a/u mod x**m,
    a/d = t/x**m + a_new/u with a_new = (a - u*t)/x**m, and every term of
    t/x**m but t[m-1]/x is a derivative, so a becomes t[m-1]*u + x*a_new
    and d becomes x*u.  The series runs on the ints of a and u: s*t, with
    s = u(0)**m, is an int vector, and 1/s joins a's content once.
    Hermite reduction (Bronstein, Symbolic Integration I, sec. 2.2,
    quadratic version) then lowers each other factor v of multiplicity
    i >= 2, with u = d/v**i: step j = i-1, ..., 1 solves b*u*v' + c*v = -a/j
    with deg b < deg v, and a/(u*v**(j+1)) = (b/v**j)' + a_new/(u*v**j) with
    a_new = -j*c - u*b'.  The inverse of u*v' modulo v serves every step."""
    a = r.num % r.den
    if a.is_zero:
        return _RATFUNC_ZERO
    d = r.den
    m = d.val
    if m > 1:
        # x does not divide a, since a and d are coprime: a.ints are a's
        # coefficients from x**0 up.  On the ints A of a and U of u, w is
        # s*(A/U mod x**m): u0**(k+1) times its k-th entry is an int, so
        # each // is exact; the contents of a and u cancel in t*u
        A, U = a.ints, d.ints
        u0 = U[0]
        s = u0**m
        low = [(j, c) for j, c in enumerate(U) if c and j]
        w: list[int] = []
        for k in range(m):
            acc = s * A[k] if k < len(A) else 0
            for j, c in low:
                if j > k:
                    break
                acc -= c * w[k - j]
            w.append(acc // u0)
        # e: the entries from x**m up of s*A - U*w, of degree below deg u
        e = [s * c for c in A[m:]]
        e += [0] * (len(U) - 1 - len(e))
        for j, c in low:
            for k in range(max(m - j, 0), m):
                e[j + k - m] -= c * w[k]
        top = w[-1]
        a = _from_ints([top * U[0]] + [top * c + v for c, v in zip(U[1:], e)], 0, a.cn, a.cd * s)
        d = d.shift(1 - m)
    for v, i in split:
        if v.val:
            # x, lowered above, leaves w = v/x of the same multiplicity
            v = v.shift(-1)
        if i < 2 or not v.degree:
            continue
        u = d.divexact(v**i)
        uv = u * v.derivative()
        inv = inverse_mod(uv, v)
        for j in range(i - 1, 0, -1):
            rhs = _times(a, -1, j)
            b = (rhs * inv) % v
            c = (rhs - b * uv).divexact(v)
            a = c * -j - u * b.derivative()
        d = u * v
    return RatFunc(a, d)


@dataclass(frozen=True)
class ResidueReport:
    """Residue data of a rational function r at its finite poles.

    per_factor    (squarefree factor of den(g), residue) pairs for each
                  rational residue value, g the simple-pole part of r;
                  conjugate poles sharing a rational residue are collected
                  into one factor
    all_integer   True iff every residue is an integer: the
                  Rothstein-Trager resultant splits over Q with integer roots
    split         squarefree split of den(r), as (factor, multiplicity)
                  pairs: the one split of r that the layers above read
    """

    per_factor: tuple[tuple[Poly, Fraction], ...]
    all_integer: bool
    split: tuple[tuple[Poly, int], ...]


def residues(r: RatFunc) -> ResidueReport:
    """Rothstein-Trager residue computation (after Hermite reduction).  The
    squarefree split of den(r) is made here, once, and kept in the report.

    With g = N/D the simple-pole part (D monic squarefree, deg N < deg D),
    the residue at a root theta of D is N(theta)/D'(theta).  Every residue
    is c exactly when N = c*D', since N - c*D' has degree below deg D and
    vanishes at every root of D; the report is then read off at once, and
    it is the one the general path gives, since gcd(D, N - c*D') = D.
    Otherwise the residues are the roots of the Rothstein-Trager resultant
    R(t) = res(D, N - t*D'), interpolated from its values at t = 0..deg D,
    and the factor of D for a rational root c is gcd(D, N - c*D'), whose
    degree is c's multiplicity as a root of R (see the module docstring)."""
    split = tuple(squarefree_decompose(r.den)) if r.den.degree > 0 else ()
    g = hermite_reduce(r, split)
    if g.is_zero:
        return ResidueReport((), True, split)
    num, den = g.num, g.den
    dden = den.derivative()
    if num.ints == dden.ints and num.val == dden.val:
        c = Fraction(num.cn * dden.cd, num.cd * dden.cn)
        return ResidueReport(((den, c),), c.denominator == 1, split)
    dd = den.degree
    rpoly = _interpolate([_resultant_std(den, num - t * dden) for t in range(dd + 1)])
    assert rpoly.degree == dd
    per = tuple((poly_gcd(den, num - c * dden), c) for c in rational_roots(rpoly))
    assert sum(q.degree for q, _ in per) <= dd
    int_degree = sum(q.degree for q, c in per if c.denominator == 1)
    return ResidueReport(per, int_degree == dd, split)
