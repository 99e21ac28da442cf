"""Exact univariate arithmetic over the rationals.

Dense polynomials, reduced rational functions, and the classical reduction
algorithms (GCD, squarefree split, Sylvester resultants, Hermite reduction,
Rothstein-Trager residue extraction) that every layer above consumes, plus
the one exact linear-system routine (``solve_linear_system``).

Representation notes:

  * ``Poly`` stores ``(cn/cd) * sum(ints[i] * x**i)``: ``ints`` is a tuple of
    Python ints, lowest degree first, with no trailing zeros, gcd 1 and a
    positive leading coefficient; the content is the int pair ``cn``/``cd``
    in lowest terms with ``cd > 0``, carrying the sign and the scale.  Zero
    is ``()`` with content 0/1 and has degree -1.  The form is canonical, so
    structural equality and hashing are mathematical equality.
  * Arithmetic runs on ints only: a product is an integer convolution times
    the product of the two contents, taken with cross gcds (a product of
    primitive polynomials is primitive, by Gauss's lemma, so it needs no
    further gcd); a sum brings the two contents to a common denominator and
    takes one gcd; ``divmod`` and ``poly_gcd`` are pseudo-division and
    primitive Euclid.  A ``fractions.Fraction`` is built only where a
    rational leaves the kernel: ``coeffs``, ``coeff``, ``lc``, ``content``,
    ``eval``, resultants, roots and residues.
  * ``RatFunc`` keeps numerator and denominator coprime with a monic
    denominator, so structural equality is mathematical equality.  A
    product with (or a quotient by) a nonzero rational keeps both
    properties, so it scales the numerator and takes no gcd.
  * ``squarefree_decompose`` is Yun's algorithm with an early exit.  At
    step i, with c the product of the factors q_j (j >= i) still to be
    found, Yun's d is sum_{j>=i} (j-i)*q_j'*prod_{l!=j} q_l.  So d = s*c'
    for a rational s exactly when every factor left in c has multiplicity
    i + s (reduce modulo each q_j), and then (c, i + s) is the last entry
    the full loop would give.  On a high power such as x**40 the loop
    ends at its first step instead of after forty.
  * ``hermite_reduce`` splits the denominator once and lowers each
    multiple factor one power at a time against that split (Bronstein's
    quadratic Hermite reduction); only its two results are reduced
    ``RatFunc``s, not the value after every pass.
  * Linear systems and determinants are solved by fraction-free integer
    elimination (Bareiss 1968), see ``solve_linear_system``.

All values are immutable, which makes everything here safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rat = Fraction

_FRACTION_ZERO = Fraction(0)


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


def _make(ints: tuple[int, ...], cn: int, cd: int) -> "Poly":
    """A Poly from parts already in canonical form."""
    p = object.__new__(Poly)
    p.ints = ints
    p.cn = cn
    p.cd = cd
    return p


def _from_ints(ints: list[int], cn: int, cd: int) -> "Poly":
    """(cn/cd) * ints, brought to canonical form (any ints, any pair with
    cd nonzero)."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints or not cn:
        return _ZERO
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
        cn *= g
    cn, cd = _ratio(cn, cd)
    return _make(tuple(ints), cn, cd)


def _inverse_lc(p: "Poly") -> tuple[int, int]:
    """1/lc(p) as a reduced pair, for p nonzero.  lc(p) = cn*lead/cd, and
    cd/(cn*lead) is not in lowest terms when lead and cd share a factor."""
    return _ratio(p.cd, p.cn * p.ints[-1])


def _times(p: "Poly", n: int, d: int) -> "Poly":
    """p * (n/d) for a reduced pair, d > 0."""
    if not n or not p.ints:
        return _ZERO
    return _make(p.ints, *_pair_mul(p.cn, p.cd, n, d))


class Poly:
    """Univariate polynomial over Q, dense, lowest degree first, stored as
    primitive integer coefficients ``ints`` times a rational content
    ``cn/cd`` (see the module docstring).  All attributes are read-only by
    contract."""

    __slots__ = ("ints", "cn", "cd")

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
        p = _from_ints(ints, 1, den)
        self.ints = p.ints
        self.cn = p.cn
        self.cd = p.cd

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
        return _make((0, 1), 1, 1)

    @classmethod
    def monomial(cls, deg: int, c=1) -> "Poly":
        if deg < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((0,) * deg + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def content(self) -> Fraction:
        """The content cn/cd as a Fraction, built on access."""
        return Fraction(self.cn, self.cd)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        cn, cd = self.cn, self.cd
        return tuple(Fraction(cn * v, cd) for v in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def lc(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.cn * self.ints[-1], self.cd)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.ints):
            return Fraction(self.cn * self.ints[i], self.cd)
        return _FRACTION_ZERO

    # -- arithmetic --------------------------------------------------------

    def _add(self, other: "Poly", negate: bool) -> "Poly":
        if not other.ints:
            return self
        bn = -other.cn if negate else other.cn
        if not self.ints:
            return _make(other.ints, bn, other.cd)
        # ca*a + cb*b = (g/q) * (ma*a + mb*b) with q the common denominator
        da, db = self.cd, other.cd
        q = da * db // gcd(da, db)
        ma = self.cn * (q // da)
        mb = bn * (q // db)
        g = gcd(ma, mb)
        ma //= g
        mb //= g
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        out = list(a) if ma == 1 else [ma * v for v in a]
        for i, v in enumerate(b):
            if v:
                out[i] += mb * v
        return _from_ints(out, g, q)

    def __add__(self, other) -> "Poly":
        return self._add(_poly(other), False)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        if not self.ints:
            return self
        return _make(self.ints, -self.cn, self.cd)

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
        out = [0] * (len(a) + len(b) - 1)
        # sparse operands such as the power-of-x candidate denominators are
        # common: skip the zero coefficients of both
        right = [(j, v) for j, v in enumerate(b) if v]
        for i, u in enumerate(a):
            if u:
                for j, v in right:
                    out[i + j] += u * v
        return _make(tuple(out), *_pair_mul(self.cn, self.cd, other.cn, other.cd))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        a = self.ints
        if a and not any(a[:-1]):
            # c*x**k: its ints are (0, ..., 0, 1), so the power is direct
            # (powers of coprime ints stay coprime)
            return _make((0,) * ((len(a) - 1) * n) + (1,), self.cn**n, self.cd**n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        """Quotient and remainder over Q, by pseudo-division of the int
        vectors that scales the partial remainder only when its leading
        coefficient is not a multiple of the divisor's."""
        other = _poly(other)
        d = other.ints
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        dd = len(d) - 1
        if len(self.ints) - 1 < dd:
            return _ZERO, self
        rem = list(self.ints)
        quo = [0] * (len(rem) - dd)
        lc = d[-1]
        low = [(i, c) for i, c in enumerate(d[:-1]) if c]
        # quotient = quo / scale and remainder = rem / scale, on the ints
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
            rem[k + dd] = 0
            for i, c in low:
                rem[k + i] -= f * c
        cn, cd = self.cn, self.cd * scale
        return (
            _from_ints(quo, cn * other.cd, cd * other.cn),
            _from_ints(rem[:dd], cn, cd),
        )

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
        a = self.ints
        return _from_ints([i * a[i] for i in range(1, len(a))], self.cn, self.cd)

    def antiderivative(self) -> "Poly":
        a = self.ints
        if not a:
            return _ZERO
        den = lcm(*range(1, len(a) + 1))
        return _from_ints(
            [0] + [v * (den // (i + 1)) for i, v in enumerate(a)], self.cn, self.cd * den
        )

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
            return Fraction(self.cn * acc, self.cd)
        # homogeneous Horner: acc = sum a_i * p**i * q**(deg - i)
        qpow = 1
        for c in reversed(a):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(self.cn * acc, self.cd * (qpow // q))

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if not self.ints:
            return _ZERO
        return _make((0,) * k + self.ints, self.cn, self.cd)

    def monic(self) -> "Poly":
        if not self.ints:
            return self
        return _make(self.ints, 1, self.ints[-1])

    # -- misc ----------------------------------------------------------------

    def is_power_of_x(self) -> int | None:
        """Degree k when the polynomial is exactly x**k (monic), else None."""
        a = self.ints
        if not a or a[-1] != 1 or self.cn != 1 or self.cd != 1:
            return None
        if any(a[:-1]):
            return None
        return len(a) - 1

    def to_str(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        # coefficient i is n*u/d in lowest terms after dividing by gcd(u, d),
        # since n/d, the content, is already in lowest terms
        n, d = self.cn, self.cd
        parts: list[str] = []
        for i in range(len(self.ints) - 1, -1, -1):
            u = self.ints[i]
            if not u:
                continue
            g = gcd(u, d)
            top, bot = abs(n * u) // g, d // g
            mag = str(top) if bot == 1 else f"{top}/{bot}"
            if i == 0:
                body = mag
            else:
                v = var if i == 1 else f"{var}^{i}"
                body = v if mag == "1" else f"{mag}*{v}"
            if (n < 0) != (u < 0):
                parts.append(f" - {body}" if parts else f"-{body}")
            else:
                parts.append(f" + {body}" if parts else body)
        return "".join(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return self.ints == other.ints and self.cn == other.cn and self.cd == other.cd

    def __hash__(self):
        return hash((self.ints, self.cn, self.cd))

    def __repr__(self):
        return f"Poly({self.to_str()})"


_ZERO = _make((), 0, 1)
_ONE = _make((1,), 1, 1)


def _poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Poly")


# ---------------------------------------------------------------------------
# gcd family
# ---------------------------------------------------------------------------


def _lowest_power(a: Sequence[int]) -> int:
    """Index of the lowest nonzero coefficient."""
    k = 0
    while not a[k]:
        k += 1
    return k


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) = monic(p), gcd(0, 0) = 0.

    Euclid on the canonical form: every remainder is kept as its primitive
    int vector times a content, so this is primitive Euclid on the ints and
    forms no fraction per coefficient."""
    if p.degree < q.degree:
        p, q = q, p
    if q.is_zero:
        return p.monic()
    if q.degree == 0:
        return _ONE
    for mono, other in ((q, p), (p, q)):
        if not any(mono.ints[:-1]):
            # a multiple of x**m, as candidate denominators often are
            return Poly.monomial(min(mono.degree, _lowest_power(other.ints)))
    while q.degree > 0:
        p, q = q, p % q
    return p.monic() if q.is_zero else _ONE


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
    n, d = _inverse_lc(r0)
    return r0.monic(), _times(s0, n, d), _times(t0, n, d)


def squarefree_decompose(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lc * prod q_i**m_i with q_i monic squarefree,
    pairwise coprime, and the multiplicities m_i strictly increasing.  The
    loop stops as soon as the factors left share one multiplicity (see the
    module docstring)."""
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
    dc = c.derivative()
    d = df.divexact(g) - dc
    i = 1
    while c.degree > 0:
        # d = s*c' exactly when every factor left in c has multiplicity i + s
        # (see the module docstring): c is then the last entry
        if d.ints == dc.ints:
            s, r = divmod(d.cn * dc.cd, d.cd * dc.cn)
            if not r and s > 0:
                out.append((c, i + s))
                break
        h = poly_gcd(c, d)
        if h.degree > 0:
            out.append((h, i))
            c = c.divexact(h)
            d = d.divexact(h)
            dc = c.derivative()
        d = d - dc
        i += 1
    return out


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
    # monic, so coefficient i is ints[i]/ints[-1], and times a common multiple
    # of the leads it is an integer
    scale = lcm(*(f.ints[-1] for f in basis))
    basis.sort(key=lambda f: (f.degree, [c * (scale // f.ints[-1]) for c in f.ints]))
    return basis


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix, in
    place, over its first ``ncols`` columns; further columns (a right-hand
    side) are carried along.

    Pivot columns are chosen in increasing order, each pivot being the first
    row at or below the current rank with a nonzero entry.  Every division is
    exact: an eliminated entry is a minor of the matrix (Bareiss 1968).  A row
    with a zero in the pivot column would only be multiplied by the quotient
    of two consecutive pivots, so that update is deferred: ``level[r]`` counts
    the pivot steps a row's stored values reflect, and a row is brought up to
    date only when it is next combined or becomes the pivot row.

    Returns the pivot columns (row i holds the pivot of column pivots[i] and
    is up to date at level i), the sign of the row permutation, and the last
    pivot, which is the determinant of the rank x rank minor formed by the
    pivot rows and columns (1 when the rank is 0).
    """
    pivots: list[int] = []
    history = [1]  # history[t]: pivot of step t (history[0] = 1)
    level = [0] * len(rows)
    sign = 1
    rank = 0
    for col in range(ncols):
        piv = rank
        while piv < len(rows) and not rows[piv][col]:
            piv += 1
        if piv == len(rows):
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            level[rank], level[piv] = level[piv], level[rank]
            sign = -sign
        prev = history[rank]
        prow = rows[rank]
        if level[rank] != rank:
            prow = rows[rank] = [v * prev // history[level[rank]] for v in prow]
            level[rank] = rank
        p = prow[col]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            f = row[col]
            if not f:
                continue
            if level[r] != rank:
                lo = history[level[r]]
                row = [v * prev // lo for v in row]
                f = row[col]
            rows[r] = [(p * v - f * w) // prev for v, w in zip(row, prow)]
            level[r] = rank + 1
        history.append(p)
        pivots.append(col)
        rank += 1
    return pivots, sign, history[rank]


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (the rows are consumed)."""
    pivots, sign, last = _echelon(rows, len(rows))
    return sign * last if len(pivots) == len(rows) else 0


def solve_linear_system(rows: Sequence[Sequence], rhs: Sequence, ncols: int) -> list[Fraction] | None:
    """Particular solution of rows * x = rhs (free unknowns set to 0), or
    None when the system is inconsistent.  Entries are ints or Fractions.

    Each augmented row is scaled by the lcm of its denominators, all-zero
    rows are dropped, and the integer matrix is brought to echelon form by
    ``_echelon``.  The pivot columns are the columns independent of all
    earlier ones, a property of the matrix, so the particular solution is
    the one Gauss-Jordan elimination over Q gives.  Back-substitution stays
    in the integers: with d the last pivot, d times each unknown is an
    integer (Cramer's rule on the pivot minor), so every division is exact.
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
    pivots, _, d = _echelon(aug, ncols)
    for row in aug[len(pivots):]:
        if row[ncols]:
            return None
    scaled = [0] * ncols  # d * solution
    for r in range(len(pivots) - 1, -1, -1):
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
    # the determinant is linear in each row: take the contents out
    acs = list(reversed(a.ints))
    bcs = list(reversed(b.ints))
    rows = []
    for r in range(n):
        rows.append([0] * r + acs + [0] * (size - m - 1 - r))
    for r in range(m):
        rows.append([0] * r + bcs + [0] * (size - n - 1 - r))
    return Fraction(a.cn**n * b.cn**m * _det(rows), a.cd**n * b.cd**m)


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


def _candidate_rational_roots(poly: Poly) -> set[Fraction]:
    """Verified rational roots (without multiplicity) of a polynomial with
    nonzero trailing coefficient."""
    square = poly.divexact(poly_gcd(poly, poly.derivative()))
    s_ints = square.ints
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
    k = _lowest_power(p.ints)
    roots.extend([Fraction(0)] * k)
    work = _make(p.ints[k:], p.cn, p.cd)
    if work.degree == 0:
        return tuple(sorted(roots))
    for cand in sorted(_candidate_rational_roots(work)):
        # x - n/d is (1/d) * (d*x - n), already canonical
        n, d = cand.numerator, cand.denominator
        linear = _make((-n, d), 1, d)
        while work.degree >= 1 and work.eval(cand) == 0:
            work = work.divexact(linear)
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
        self.num = _times(num, *_inverse_lc(den))
        self.den = den.monic()

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


def _hermite(a: Poly, d: Poly) -> tuple[Poly, Poly, Poly, Poly]:
    """Hermite reduction of a proper a/d, d monic, from one squarefree split
    of d (Bronstein, Symbolic Integration I, sec. 2.2, quadratic version).

    Returns (hn, hd, a', d') with a/d = (hn/hd)' + a'/d', d' squarefree and
    hn/hd proper.  For each factor v of multiplicity i >= 2, with
    u = d/v**i, step j = i-1, ..., 1 solves b*u*v' + c*v = -a/j with
    deg b < deg v; then a/(u*v**(j+1)) = (b/v**j)' + a_new/(u*v**j) with
    a_new = -j*c - u*b'.  The inverse of u*v' modulo v serves every step."""
    hn, hd = Poly.zero(), Poly.one()
    for v, i in squarefree_decompose(d):
        if i < 2:
            continue
        u = d.divexact(v**i)
        uv = u * v.derivative()
        _, inv, _ = extended_gcd(uv, v)
        num, vpow = Poly.zero(), Poly.one()  # sum of b*v**(i-1-j), v**(i-1-j)
        for j in range(i - 1, 0, -1):
            rhs = _times(a, -1, j)
            b = (rhs * inv) % v
            c = (rhs - b * uv).divexact(v)
            num = num + b * vpow
            vpow = vpow * v
            a = c * -j - u * b.derivative()
        # h gains num/v**(i-1); the factors of the split are pairwise coprime
        hn, hd = hn * vpow + num * hd, hd * vpow
        d = u * v
    return hn, hd, a, d


def hermite_reduce(r: RatFunc) -> tuple[RatFunc, RatFunc]:
    """Split r = h' + g where g has only simple poles and a squarefree
    denominator.  The polynomial part of r is absorbed into h, so the
    residues of r are exactly the residues of g.  Both parts are unique:
    g is proper, and h is a polynomial without constant term plus a proper
    fraction."""
    poly_part, frac = r.split_polynomial_part()
    integral = poly_part.antiderivative()
    if frac.is_zero:
        return RatFunc(integral), frac
    hn, hd, a, d = _hermite(frac.num, frac.den)
    return RatFunc(integral * hd + hn, hd), RatFunc(a, d)


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

    def scaled(self, s) -> "ResidueReport":
        """The report of s*r from this report of r, for a nonzero rational s:
        the poles and their factors are the same, every residue is s times
        the old one, and the residue polynomial is s**deg * R(t/s)."""
        if not s:
            raise ValueError("scale factor must be nonzero")
        per = tuple((q, c * s) for q, c in self.per_factor)
        top = self.residue_poly.degree
        rpoly = Poly([c * s ** (top - i) for i, c in enumerate(self.residue_poly.coeffs)])
        integral = sum(q.degree for q, c in per if c.denominator == 1)
        return ResidueReport(self.simple_part * s, rpoly, per, integral == top)


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
