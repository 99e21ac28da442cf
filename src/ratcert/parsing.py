"""Recursive-descent parser for exact polynomial and rational expressions.

Grammar (no floating literals, no implicit multiplication):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := ident | uint | '(' expr ')'

The tokenizer classifies characters with ``str.isspace``, ``isdigit``,
``isalpha`` and ``isalnum`` and emits plain ``(kind, text, position)``
tuples, where an operator's kind is the operator itself.

Each value is built once.  A sum is one sparse map from ``(i, j)``, the
powers of the two variables, to a reduced ``(num, den)`` int pair, and
every ``+`` adds its term into that map in place; a product, a quotient by
a constant or a power of single terms is one such pair, made in O(1).  A
polynomial of the integer kernel (``BivarPoly``, or ``Poly`` for
univariate input) is built only where a sum of several terms meets ``*``,
``/``, ``^`` or a rational value, and for the final value.  So
"1/2*x + 3" is the polynomial with coefficient 1/2 and is never a
fraction.  A value becomes rational only below a ``/`` by a nonconstant
(a ``BivarRatFunc``, or its univariate counterpart), and is then combined
exactly as a rational function.  Rational values are normalised lightly,
as ``BivarRatFunc`` normalises: the common monomial of numerator and
denominator is stripped and the denominator scaled to lead coefficient 1,
and no other common factor is cancelled.  ``parse_poly`` rejects a value
whose denominator so normalised is not constant, so "x^2/x" is accepted and
"(x^2-1)/(x-1)" is not.  ``parse_univar_ratfunc`` reads one variable and
returns a reduced ``RatFunc``.  Identifiers must be declared variables or
let-bound rational constants; anything else is a positioned error.  Every
refusal is a ``ParseError``, an ``InputError``, on which the command line
exits 2.

Input size is bounded, and every bound ends in a positioned ``ParseError``
before any work is done: parentheses nest at most ``MAX_NESTING`` deep (so
hostile input cannot exhaust the interpreter stack), an exponent is at most
``MAX_DEGREE``, no power or product may produce a numerator or denominator
of total degree above ``MAX_DEGREE``, and no power or product may produce a
coefficient whose numerator or denominator has more than ``MAX_COEFF_BITS``
bits.  That size is estimated before the arithmetic, from the largest
numerator or denominator among the operands' coefficients: n*bits for a
power, and the sum of the two sizes for a product, a quotient or a sum of
rational functions (whose terms are cross products).  The estimate is read
off each row of an operand's kernel form, and is exact for a single term.
A let-bound constant is held to ``MAX_COEFF_BITS`` too; its decimal
exponent is judged from the text, before ``10**exponent`` is built
(``let_value``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, TypeAlias

from .algebra import (
    Poly,
    RatFunc,
    _from_ints,
    _inverse_lc,
    _make,
    _pair_mul,
    _ratfunc_parts,
    _ratio,
    _times,
)
from .planar import BivarPoly, BivarRatFunc, InputError, _from_rows


class ParseError(InputError):
    """A refused expression: ``message`` at character ``position``."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_OPS = frozenset("+-*/^()")

# each level of parentheses costs three stack frames (expr, term, factor)
MAX_NESTING = 100
# largest exponent, and largest total degree of a numerator or denominator
MAX_DEGREE = 200
# largest bit length of the numerator or denominator of a coefficient that
# a power or a product may produce: far below the 4300 decimal digits (about
# 14284 bits) that Python turns into a string, so every coefficient of an
# accepted input can be printed
MAX_COEFF_BITS = 4096


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) tuples: kind is "INT", "IDENT", the operator
    character, or "END" for the one token after the last."""
    out = []
    append = out.append
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _OPS:
            append((ch, ch, i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            append(("INT", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            append(("IDENT", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    append(("END", "", n))
    return out


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:
        # digits int() does not read (such as superscripts), or too many
        raise ParseError(f"bad integer literal {text[:20]!r}", pos) from None


class _Ratio:
    """num/den of univariate polynomials, normalised as ``BivarRatFunc``
    normalises a bivariate pair: the common power of x is stripped and den
    is scaled to lead coefficient 1; no other common factor is cancelled,
    so the bounds see the operands they see for bivariate input."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if not num.ints:
            self.num, self.den = num, Poly.one()
            return
        k = min(num.val, den.val)
        num, den = num.shift(-k), den.shift(-k)
        self.num = _times(num, *_inverse_lc(den))
        self.den = den.monic()

    @property
    def is_zero(self) -> bool:
        return not self.num.ints


# a sum of terms {(i, j): (num, den)}, a kernel polynomial, or a rational
# value; a string, since a typing.Union would keep these classes in typing's
# cache for the life of the process
_Value: TypeAlias = "dict | BivarPoly | Poly | BivarRatFunc | _Ratio"


def _pair_add(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad) + (bn/bd) for two reduced pairs, reduced."""
    if ad == bd:
        if ad == 1:
            return an + bn, 1
        return _ratio(an + bn, ad)
    return _ratio(an * bd + bn * ad, ad * bd)


def _row(terms: dict[int, tuple[int, int]]) -> Poly:
    """The Poly sum of c * x**i over {i: c} with c a reduced pair."""
    if len(terms) == 1:
        ((i, (n, d)),) = terms.items()
        return _make((1,), i, n, d)
    den = lcm(*(d for _, d in terms.values()))
    ints = [0] * (max(terms) + 1)
    for i, (n, d) in terms.items():
        ints[i] = n * (den // d)
    return _from_ints(ints, 0, 1, den)


def _poly_terms(p: BivarPoly | Poly) -> dict:
    """The terms of a kernel polynomial as reduced pairs."""
    rows = p.rows.items() if type(p) is BivarPoly else ((0, p),)
    out = {}
    for j, r in rows:
        cn, cd = r.cn, r.cd
        for i, v in enumerate(r.ints, r.val):
            if v:
                # cn/cd is reduced, so gcd(cn*v, cd) = gcd(v, cd)
                g = gcd(v, cd)
                out[(i, j)] = (cn * v // g, cd // g)
    return out


def _poly_bits(p: BivarPoly | Poly) -> int:
    """Bit length of the largest numerator or denominator among a kernel
    polynomial's coefficients, read off each row's content cn/cd and its
    largest int v: cn*v has bits(cn) + bits(v) - 1 bits or one more, and a
    single term's row has the ints (1,), so for a single term this is
    exact."""
    out = 0
    for r in p.rows.values() if type(p) is BivarPoly else (p,) if p.ints else ():
        big = max(max(r.ints), -min(r.ints))
        out = max(out, r.cn.bit_length() + big.bit_length() - 1, r.cd.bit_length())
    return out


_RATIONAL = (BivarRatFunc, _Ratio)


def _degree(v: _Value) -> int:
    """Total degree of a polynomial value (-1 for zero)."""
    if type(v) is dict:
        return max((i + j for i, j in v), default=-1)
    return v.total_degree if type(v) is BivarPoly else v.degree


def _degrees(v: _Value) -> tuple[int, int]:
    """Total degrees of a value's numerator and denominator (0 for zero)."""
    if isinstance(v, _RATIONAL):
        return max(_degree(v.num), 0), _degree(v.den)
    return max(_degree(v), 0), 0


def _bits(v: _Value) -> int:
    """``_poly_bits`` of a value, of the larger of numerator and denominator
    for a rational one; a sum here has at most one term."""
    if type(v) is dict:
        if not v:
            return 0
        ((n, d),) = v.values()
        return max(n.bit_length(), d.bit_length())
    if isinstance(v, _RATIONAL):
        return max(_poly_bits(v.num), _poly_bits(v.den))
    return _poly_bits(v)


def _bound(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"total degree {degree} exceeds the limit {MAX_DEGREE}", pos)


def _bound_bits(bits: int, pos: int, *operands: _Value) -> None:
    if bits > MAX_COEFF_BITS:
        constant = all(not isinstance(v, _RATIONAL) and _degree(v) <= 0 for v in operands)
        what = "constant" if constant else "coefficient"
        raise ParseError(
            f"{what} of up to {bits} bits exceeds the limit of {MAX_COEFF_BITS} bits", pos
        )


def _term_times(term: dict, p: BivarPoly | Poly) -> BivarPoly | Poly:
    """A sum of at most one term times a kernel polynomial: each row is
    shifted and scaled, which keeps it canonical."""
    if not term or p.is_zero:
        return p * 0
    (((i, j), (n, d)),) = term.items()
    if type(p) is Poly:
        return _times(p, n, d).shift(i)
    return _from_rows({k + j: _times(r, n, d).shift(i) for k, r in p.rows.items()})


def _negated(v: _Value) -> _Value:
    if type(v) is dict:
        return {k: (-n, d) for k, (n, d) in v.items()}
    if isinstance(v, _RATIONAL):
        return type(v)(-v.num, v.den)
    return -v


class _Parser:
    """One parse of ``text`` over two variables: polynomials are
    ``BivarPoly`` and rational values ``BivarRatFunc``."""

    one = BivarPoly.const(1)
    rational = BivarRatFunc

    def __init__(
        self,
        text: str,
        variables: Sequence[str],
        lets: Mapping[str, Fraction] | None,
    ):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        # each variable's term key (i, j)
        self.variables = dict(zip(variables, ((1, 0), (0, 1))))
        self.lets = lets or {}
        for name in self.lets:
            if name in self.variables:
                raise ParseError(f"let-binding shadows variable {name!r}", 0)

    # -- values ----------------------------------------------------------------

    def build(self, terms: dict) -> BivarPoly | Poly:
        """The kernel polynomial of a sum."""
        rows: dict[int, dict[int, tuple[int, int]]] = {}
        for (i, j), c in terms.items():
            row = rows.get(j)
            if row is None:
                rows[j] = {i: c}
            else:
                row[i] = c
        return _from_rows({j: _row(row) for j, row in rows.items()})

    def operand(self, v: _Value) -> _Value:
        """``v`` ready for a product, a quotient, a power or a rational sum:
        a sum of several terms becomes its kernel polynomial."""
        return self.build(v) if type(v) is dict and len(v) > 1 else v

    def parts(self, v: _Value) -> tuple:
        """Numerator and denominator of a value."""
        if type(v) is dict:
            return self.build(v), self.one
        if isinstance(v, _RATIONAL):
            return v.num, v.den
        return v, self.one

    def product(self, op: str, a: _Value, b: _Value, pos: int) -> _Value:
        """a * b or a / b; ``pos`` is the operator's position."""
        if type(a) is dict and type(b) is dict and len(a) == 1 and len(b) == 1:
            # two single terms: the sizes are exact, and the result is one term
            (((ia, ja), (an, ad)),) = a.items()
            (((ib, jb), (bn, bd)),) = b.items()
            if op == "*" or not (ib or jb):
                bits = max(an.bit_length(), ad.bit_length()) + max(bn.bit_length(), bd.bit_length())
                if bits > MAX_COEFF_BITS:
                    _bound_bits(bits, pos, a, b)
                if op == "/":
                    return {(ia, ja): _pair_mul(an, ad, *_ratio(bd, bn))}
                _bound(ia + ib + ja + jb, pos)
                return {(ia + ib, ja + jb): _pair_mul(an, ad, bn, bd)}
        a = self.operand(a)
        b = self.operand(b)
        if op == "/" and (not b if type(b) is dict else b.is_zero):
            raise ParseError("division by zero", pos)
        # every coefficient of the result is a sum of products of one
        # coefficient of each operand (cross products, for rational values)
        _bound_bits(_bits(a) + _bits(b), pos, a, b)
        if not isinstance(a, _RATIONAL) and not isinstance(b, _RATIONAL):
            if op == "*":
                _bound(max(_degree(a) + _degree(b), 0), pos)
                if type(a) is dict and type(b) is dict:
                    return {}  # two single terms took the path above, so one is zero
                if type(b) is dict:
                    a, b = b, a
                return _term_times(a, b) if type(a) is dict else a * b
            if _degree(b) == 0:
                # a nonzero constant: scale a by its inverse
                ((bn, bd),) = (b if type(b) is dict else _poly_terms(b)).values()
                n, d = _ratio(bd, bn)
                if type(a) is dict:
                    return {k: _pair_mul(an, ad, n, d) for k, (an, ad) in a.items()}
                return _term_times({(0, 0): (n, d)}, a)
        # a rational operand, or a division by a nonconstant: bound the degrees
        # of the products that form the unreduced result
        (na, da), (nb, db) = _degrees(a), _degrees(b)
        (a_num, a_den), (b_num, b_den) = self.parts(a), self.parts(b)
        if op == "*":
            _bound(max(na + nb, da + db), pos)
            return self.rational(a_num * b_num, a_den * b_den)
        _bound(max(na + db, da + nb), pos)
        return self.rational(a_num * b_den, a_den * b_num)

    def add(self, a: _Value, b: _Value, negate: bool, pos: int) -> _Value:
        """a + b, or a - b when ``negate``; ``pos`` is the operator's
        position.  A sum ``a`` built by this parse takes b's terms in place."""
        if isinstance(a, _RATIONAL) or isinstance(b, _RATIONAL):
            a = self.operand(a)
            b = self.operand(b)
            _bound_bits(_bits(a) + _bits(b), pos, a, b)
            (na, da), (nb, db) = _degrees(a), _degrees(b)
            _bound(max(na + db, nb + da, da + db), pos)
            (a_num, a_den), (b_num, b_den) = self.parts(a), self.parts(b)
            num = a_num * b_den - b_num * a_den if negate else a_num * b_den + b_num * a_den
            return self.rational(num, a_den * b_den)
        if type(a) is not dict:
            a = _poly_terms(a)
        for k, (n, d) in (b if type(b) is dict else _poly_terms(b)).items():
            if negate:
                n = -n
            old = a.get(k)
            if old is None:
                a[k] = (n, d)
                continue
            s = _pair_add(old[0], old[1], n, d)
            if s[0]:
                a[k] = s
            else:
                del a[k]
        return a

    # -- grammar -----------------------------------------------------------------

    def parse(self) -> BivarPoly | Poly | BivarRatFunc | _Ratio:
        value = self.expr()
        kind, text, pos = self.tokens[self.idx]
        if kind != "END":
            raise ParseError(f"unexpected {text!r}", pos)
        return self.build(value) if type(value) is dict else value

    def expr(self) -> _Value:
        kind = self.tokens[self.idx][0]
        negate = kind == "-"
        if negate or kind == "+":
            self.idx += 1
        value = self.term()
        if negate:
            value = _negated(value)
        while True:
            kind, _, pos = self.tokens[self.idx]
            if kind != "+" and kind != "-":
                return value
            self.idx += 1
            value = self.add(value, self.term(), kind == "-", pos)

    def term(self) -> _Value:
        value = self.factor()
        while True:
            kind, _, pos = self.tokens[self.idx]
            if kind != "*" and kind != "/":
                return value
            self.idx += 1
            value = self.product(kind, value, self.factor(), pos)

    def factor(self) -> _Value:
        """A base (a name, an integer or a parenthesised expr) and its power."""
        kind, text, pos = self.tokens[self.idx]
        self.idx += 1
        if kind == "IDENT":
            key = self.variables.get(text)
            if key is not None:
                value = {key: (1, 1)}
            else:
                c = self.lets.get(text)
                if c is None:
                    raise ParseError(f"unknown identifier {text!r}", pos)
                value = {(0, 0): (c.numerator, c.denominator)} if c else {}
        elif kind == "INT":
            v = _int(text, pos)
            value = {(0, 0): (v, 1)} if v else {}
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            kind, _, pos = self.tokens[self.idx]
            if kind != ")":
                raise ParseError("expected ')'", pos)
            self.idx += 1
        else:
            raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)
        kind, _, pos = self.tokens[self.idx]
        if kind != "^":
            return value
        self.idx += 1
        ekind, etext, epos = self.tokens[self.idx]
        if ekind != "INT":
            raise ParseError("exponent must be an unsigned integer", epos)
        self.idx += 1
        n = _int(etext, epos)
        if n > MAX_DEGREE:
            raise ParseError(f"exponent {n} exceeds the limit {MAX_DEGREE}", epos)
        if type(value) is dict and len(value) == 1:
            # a single term: its sizes are exact, and its power is one term
            (((i, j), (c, d)),) = value.items()
            _bound(n * (i + j), pos)
            _bound_bits(n * max(c.bit_length(), d.bit_length()), pos, value)
            return {(i * n, j * n): (c**n, d**n)}
        value = self.operand(value)
        _bound(n * max(_degrees(value)), pos)
        _bound_bits(n * _bits(value), pos, value)
        if type(value) is dict:
            # zero
            return {(0, 0): (1, 1)} if not n else value
        if isinstance(value, _RATIONAL):
            return self.rational(value.num**n, value.den**n)
        return value**n


class _UnivariateParser(_Parser):
    """One parse over one variable: polynomials are ``Poly`` and rational
    values ``_Ratio``."""

    one = Poly.one()
    rational = _Ratio

    def build(self, terms: dict) -> Poly:
        return _row({i: c for (i, _), c in terms.items()}) if terms else Poly.zero()


def _parse(
    text: str, variables: Sequence[str], lets: Mapping[str, Fraction] | None
) -> BivarPoly | BivarRatFunc:
    if len(variables) != 2 or variables[0] == variables[1]:
        raise ValueError("exactly two distinct variable names are required")
    return _Parser(text, variables, lets).parse()


def parse_poly(
    text: str,
    variables: Sequence[str] = ("x", "y"),
    lets: Mapping[str, Fraction] | None = None,
) -> BivarPoly:
    """Parse a polynomial; rejects values with a nonconstant denominator."""
    value = _parse(text, variables, lets)
    if type(value) is BivarPoly:
        return value
    if value.den.total_degree > 0:
        raise ParseError("expression is not a polynomial", len(text))
    return value.num * (1 / value.den.coeff(0, 0))


def parse_univar_ratfunc(
    text: str, var: str = "x", lets: Mapping[str, Fraction] | None = None
) -> RatFunc:
    """Parse a univariate rational function such as "(x+1)/x^2"."""
    value = _UnivariateParser(text, (var,), lets).parse()
    if type(value) is Poly:
        # a polynomial over 1 is already reduced
        return _ratfunc_parts(value, Poly.one())
    return RatFunc(value.num, value.den)


# a decimal as Fraction reads it: digits, a fractional part, an exponent
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*")


def _fraction_text(raw: str) -> str | None:
    """``raw`` ready for Fraction, or None when its decimal exponent alone
    puts the value over ``MAX_COEFF_BITS`` (see ``let_value``)."""
    m = _DECIMAL.fullmatch(raw)
    if not m or not m[3]:
        return raw
    frac = (m[2] or "").replace("_", "")
    digits = m[1].replace("_", "") + frac
    kept = digits.rstrip("0")
    if not kept:
        # zero whatever the exponent; with no digits at all, Fraction
        # refuses raw at once
        return raw[: m.start(3)] + "0" + raw[m.end(3) :] if digits else raw
    scale = int(m[3]) - len(frac) + len(digits) - len(kept)
    return raw if abs(scale) <= MAX_COEFF_BITS else None


def let_value(name: str, raw: str) -> Fraction:
    """The value of the let-binding ``name=raw``, read as ``Fraction`` reads
    a string ("3", "-2/3", "1.5", "2e-3").  The name must be an identifier,
    and the value's numerator and denominator may have at most
    ``MAX_COEFF_BITS`` bits.

    Fraction builds 10**e for an exponent e (seconds at e = 10**7), so the
    exponent is judged first, from the text: the value is K * 10**scale
    with K not a multiple of 10, so its numerator has more than 3*scale
    bits or its denominator (a multiple of 2**-scale or of 5**-scale) more
    than -scale bits, and |scale| > MAX_COEFF_BITS is refused at once.
    Digit strings are bounded by the interpreter's limit on int conversion."""
    if not name.isidentifier():
        raise InputError(f"bad let binding name {name!r}; expected an identifier")
    try:
        text = _fraction_text(raw)
        value = Fraction(text) if text is not None else None
    except (ValueError, ZeroDivisionError):
        raise InputError(
            f"bad rational value {raw[:20]!r} for let binding {name!r}; "
            "expected an integer, n/d or a decimal"
        ) from None
    if value is None or max(abs(value.numerator), value.denominator).bit_length() > MAX_COEFF_BITS:
        raise InputError(
            f"let binding {name!r}: value has a numerator or denominator of more than "
            f"{MAX_COEFF_BITS} bits"
        )
    return value


def parse_lets(pairs: Sequence[str]) -> dict[str, Fraction]:
    """Turn ["a=1", "b=-2/3"] into exact bindings (see ``let_value``)."""
    out: dict[str, Fraction] = {}
    for pair in pairs:
        name, eq, raw = pair.partition("=")
        if not eq:
            raise InputError(f"bad let binding {pair!r}; expected name=value")
        name = name.strip()
        out[name] = let_value(name, raw.strip())
    return out
