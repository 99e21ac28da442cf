"""Recursive-descent parser for exact polynomial and rational expressions.

Grammar (no floating literals, no implicit multiplication):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := ident | uint | '(' expr ')'

Values stay ``BivarPoly`` (rows of integer-kernel polynomials) through
``+ - * ^`` and through ``/`` by a nonzero constant, so "1/2*x + 3" is the
polynomial with coefficient 1/2 and is never a fraction.  A value becomes a
``BivarRatFunc`` only below a ``/`` by a nonconstant, and is then combined
exactly as a rational function; ``parse_poly`` rejects a value whose
(monomial-stripped, unreduced) denominator is not constant, so "x^2/x" is
accepted and "(x^2-1)/(x-1)" is not.  Identifiers must be declared variables
or let-bound rational constants; anything else is a positioned error.

Input size is bounded, and every bound ends in a positioned ``ParseError``
before any work is done: parentheses nest at most ``MAX_NESTING`` deep (so
hostile input cannot exhaust the interpreter stack), an exponent is at most
``MAX_DEGREE``, no power or product may produce a numerator or denominator
of total degree above ``MAX_DEGREE``, and no power or product may produce a
coefficient whose numerator or denominator has more than ``MAX_COEFF_BITS``
bits.  That size is estimated before the arithmetic, from the largest
numerator or denominator among the operands' coefficients: n*bits for a
power, and the sum of the two sizes for a product, a quotient or a sum of
rational functions (whose terms are cross products).  A let-bound constant
is held to ``MAX_COEFF_BITS`` too; its decimal exponent is judged from the
text, before ``10**exponent`` is built (``let_value``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .algebra import Poly, RatFunc
from .planar import BivarPoly, BivarRatFunc, _bivar_rf


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class _Token(NamedTuple):
    kind: str  # INT, IDENT, OP, END
    text: str
    pos: int


_OPS = set("+-*/^()")

# each level of parentheses costs four stack frames (expr, term, factor, base)
MAX_NESTING = 100
# largest exponent, and largest total degree of a numerator or denominator
MAX_DEGREE = 200
# largest bit length of the numerator or denominator of a coefficient that
# a power or a product may produce: far below the 4300 decimal digits (about
# 14284 bits) that Python turns into a string, so every coefficient of an
# accepted input can be printed
MAX_COEFF_BITS = 4096


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            out.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("END", "", n))
    return out


def _int(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:
        # digits int() does not read (such as superscripts), or too many
        raise ParseError(f"bad integer literal {tok.text[:20]!r}", tok.pos) from None


def _degrees(value: BivarPoly | BivarRatFunc) -> tuple[int, int]:
    """Total degrees of a value's numerator and denominator (0 for zero)."""
    if isinstance(value, BivarPoly):
        return max(value.total_degree, 0), 0
    return max(value.num.total_degree, 0), value.den.total_degree


def _bound(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"total degree {degree} exceeds the limit {MAX_DEGREE}", pos)


def _bits(value: BivarPoly | BivarRatFunc) -> int:
    """Bit length of the largest numerator or denominator among a value's
    coefficients (of its numerator and denominator, for a rational value),
    read off each row's content cn/cd and its largest int v: cn*v has
    bits(cn) + bits(v) - 1 bits or one more, and a constant's row is (1,),
    so for a constant this is exact."""
    if isinstance(value, BivarRatFunc):
        return max(_bits(value.num), _bits(value.den))
    out = 0
    for r in value.rows.values():
        big = max(max(r.ints), -min(r.ints))
        out = max(out, r.cn.bit_length() + big.bit_length() - 1, r.cd.bit_length())
    return out


def _bound_bits(bits: int, pos: int, *operands: BivarPoly | BivarRatFunc) -> None:
    if bits > MAX_COEFF_BITS:
        constant = all(isinstance(v, BivarPoly) and v.total_degree <= 0 for v in operands)
        what = "constant" if constant else "coefficient"
        raise ParseError(
            f"{what} of up to {bits} bits exceeds the limit of {MAX_COEFF_BITS} bits", pos
        )


def _combine(
    op: str, a: BivarPoly | BivarRatFunc, b: BivarPoly | BivarRatFunc, pos: int
) -> BivarPoly | BivarRatFunc:
    """a op b for a binary operator; ``pos`` is the operator's position."""
    if op == "/" and b.is_zero:
        raise ParseError("division by zero", pos)
    polys = isinstance(a, BivarPoly) and isinstance(b, BivarPoly)
    if op in "*/" or not polys:
        # every coefficient of the result is a sum of products of one
        # coefficient of each operand (cross products, for rational values)
        _bound_bits(_bits(a) + _bits(b), pos, a, b)
    if polys:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        deg_a, deg_b = a.total_degree, b.total_degree
        if op == "*":
            _bound(max(deg_a + deg_b, 0), pos)
            return a * b
        if deg_b == 0:
            return a * (1 / b.coeff(0, 0))
    # a rational operand, or a division by a nonconstant: bound the degrees
    # of the products that form the unreduced result
    na, da = _degrees(a)
    nb, db = _degrees(b)
    if op == "*":
        _bound(max(na + nb, da + db), pos)
        return _bivar_rf(a) * b
    if op == "/":
        _bound(max(na + db, da + nb), pos)
        return _bivar_rf(a) / b
    _bound(max(na + db, nb + da, da + db), pos)
    return _bivar_rf(a) + b if op == "+" else _bivar_rf(a) - b


class _Parser:
    def __init__(
        self,
        text: str,
        variables: Sequence[str],
        lets: Mapping[str, Fraction] | None,
    ):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.variables = tuple(variables)
        self.lets = dict(lets or {})
        for name in self.lets:
            if name in self.variables:
                raise ParseError(f"let-binding shadows variable {name!r}", 0)

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        self.advance()

    def parse(self) -> BivarPoly | BivarRatFunc:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expr(self) -> BivarPoly | BivarRatFunc:
        tok = self.peek()
        negate = False
        if tok.kind == "OP" and tok.text in "+-":
            negate = tok.text == "-"
            self.advance()
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                value = _combine(tok.text, value, self.term(), tok.pos)
            else:
                return value

    def term(self) -> BivarPoly | BivarRatFunc:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.advance()
                value = _combine(tok.text, value, self.factor(), tok.pos)
            else:
                return value

    def factor(self) -> BivarPoly | BivarRatFunc:
        value = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "INT":
                raise ParseError("exponent must be an unsigned integer", etok.pos)
            self.advance()
            n = _int(etok)
            if n > MAX_DEGREE:
                raise ParseError(f"exponent {n} exceeds the limit {MAX_DEGREE}", etok.pos)
            degree = max(_degrees(value))
            _bound(n * degree, tok.pos)
            _bound_bits(n * _bits(value), tok.pos, value)
            if isinstance(value, BivarPoly):
                value = value**n
            else:
                value = BivarRatFunc(value.num**n, value.den**n)
        return value

    def base(self) -> BivarPoly | BivarRatFunc:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return BivarPoly.const(_int(tok))
        if tok.kind == "IDENT":
            self.advance()
            if tok.text in self.variables:
                return BivarPoly.var(self.variables.index(tok.text))
            if tok.text in self.lets:
                return BivarPoly.const(self.lets[tok.text])
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "OP" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)


def _parse(
    text: str, variables: Sequence[str], lets: Mapping[str, Fraction] | None
) -> BivarPoly | BivarRatFunc:
    if len(variables) != 2 or variables[0] == variables[1]:
        raise ValueError("exactly two distinct variable names are required")
    return _Parser(text, variables, lets).parse()


def parse_rational(
    text: str,
    variables: Sequence[str] = ("x", "y"),
    lets: Mapping[str, Fraction] | None = None,
) -> BivarRatFunc:
    return _bivar_rf(_parse(text, variables, lets))


def parse_poly(
    text: str,
    variables: Sequence[str] = ("x", "y"),
    lets: Mapping[str, Fraction] | None = None,
) -> BivarPoly:
    """Parse a polynomial; rejects values with a nonconstant denominator."""
    value = _parse(text, variables, lets)
    if isinstance(value, BivarPoly):
        return value
    if value.den.total_degree > 0:
        raise ParseError("expression is not a polynomial", len(text))
    return value.num * (1 / value.den.coeff(0, 0))


def _to_univar(p: BivarPoly, position_hint: int) -> Poly:
    if p.rows.keys() - {0}:
        raise ParseError("expected a univariate expression", position_hint)
    return p.rows.get(0, Poly.zero())


def parse_univar_ratfunc(
    text: str, var: str = "x", lets: Mapping[str, Fraction] | None = None
) -> RatFunc:
    """Parse a univariate rational function such as "(x+1)/x^2"."""
    value = _parse(text, (var, var + "__second"), lets)
    if isinstance(value, BivarPoly):
        return RatFunc(_to_univar(value, 0))
    return RatFunc(_to_univar(value.num, 0), _to_univar(value.den, 0))


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
        raise ValueError(f"bad let binding name {name!r}; expected an identifier")
    try:
        text = _fraction_text(raw)
        value = Fraction(text) if text is not None else None
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"bad rational value {raw[:20]!r} for let binding {name!r}; "
            "expected an integer, n/d or a decimal"
        ) from None
    if value is None or max(abs(value.numerator), value.denominator).bit_length() > MAX_COEFF_BITS:
        raise ValueError(
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
            raise ValueError(f"bad let binding {pair!r}; expected name=value")
        name = name.strip()
        out[name] = let_value(name, raw.strip())
    return out
