"""Recursive-descent parser for exact polynomial and rational expressions.

Grammar (no floating literals, no implicit multiplication):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := ident | uint | '(' expr ')'

Division is evaluated exactly on rational functions, so "1/2*x + 3" yields
the polynomial with coefficient 1/2 and ``parse_poly`` rejects any input
whose value has a nonconstant denominator.  Identifiers must be declared
variables or let-bound rational constants; anything else is a positioned
error.  Parentheses nest at most ``MAX_NESTING`` deep, so hostile input ends
in a positioned error rather than exhausting the interpreter stack.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .algebra import Poly, RatFunc
from .planar import BivarPoly, BivarRatFunc


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

    def parse(self) -> BivarRatFunc:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expr(self) -> BivarRatFunc:
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
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> BivarRatFunc:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                if tok.text == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero", tok.pos)
                    value = value / rhs
            else:
                return value

    def factor(self) -> BivarRatFunc:
        value = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "INT":
                raise ParseError("exponent must be an unsigned integer", etok.pos)
            self.advance()
            value = BivarRatFunc(value.num ** int(etok.text), value.den ** int(etok.text))
        return value

    def base(self) -> BivarRatFunc:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return BivarRatFunc(BivarPoly.const(int(tok.text)))
        if tok.kind == "IDENT":
            self.advance()
            if tok.text in self.variables:
                return BivarRatFunc(BivarPoly.var(self.variables.index(tok.text)))
            if tok.text in self.lets:
                return BivarRatFunc(BivarPoly.const(self.lets[tok.text]))
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


def parse_rational(
    text: str,
    variables: Sequence[str] = ("x", "y"),
    lets: Mapping[str, Fraction] | None = None,
) -> BivarRatFunc:
    if len(variables) != 2 or variables[0] == variables[1]:
        raise ValueError("exactly two distinct variable names are required")
    return _Parser(text, variables, lets).parse()


def parse_poly(
    text: str,
    variables: Sequence[str] = ("x", "y"),
    lets: Mapping[str, Fraction] | None = None,
) -> BivarPoly:
    """Parse a polynomial; rejects values with a nonconstant denominator."""
    value = parse_rational(text, variables, lets)
    if value.den.total_degree > 0:
        raise ParseError("expression is not a polynomial", len(text))
    scale = value.den.coeff(0, 0)
    return value.num * (1 / scale)


def _to_univar(p: BivarPoly, position_hint: int) -> Poly:
    if any(j for _, j in p.terms):
        raise ParseError("expected a univariate expression", position_hint)
    out: dict[int, Fraction] = {i: c for (i, _), c in p.terms.items()}
    if not out:
        return Poly.zero()
    coeffs = [Fraction(0)] * (max(out) + 1)
    for i, c in out.items():
        coeffs[i] = c
    return Poly(coeffs)


def parse_univar_ratfunc(
    text: str, var: str = "x", lets: Mapping[str, Fraction] | None = None
) -> RatFunc:
    """Parse a univariate rational function such as "(x+1)/x^2"."""
    dummy = var + "__second"
    value = parse_rational(text, (var, dummy), lets)
    return RatFunc(_to_univar(value.num, 0), _to_univar(value.den, 0))


def parse_lets(pairs: Sequence[str]) -> dict[str, Fraction]:
    """Turn ["a=1", "b=-2/3"] into exact bindings."""
    out: dict[str, Fraction] = {}
    for pair in pairs:
        name, eq, raw = pair.partition("=")
        name = name.strip()
        raw = raw.strip()
        if not eq or not name.isidentifier() or not raw:
            raise ValueError(f"bad let binding {pair!r}; expected name=value")
        try:
            out[name] = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational value in {pair!r}: {exc}") from None
    return out


def emit_poly(p: BivarPoly, variables: tuple[str, str] = ("x", "y")) -> str:
    """Canonical expression string that reparses to an equal polynomial."""
    return p.to_str(variables)


def emit_ratfunc(r: RatFunc, var: str = "x") -> str:
    return r.to_str(var)
