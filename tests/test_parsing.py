"""Expression front-end: exact parsing, positioned errors, emission round-trips."""

import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratcert.algebra import Poly, RatFunc
from ratcert.planar import BivarPoly, BivarRatFunc
from ratcert.parsing import (
    _parse,
    _tokenize,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    ParseError,
    parse_lets,
    parse_poly,
    parse_univar_ratfunc,
)
from conftest import rand_bivar

X = Poly.x()


def _parse_rational(text: str, lets=None) -> BivarRatFunc:
    """The parser's value of ``text`` in x, y, a polynomial over 1 when it
    has no nonconstant denominator."""
    value = _parse(text, ("x", "y"), lets)
    return value if type(value) is BivarRatFunc else BivarRatFunc(value)


class TestParsePoly:
    def test_monomials_and_signs(self):
        assert parse_poly("x^3 - y") == BivarPoly({(3, 0): 1, (0, 1): -1})

    def test_product_expansion(self):
        got = parse_poly("y*(x^2 - x - 1 - y)")
        expected = BivarPoly({(2, 1): 1, (1, 1): -1, (0, 1): -1, (0, 2): -1})
        assert got == expected

    def test_fraction_coefficients(self):
        assert parse_poly("1/2*x + 3") == BivarPoly({(1, 0): Fraction(1, 2), (0, 0): 3})

    def test_leading_minus_and_zero(self):
        assert parse_poly("-y") == BivarPoly({(0, 1): -1})
        assert parse_poly("0") == BivarPoly.zero()

    def test_power_of_parenthesised_expression(self):
        assert parse_poly("(x + y)^2") == BivarPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_custom_variable_names(self):
        got = parse_poly("z1^2 - z2", ("z1", "z2"))
        assert got == BivarPoly({(2, 0): 1, (0, 1): -1})

    def test_lets_substituted_exactly(self):
        got = parse_poly("a*x + b", lets={"a": Fraction(-2, 3), "b": Fraction(5)})
        assert got == BivarPoly({(1, 0): Fraction(-2, 3), (0, 0): 5})


def _refusal(call, text: str, *args) -> tuple[str, int]:
    with pytest.raises(ParseError) as info:
        call(text, *args)
    assert str(info.value) == f"{info.value.message} (at position {info.value.position})"
    return info.value.message, info.value.position


class TestParseErrors:
    def test_syntax_error_is_positioned(self):
        assert _refusal(parse_poly, "x + * y") == ("unexpected '*'", 4)
        assert _refusal(parse_poly, "x)") == ("unexpected ')'", 1)
        assert _refusal(parse_poly, "") == ("unexpected end of input", 0)
        assert _refusal(parse_poly, "x -") == ("unexpected end of input", 3)

    def test_unknown_identifier_positioned(self):
        assert _refusal(parse_poly, "x + w") == ("unknown identifier 'w'", 4)

    def test_implicit_multiplication_rejected(self):
        assert _refusal(parse_poly, "2x") == ("unexpected 'x'", 1)
        assert _refusal(parse_poly, "x y") == ("unexpected 'y'", 2)

    def test_non_polynomial_rejected(self):
        assert _refusal(parse_poly, "1/x") == ("expression is not a polynomial", 3)

    def test_float_literals_rejected(self):
        assert _refusal(parse_poly, "0.5*x") == ("unexpected character '.'", 1)

    def test_fractional_exponent_rejected(self):
        assert _refusal(parse_poly, "x^(1/2)") == ("exponent must be an unsigned integer", 2)
        assert _refusal(parse_poly, "x^") == ("exponent must be an unsigned integer", 2)

    def test_division_by_zero_rejected(self):
        assert _refusal(parse_poly, "x/0") == ("division by zero", 1)
        assert _refusal(parse_poly, "x/(y - y)") == ("division by zero", 1)

    def test_unbalanced_parens(self):
        assert _refusal(parse_poly, "(x + y") == ("expected ')'", 6)

    def test_let_shadowing_a_variable(self):
        assert _refusal(parse_poly, "x", ("x", "y"), {"y": Fraction(1)}) == (
            "let-binding shadows variable 'y'",
            0,
        )
        # the text is read first
        assert _refusal(parse_poly, "x $", ("x", "y"), {"y": Fraction(1)}) == (
            "unexpected character '$'",
            2,
        )


class TestNestingLimit:
    def test_limit_is_accepted(self):
        text = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_poly(text) == BivarPoly({(1, 0): 1})

    def test_deep_nesting_is_positioned_error(self):
        text = "(" * 2000 + "x" + ")" * 2000
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == MAX_NESTING

    def test_limit_counts_open_parentheses_only(self):
        # siblings do not add up: depth returns to zero after each group
        text = "+".join(["(" * MAX_NESTING + "x" + ")" * MAX_NESTING] * 3)
        assert parse_poly(text) == BivarPoly({(1, 0): 3})


class TestParseUnivar:
    def test_rational_forms(self):
        assert parse_univar_ratfunc("(x+1)/x^2") == RatFunc(X + 1, X**2)
        assert parse_univar_ratfunc("(2*x+2)/x^4") == RatFunc(2 * X + 2, X**4)

    def test_division_binds_like_multiplication(self):
        assert parse_univar_ratfunc("1/x + 1") == RatFunc(1, X) + RatFunc.one()
        assert parse_univar_ratfunc("x/2") == RatFunc(X) / 2

    def test_constant_zero(self):
        assert parse_univar_ratfunc("0") == RatFunc.zero()

    def test_second_variable_not_allowed(self):
        assert _refusal(parse_univar_ratfunc, "x + y") == ("unknown identifier 'y'", 4)

    def test_only_the_one_variable_is_declared(self):
        # no hidden second variable: every other name is unknown, and a let
        # may take any name but the variable's
        for text, var in [("x__second", "x"), ("x__second + 1", "x"), ("1 + u__second", "u")]:
            name = text.strip("1 +")
            assert _refusal(parse_univar_ratfunc, text, var) == (
                f"unknown identifier {name!r}",
                text.index(name),
            )
        lets = {"x__second": Fraction(2)}
        assert parse_univar_ratfunc("x + x__second", "x", lets) == RatFunc(X + 2)
        assert _refusal(parse_univar_ratfunc, "1", "x", {"x": Fraction(1)}) == (
            "let-binding shadows variable 'x'",
            0,
        )

    def test_rational_values_keep_the_bivariate_normalisation(self):
        # only the common power of x is cancelled before the end: x^2/x is x
        # at once, while (x^2-1)/(x-1) keeps degree 2 over 1, so its 101st
        # power is refused although x + 1 has degree 1, as for two variables
        assert parse_univar_ratfunc("(x^2/x)^150") == RatFunc(X**150)
        assert parse_univar_ratfunc("(x^2-1)/(x-1)") == RatFunc(X + 1)
        text = "((x^2-1)/(x-1))^101"
        refused = ("total degree 202 exceeds the limit 200", 15)
        assert _refusal(parse_univar_ratfunc, text) == _refusal(_parse_rational, text) == refused


class TestParseLets:
    def test_values(self):
        assert parse_lets(["a=1", "b=-2/3"]) == {"a": Fraction(1), "b": Fraction(-2, 3)}

    def test_decimal_strings_stay_exact(self):
        assert parse_lets(["a=1.5"]) == {"a": Fraction(3, 2)}

    def test_bad_bindings(self):
        for bad in ("a", "=1", "a=", "a=x", "2=3"):
            with pytest.raises(ValueError):
                parse_lets([bad])

    def test_values_held_to_the_coefficient_bound(self):
        # 2**4096 - 1 has 4096 bits and 10**1233 has 4096; one more is refused
        started = time.perf_counter()
        top = 2**MAX_COEFF_BITS
        assert parse_lets([f"a={top - 1}"]) == {"a": Fraction(top - 1)}
        assert parse_lets(["a=1e1233", "b=-25e-2"]) == {"a": Fraction(10**1233), "b": Fraction(-1, 4)}
        # trailing zeros of the significand move into the exponent
        assert parse_lets(["a=1" + "0" * 3000 + "e-3000"]) == {"a": Fraction(1)}
        # a zero significand is 0 whatever its exponent, and is not expanded
        assert parse_lets(["a=0.00e10000000"]) == {"a": Fraction(0)}
        for raw in (str(top), f"1/{top}", "1e1234", "-5e-4096", "1e10000000", "3.5e-10000000"):
            with pytest.raises(ValueError, match=f"let binding 'a': .* more than {MAX_COEFF_BITS} bits"):
                parse_lets([f"a={raw}"])
        # no exponent is expanded: 10**(10**7) alone takes seconds to build
        assert time.perf_counter() - started < 2.0


class TestEmission:
    def test_fixture_round_trips(self):
        fixtures = [
            "x^3 - y",
            "y*(x^2 - x - 1 - y)",
            "1/2*x + 3",
            "-x^2*y + 4*y^3 - 1",
            "0",
        ]
        for text in fixtures:
            poly = parse_poly(text)
            again = parse_poly(poly.to_str())
            assert again == poly

    def test_random_round_trips(self):
        rng = random.Random(123)
        for _ in range(500):
            poly = rand_bivar(rng, 5, bound=9)
            assert parse_poly(poly.to_str()) == poly

    def test_fraction_coefficients_round_trip(self):
        poly = BivarPoly({(2, 1): Fraction(-7, 3), (0, 0): Fraction(1, 6)})
        assert parse_poly(poly.to_str()) == poly

    def test_ratfunc_strings_reparse(self):
        values = [
            RatFunc(4 * X + 2, X**2),
            RatFunc(-6 * X**2 + 2, X**3),
            RatFunc.zero(),
            RatFunc(X) / 3,
        ]
        for value in values:
            assert parse_univar_ratfunc(value.to_str()) == value

    def test_rational_expression_parser_agrees(self):
        got = _parse_rational("(x^2 - 1)/(x*y + 2)")
        assert got.num == BivarPoly({(2, 0): 1, (0, 0): -1})
        assert got.den == BivarPoly({(1, 1): 1, (0, 0): 2})


# ---------------------------------------------------------------------------
# the parser against a BivarRatFunc-at-every-node evaluator that applies
# every bound, with its message and position
# ---------------------------------------------------------------------------

# let-bound leaves near MAX_COEFF_BITS: b has 4095 bits, c's denominator 4094
# and e's numerator 4096, so a product with a small leaf lands on either
# side of the bound
LETS = {
    "a": Fraction(-2, 3),
    "b": Fraction(2**4095 - 1),
    "c": Fraction(1, 3**2583),
    "e": Fraction(-(2**4096 - 1), 7),
}
BIG = str(2**4093 + 1)  # a literal of 4094 bits
leaves_st = st.sampled_from(["x", "y", "0", "1", "2", "3", "a"] * 2 + ["b", "c", "e", BIG])
trees_st = st.recursive(
    leaves_st,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("^"), sub, st.integers(0, 4)),
        st.tuples(st.just("neg"), sub),
    ),
    max_leaves=8,
)


def _render(tree) -> str:
    if isinstance(tree, str):
        return tree
    if tree[0] == "neg":
        return f"(-({_render(tree[1])}))"
    if tree[0] == "^":
        return f"({_render(tree[1])})^{tree[2]}"
    return f"({_render(tree[1])}){tree[0]}({_render(tree[2])})"


class _Refused(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(message, position)
        self.message = message
        self.position = position


def _row_bits(p: BivarPoly) -> int:
    """The parser's size estimate, written out: per row, cn*v has at most
    bits(cn) + bits(v) bits and at least one fewer, so bits(cn) + bits(max
    |v|) - 1 for the numerators, and bits(cd) for the denominator.  The
    row's ints run from its lowest nonzero term (x**val holds the zeros
    below it) to its highest, so every coefficient is some cn*v/cd."""
    out = 0
    for row in p.rows.values():
        assert row.ints[0] and row.ints[-1] > 0
        big = max(abs(v) for v in row.ints)
        out = max(out, row.cn.bit_length() + big.bit_length() - 1, row.cd.bit_length())
    return out


class _Node:
    """A value as the parser holds it: polynomial until a / by a
    nonconstant (or an operand that is already rational)."""

    def __init__(self, value: BivarRatFunc, rational: bool):
        self.value = value
        self.rational = rational

    @property
    def bits(self) -> int:
        if self.rational:
            return max(_row_bits(self.value.num), _row_bits(self.value.den))
        return _row_bits(self.value.num)

    @property
    def degrees(self) -> tuple[int, int]:
        den = self.value.den.total_degree if self.rational else 0
        return max(self.value.num.total_degree, 0), den

    @property
    def constant(self) -> bool:
        return not self.rational and self.value.num.total_degree <= 0


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise _Refused(f"total degree {degree} exceeds the limit {MAX_DEGREE}", pos)


def _check_bits(bits: int, pos: int, *nodes: _Node) -> None:
    if bits > MAX_COEFF_BITS:
        what = "constant" if all(n.constant for n in nodes) else "coefficient"
        message = f"{what} of up to {bits} bits exceeds the limit of {MAX_COEFF_BITS} bits"
        raise _Refused(message, pos)


def _reference(tree, start: int = 0) -> _Node:
    """The value of ``_render(tree)``, whose text begins at ``start``: every
    node a BivarRatFunc, as the parser once evaluated.  Division by zero, a
    total degree over MAX_DEGREE and a coefficient estimated over
    MAX_COEFF_BITS are refused at the operator, in evaluation order."""
    if isinstance(tree, str):
        if tree in ("x", "y"):
            return _Node(BivarRatFunc(BivarPoly.var("xy".index(tree))), False)
        c = LETS[tree] if tree in LETS else int(tree)
        return _Node(BivarRatFunc(BivarPoly.const(c)), False)
    if tree[0] == "neg":
        node = _reference(tree[1], start + 3)
        return _Node(-node.value, node.rational)
    lhs = _reference(tree[1], start + 1)
    pos = start + len(_render(tree[1])) + 2
    if tree[0] == "^":
        n = tree[2]
        _check_degree(n * max(lhs.degrees), pos)
        _check_bits(n * lhs.bits, pos, lhs)
        return _Node(BivarRatFunc(lhs.value.num**n, lhs.value.den**n), lhs.rational)
    op = tree[0]
    rhs = _reference(tree[2], pos + 2)
    if op == "/" and rhs.value.is_zero:
        raise _Refused("division by zero", pos)
    rational = lhs.rational or rhs.rational
    if op in "*/" or rational:
        _check_bits(lhs.bits + rhs.bits, pos, lhs, rhs)
    if not rational:
        a, b = lhs.value.num, rhs.value.num
        if op == "*":
            _check_degree(max(a.total_degree + b.total_degree, 0), pos)
        # a quotient by a nonconstant is rational from here on
        rational = op == "/" and b.total_degree > 0
    if rational:
        # the degrees of the products that form the unreduced result
        (na, da), (nb, db) = lhs.degrees, rhs.degrees
        if op == "*":
            _check_degree(max(na + nb, da + db), pos)
        elif op == "/":
            _check_degree(max(na + db, da + nb), pos)
        else:
            _check_degree(max(na + db, nb + da, da + db), pos)
    arithmetic = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    return _Node(arithmetic[op](lhs.value, rhs.value), rational)


def _reference_poly(text: str, tree) -> BivarPoly:
    node = _reference(tree)
    if node.value.den.total_degree > 0:
        raise _Refused("expression is not a polynomial", len(text))
    return node.value.num * (1 / node.value.den.coeff(0, 0))


def _assert_refused(call, refused: _Refused) -> None:
    with pytest.raises(ParseError) as info:
        call()
    assert (info.value.message, info.value.position) == (refused.message, refused.position)


class TestPolynomialFirstParser:
    @given(tree=trees_st)
    @settings(deadline=None, max_examples=300)
    def test_parse_rational_equals_reference(self, tree):
        text = _render(tree)
        try:
            expected = _reference(tree).value
        except _Refused as refused:
            _assert_refused(lambda: _parse_rational(text, lets=LETS), refused)
            return
        got = _parse_rational(text, lets=LETS)
        # the same normalisation, so the same numerator and denominator
        assert got.num.terms == expected.num.terms
        assert got.den.terms == expected.den.terms

    @given(tree=trees_st)
    @settings(deadline=None, max_examples=300)
    def test_parse_poly_equals_reference(self, tree):
        text = _render(tree)
        try:
            expected = _reference_poly(text, tree)
        except _Refused as refused:
            _assert_refused(lambda: parse_poly(text, lets=LETS), refused)
            return
        assert parse_poly(text, lets=LETS).terms == expected.terms

    @given(tree=trees_st)
    @settings(deadline=None, max_examples=200)
    def test_parse_univar_equals_reference(self, tree):
        text = _render(tree).replace("y", "x")
        try:
            expected = _reference(_replace_y(tree)).value
        except _Refused as refused:
            _assert_refused(lambda: parse_univar_ratfunc(text, lets=LETS), refused)
            return
        got = parse_univar_ratfunc(text, lets=LETS)
        num = Poly([expected.num.coeff(i, 0) for i in range(expected.num.total_degree + 1)])
        den = Poly([expected.den.coeff(i, 0) for i in range(expected.den.total_degree + 1)])
        assert got == RatFunc(num, den)

    def test_reference_reaches_the_bit_bound(self):
        # products of a big leaf with a small one, on either side of the bound
        for tree, bits in [
            (("*", "b", "1"), 4096),
            (("*", "b", "x"), 4096),
            (("*", "c", "3"), 4096),
            (("*", "b", "2"), 4097),
            (("*", "e", "x"), 4097),
            (("/", "x", "e"), 4097),
        ]:
            text = _render(tree)
            if bits <= MAX_COEFF_BITS:
                assert _reference(tree).bits <= MAX_COEFF_BITS
                _parse_rational(text, lets=LETS)
                continue
            with pytest.raises(_Refused) as info:
                _reference(tree)
            assert f"of up to {bits} bits" in info.value.message
            _assert_refused(lambda: _parse_rational(text, lets=LETS), info.value)

    def test_normalisation_decides_acceptance(self):
        # the common monomial is stripped, no other common factor is
        assert parse_poly("x^2/x") == BivarPoly.var(0)
        assert parse_poly("x^3*y/(x*y)") == BivarPoly({(2, 0): 1})
        with pytest.raises(ParseError, match="not a polynomial"):
            parse_poly("(x^2-1)/(x-1)")
        with pytest.raises(ParseError, match="not a polynomial"):
            parse_poly("(x^2-1)/(x-1)", ("x", "y"))

    def test_division_by_constants_stays_polynomial(self):
        assert parse_poly("x/2 + y/(1/3)") == BivarPoly({(1, 0): Fraction(1, 2), (0, 1): 3})
        assert parse_poly("(x/x)/(2/4)") == BivarPoly.const(2)
        assert _parse_rational("x/(2*a)", lets=LETS).den == BivarPoly.const(1)
        with pytest.raises(ParseError, match="division by zero"):
            parse_poly("x/(y - y)")


def _replace_y(tree):
    if isinstance(tree, str):
        return "x" if tree == "y" else tree
    return (tree[0], *(_replace_y(t) if not isinstance(t, int) else t for t in tree[1:]))


class TestDegreeBound:
    def test_bound_is_inclusive(self):
        assert parse_poly(f"x^{MAX_DEGREE}") == BivarPoly({(MAX_DEGREE, 0): 1})
        assert parse_poly(f"x^100*y^{MAX_DEGREE - 100}").total_degree == MAX_DEGREE

    def test_large_exponent_is_positioned_error(self):
        with pytest.raises(ParseError) as info:
            parse_poly(f"1 + x^{MAX_DEGREE + 1}")
        assert info.value.position == 6
        assert _refusal(parse_poly, "2^99999999999") == (
            "exponent 99999999999 exceeds the limit 200",
            2,
        )

    def test_power_bound_checked_before_computing(self):
        text = "(x^2 + y + 1)^101*2"
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == text.index(")^") + 1
        assert "total degree 202" in info.value.message
        assert _refusal(parse_poly, "((x^20)^20)^20") == (
            "total degree 400 exceeds the limit 200",
            7,
        )

    def test_product_bound_checked_before_computing(self):
        text = "x^150*y^51"
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == text.index("*")
        assert _refusal(parse_univar_ratfunc, "1/x^150 + 1/(x+1)^60") == (
            "total degree 210 exceeds the limit 200",
            8,
        )
        assert _refusal(parse_univar_ratfunc, "1/(x+1)^101 * 1/(x-1)^100") == (
            "total degree 201 exceeds the limit 200",
            15,
        )

    def test_bad_integer_literals_are_parse_errors(self):
        assert _refusal(parse_poly, "x^\u00b2") == ("bad integer literal '\u00b2'", 2)
        assert _refusal(parse_poly, "9" * 5000 + "*x") == (f"bad integer literal {'9' * 20!r}", 0)


class TestCoefficientBound:
    def test_constants_within_the_bound_print(self):
        assert len(str(-(1 << MAX_COEFF_BITS))) < 4300

    def test_power_of_a_constant_checked_before_computing(self):
        text = "z1 + ((9^200)^200)^200*z2"
        with pytest.raises(ParseError) as info:
            parse_poly(text, ("z1", "z2"))
        assert info.value.position == text.index(")^") + 1
        assert info.value.message == (
            f"constant of up to 126800 bits exceeds the limit of {MAX_COEFF_BITS} bits"
        )

    def test_power_just_under_and_over_the_bound(self):
        # 2^200 has 201 bits, so (2^200)^20 is estimated at 4020 bits
        assert parse_poly("(2^200)^20*x") == BivarPoly({(1, 0): 2**4000})
        with pytest.raises(ParseError) as info:
            parse_poly("(2^200)^21*x")
        assert info.value.position == 7

    def test_product_and_quotient_of_constants(self):
        text = "(9^200)^4*(9^200)^4*y"
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == text.index("*")
        assert _refusal(parse_poly, "x + (9^200)^4/(7^200)^5") == (
            f"constant of up to 5344 bits exceeds the limit of {MAX_COEFF_BITS} bits",
            13,
        )
        assert parse_poly("(9^200)^2*(9^200)^2*x") == BivarPoly({(1, 0): 9**800})


grammar_text_st = st.text(alphabet="xy0123456789+-*/^() a_", max_size=40)


class TestArbitraryText:
    @given(text=grammar_text_st)
    @settings(deadline=None, max_examples=400)
    def test_parse_poly_returns_or_raises_parse_error(self, text):
        try:
            parse_poly(text, lets=LETS)
        except ParseError:
            pass

    @given(text=grammar_text_st)
    @settings(deadline=None, max_examples=400)
    def test_parse_univar_returns_or_raises_parse_error(self, text):
        try:
            parse_univar_ratfunc(text, lets=LETS)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# the tokenizer against a copy of its character rules
# ---------------------------------------------------------------------------

_OPERATORS = "+-*/^()"


def _starts(ch: str) -> str | None:
    """The token a character starts under the rules the parser has always
    had: None for white space, "ERROR" for a character no token starts with."""
    if ch.isspace():
        return None
    if ch.isdigit():
        return "INT"
    if ch.isalpha() or ch == "_":
        return "IDENT"
    if ch in _OPERATORS:
        return "OP"
    return "ERROR"


def _expected_tokens(ch: str) -> list[tuple[str, str, int]]:
    """Tokens of ch + " a" + ch + " 1" + ch: ch alone, ch after an
    identifier and ch after an integer."""
    out = []

    def alone(pos):
        kind = _starts(ch)
        if kind is not None:
            out.append((kind, ch, pos))

    alone(0)
    if ch.isalnum() or ch == "_":
        out.append(("IDENT", "a" + ch, 2))
    else:
        out.append(("IDENT", "a", 2))
        alone(3)
    if ch.isdigit():
        out.append(("INT", "1" + ch, 5))
    else:
        out.append(("INT", "1", 5))
        alone(6)
    out.append(("END", "", 7))
    return out


def test_every_code_point_keeps_its_token_class():
    mismatched = []
    for cp in range(0x110000):
        ch = chr(cp)
        if _starts(ch) == "ERROR":
            try:
                _tokenize(ch)
            except ParseError as exc:
                if (exc.message, exc.position) == (f"unexpected character {ch!r}", 0):
                    continue
            mismatched.append(cp)
            continue
        tokens = _tokenize(f"{ch} a{ch} 1{ch}")
        got = [("OP" if kind in _OPERATORS else kind, text, pos) for kind, text, pos in tokens]
        if got != _expected_tokens(ch):
            mismatched.append(cp)
    assert mismatched == []
