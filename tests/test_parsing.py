"""Expression front-end: exact parsing, positioned errors, emission round-trips."""

import random
from fractions import Fraction

import pytest

from ratcert.algebra import Poly, RatFunc
from ratcert.planar import BivarPoly
from ratcert.parsing import (
    MAX_NESTING,
    ParseError,
    emit_poly,
    parse_lets,
    parse_poly,
    parse_rational,
    parse_univar_ratfunc,
)
from conftest import rand_bivar

X = Poly.x()


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


class TestParseErrors:
    def test_syntax_error_is_positioned(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x + * y")
        assert info.value.position == 4

    def test_unknown_identifier_positioned(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x + w")
        assert info.value.position == 4
        assert "w" in info.value.message

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2x")
        with pytest.raises(ParseError):
            parse_poly("x y")

    def test_non_polynomial_rejected(self):
        with pytest.raises(ParseError, match="not a polynomial"):
            parse_poly("1/x")

    def test_float_literals_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("0.5*x")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^(1/2)")

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x/0")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_poly("(x + y")


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
        with pytest.raises(ParseError):
            parse_univar_ratfunc("x + y")


class TestParseLets:
    def test_values(self):
        assert parse_lets(["a=1", "b=-2/3"]) == {"a": Fraction(1), "b": Fraction(-2, 3)}

    def test_decimal_strings_stay_exact(self):
        assert parse_lets(["a=1.5"]) == {"a": Fraction(3, 2)}

    def test_bad_bindings(self):
        for bad in ("a", "=1", "a=", "a=x", "2=3"):
            with pytest.raises(ValueError):
                parse_lets([bad])


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
            again = parse_poly(emit_poly(poly))
            assert again == poly

    def test_random_round_trips(self):
        rng = random.Random(123)
        for _ in range(500):
            poly = rand_bivar(rng, 5, bound=9)
            assert parse_poly(emit_poly(poly)) == poly

    def test_fraction_coefficients_round_trip(self):
        poly = BivarPoly({(2, 1): Fraction(-7, 3), (0, 0): Fraction(1, 6)})
        assert parse_poly(emit_poly(poly)) == poly

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
        got = parse_rational("(x^2 - 1)/(x*y + 2)")
        assert got.num == BivarPoly({(2, 0): 1, (0, 0): -1})
        assert got.den == BivarPoly({(1, 1): 1, (0, 0): 2})
