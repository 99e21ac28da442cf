"""Expression front-end: exact parsing, positioned errors, emission round-trips."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratcert.algebra import Poly, RatFunc
from ratcert.planar import BivarPoly, BivarRatFunc
from ratcert.parsing import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    ParseError,
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
        got = parse_rational("(x^2 - 1)/(x*y + 2)")
        assert got.num == BivarPoly({(2, 0): 1, (0, 0): -1})
        assert got.den == BivarPoly({(1, 1): 1, (0, 0): 2})


# ---------------------------------------------------------------------------
# the polynomial-first parser against a BivarRatFunc-at-every-node evaluator
# ---------------------------------------------------------------------------

LETS = {"a": Fraction(-2, 3)}
leaves_st = st.sampled_from(["x", "y", "0", "1", "2", "3", "a"])
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


class _Rejected(Exception):
    pass


def _bounded(num_degree: int, den_degree: int) -> None:
    if max(num_degree, den_degree) > MAX_DEGREE:
        raise _Rejected


def _degrees(r: BivarRatFunc) -> tuple[int, int]:
    return max(r.num.total_degree, 0), r.den.total_degree


def _reference(tree) -> BivarRatFunc:
    """Every node a BivarRatFunc, as the parser once evaluated; products
    whose unreduced numerator or denominator would pass MAX_DEGREE, and
    division by zero, reject."""
    if isinstance(tree, str):
        if tree in ("x", "y"):
            return BivarRatFunc(BivarPoly.var("xy".index(tree)))
        return BivarRatFunc(BivarPoly.const(LETS[tree] if tree == "a" else int(tree)))
    if tree[0] == "neg":
        return -_reference(tree[1])
    if tree[0] == "^":
        base, n = _reference(tree[1]), tree[2]
        _bounded(n * max(_degrees(base)), 0)
        return BivarRatFunc(base.num**n, base.den**n)
    lhs, rhs = _reference(tree[1]), _reference(tree[2])
    (na, da), (nb, db) = _degrees(lhs), _degrees(rhs)
    op = tree[0]
    if op == "*":
        _bounded(na + nb, da + db)
        return lhs * rhs
    if op == "/":
        if rhs.is_zero:
            raise _Rejected
        _bounded(na + db, da + nb)
        return lhs / rhs
    _bounded(max(na + db, nb + da), da + db)
    return lhs + rhs if op == "+" else lhs - rhs


def _reference_poly(tree) -> BivarPoly:
    value = _reference(tree)
    if value.den.total_degree > 0:
        raise _Rejected
    return value.num * (1 / value.den.coeff(0, 0))


class TestPolynomialFirstParser:
    @given(tree=trees_st)
    @settings(deadline=None, max_examples=300)
    def test_parse_rational_equals_reference(self, tree):
        text = _render(tree)
        try:
            expected = _reference(tree)
        except _Rejected:
            with pytest.raises(ParseError):
                parse_rational(text, lets=LETS)
            return
        got = parse_rational(text, lets=LETS)
        # the same normalisation, so the same numerator and denominator
        assert got.num.terms == expected.num.terms
        assert got.den.terms == expected.den.terms

    @given(tree=trees_st)
    @settings(deadline=None, max_examples=300)
    def test_parse_poly_equals_reference(self, tree):
        text = _render(tree)
        try:
            expected = _reference_poly(tree)
        except _Rejected:
            with pytest.raises(ParseError):
                parse_poly(text, lets=LETS)
            return
        assert parse_poly(text, lets=LETS).terms == expected.terms

    @given(tree=trees_st)
    @settings(deadline=None, max_examples=200)
    def test_parse_univar_equals_reference(self, tree):
        text = _render(tree).replace("y", "x")
        tree_x = _replace_y(tree)
        try:
            expected = _reference(tree_x)
        except _Rejected:
            with pytest.raises(ParseError):
                parse_univar_ratfunc(text, lets=LETS)
            return
        got = parse_univar_ratfunc(text, lets=LETS)
        num = Poly([expected.num.coeff(i, 0) for i in range(expected.num.total_degree + 1)])
        den = Poly([expected.den.coeff(i, 0) for i in range(expected.den.total_degree + 1)])
        assert got == RatFunc(num, den)

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
        assert parse_rational("x/(2*a)", lets=LETS).den == BivarPoly.const(1)
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
        with pytest.raises(ParseError, match="exponent"):
            parse_poly("2^99999999999")

    def test_power_bound_checked_before_computing(self):
        text = "(x^2 + y + 1)^101*2"
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == text.index(")^") + 1
        assert "total degree 202" in info.value.message
        with pytest.raises(ParseError):
            parse_poly("((x^20)^20)^20")

    def test_product_bound_checked_before_computing(self):
        text = "x^150*y^51"
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == text.index("*")
        with pytest.raises(ParseError):
            parse_univar_ratfunc("1/x^150 + 1/(x+1)^60")
        with pytest.raises(ParseError):
            parse_univar_ratfunc("1/(x+1)^101 * 1/(x-1)^100")

    def test_bad_integer_literals_are_parse_errors(self):
        with pytest.raises(ParseError):
            parse_poly("x^\u00b2")
        with pytest.raises(ParseError):
            parse_poly("9" * 5000 + "*x")


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
        with pytest.raises(ParseError):
            parse_poly("x + (9^200)^4/(7^200)^5")
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
