"""Planar fields: homogeneous split, infinity chart change, invariant curves,
variational coefficients, Darboux verification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratcert.algebra import Poly, RatFunc
from ratcert.planar import (
    BivarPoly,
    BivarRatFunc,
    DegenerateCurveError,
    PlanarField,
    _part_at_one,
    family_from_P,
    foliation_derivatives,
    infinity_transform,
    is_invariant_curve,
    verify_darboux_integral,
)
from conftest import projective_relations_hold, rand_bivar, rand_family
from reference import (
    bivar_terms_str,
    coeffs,
    fields_equivalent,
    homogeneous_parts,
    lve2_coefficients_from_parts,
)

Z1, Z2 = BivarPoly.var(0), BivarPoly.var(1)
XV, YV = BivarPoly.var(0), BivarPoly.var(1)
X = Poly.x()


def _in_x(p: Poly) -> BivarPoly:
    """p as a bivariate polynomial in the first variable alone."""
    return BivarPoly({(i, 0): c for i, c in enumerate(coeffs(p))})


def cubic_example_field(a=1, b=1, c=1) -> PlanarField:
    """(x^3 - y) d/dx + y*(x^2 - c*x - b - a*y) d/dy"""
    q = YV * (XV**2 - c * XV - BivarPoly.const(b) - a * YV)
    return PlanarField(XV**3 - YV, q)


def elementary_example_field(a=1) -> PlanarField:
    """(x^2 - y) d/dx + y*(x + a) d/dy"""
    return PlanarField(XV**2 - YV, YV * (XV + BivarPoly.const(a)))


class TestHomogeneousParts:
    def test_two_parts(self):
        parts = homogeneous_parts(Z2**2 - Z1)
        assert parts == [BivarPoly.zero(), -Z1, Z2**2]

    def test_zero(self):
        assert homogeneous_parts(BivarPoly.zero()) == []

    def test_quadratic_field_component(self):
        # a*b*z1^2 + c*z1*z2 - z2^2 + z1 at a = b = c = 1
        p = Z1**2 + Z1 * Z2 - Z2**2 + Z1
        parts = homogeneous_parts(p)
        assert parts[1] == Z1
        assert parts[2] == Z1**2 + Z1 * Z2 - Z2**2

    def test_sum_recovers_and_degrees_match(self):
        rng = random.Random(31)
        for _ in range(50):
            p = rand_bivar(rng, 5)
            parts = homogeneous_parts(p)
            total = BivarPoly.zero()
            for d, part in enumerate(parts):
                assert part.is_homogeneous(d)
                total = total + part
            assert total == p


class TestInfinityTransform:
    def test_rotation_like_field(self):
        out = infinity_transform(PlanarField(Z2, Z1))
        assert out.p == XV**2 - 1
        assert out.q == XV * YV

    def test_radial_component(self):
        out = infinity_transform(PlanarField(Z1, BivarPoly.zero()))
        assert out.p == XV
        assert out.q == YV

    def test_family_round_trip_to_quotient_form(self):
        # transformed family must be exactly (x^k - y, y*sum P_j(1,x)*y^(n-j))
        rng = random.Random(4)
        for _ in range(40):
            parts, n, k = rand_family(rng)
            field = family_from_P(parts, n, k)
            out = infinity_transform(field)
            expected_p = XV**k - YV
            inner = BivarPoly.zero()
            for j in range(1, n + 1):
                pj = _in_x(_part_at_one(parts[j], j))
                inner = inner + pj * YV ** (n - j)
            assert out.p == expected_p
            assert out.q == YV * inner

    def test_chart_relations(self):
        rng = random.Random(9)
        count = 0
        while count < 25:
            p = rand_bivar(rng, 4)
            q = rand_bivar(rng, 4)
            if p.is_zero and q.is_zero:
                continue
            assert projective_relations_hold(PlanarField(p, q))
            count += 1

    @given(
        terms_p=st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=5
        ),
        terms_q=st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=5
        ),
    )
    @settings(deadline=None, max_examples=80)
    def test_chart_relations_property(self, terms_p, terms_q):
        p, q = BivarPoly(terms_p), BivarPoly(terms_q)
        if p.is_zero and q.is_zero:
            return
        assert projective_relations_hold(PlanarField(p, q))


class TestFamilyFromP:
    def test_minimal_quadratic_family(self):
        fam = family_from_P([BivarPoly.zero(), BivarPoly.zero(), Z1**2], 2, 2)
        parts = homogeneous_parts(fam.q)
        assert parts[1] == Z1
        assert parts[2] == Z1 * Z2 - Z2**2
        out = infinity_transform(fam)
        assert fields_equivalent(out, PlanarField(XV**2 - YV, YV))

    def test_cubic_family_constant_profile(self):
        # P_3(1,x) = a, P_2(1,x) = b gives foliation y*(b*y + a)/(x^3 - y)
        a, b = 1, 1
        parts = [BivarPoly.zero(), BivarPoly.zero(), b * Z1**2, a * Z1**3]
        out = infinity_transform(family_from_P(parts, 3, 3))
        expected = PlanarField(XV**3 - YV, YV * (b * YV + BivarPoly.const(a)))
        assert fields_equivalent(out, expected)

    def test_cubic_family_linear_profile(self):
        # P_3 = a*z1^3 + b*z1^2*z2 gives P_3(1,x) = a + b*x
        a, b = 1, 1
        parts = [BivarPoly.zero(), BivarPoly.zero(), BivarPoly.zero(), a * Z1**3 + b * Z1**2 * Z2]
        out = infinity_transform(family_from_P(parts, 3, 3))
        expected = PlanarField(XV**3 - YV, YV * (BivarPoly.const(a) + b * XV))
        assert fields_equivalent(out, expected)

    def test_precondition_failures_name_the_part(self):
        with pytest.raises(ValueError, match="part 2"):
            family_from_P([BivarPoly.zero(), BivarPoly.zero(), Z2**2], 2, 2)
        with pytest.raises(ValueError, match="part 0"):
            family_from_P([BivarPoly.const(1), BivarPoly.zero(), Z1**2], 2, 2)
        with pytest.raises(ValueError, match="part 1"):
            family_from_P([BivarPoly.zero(), Z1**2, Z1**2], 2, 2)
        with pytest.raises(ValueError):
            family_from_P([BivarPoly.zero(), BivarPoly.zero(), Z1**2], 2, 5)
        with pytest.raises(ValueError):
            family_from_P([BivarPoly.zero(), Z1], 1, 1)


class TestInvariantCurve:
    def test_cubic_example_keeps_zero_line(self):
        assert is_invariant_curve(cubic_example_field(), RatFunc.zero())

    def test_elementary_example_keeps_zero_line(self):
        assert is_invariant_curve(elementary_example_field(), RatFunc.zero())

    def test_translation_field_does_not(self):
        field = PlanarField(BivarPoly.const(1), BivarPoly.const(1))
        assert not is_invariant_curve(field, RatFunc.zero())

    def test_degenerate_parametrisation_distinct_error(self):
        field = PlanarField(YV, YV + XV)
        with pytest.raises(DegenerateCurveError):
            is_invariant_curve(field, RatFunc.zero())

    def test_nonzero_graph_curve(self):
        # y = x is invariant for x d/dx + y d/dy
        field = PlanarField(XV, YV)
        assert is_invariant_curve(field, RatFunc(X))


def _series_derivatives(field: PlanarField, phi: RatFunc, count: int) -> list[RatFunc]:
    """Independent route to the curve-restricted y-derivatives: expand
    Q(x, phi + t)/P(x, phi + t) as a power series in t by exact series
    division and scale the Taylor coefficients."""
    import math

    def shifted_coeffs(p: BivarPoly) -> list[RatFunc]:
        rows = p.rows
        maxj = max(rows, default=0)
        out = [RatFunc.zero()] * (maxj + 1)
        for j, rowpoly in rows.items():
            base = RatFunc(rowpoly)
            for t_pow in range(j + 1):
                out[t_pow] = out[t_pow] + base * math.comb(j, t_pow) * phi ** (j - t_pow)
        return out

    num = shifted_coeffs(field.q)
    den = shifted_coeffs(field.p)
    order = count + 1
    num += [RatFunc.zero()] * (order - len(num))
    den += [RatFunc.zero()] * (order - len(den))
    inv = [RatFunc.zero()] * order
    inv[0] = RatFunc.one() / den[0]
    for r in range(1, order):
        acc = RatFunc.zero()
        for i in range(1, r + 1):
            acc = acc + den[i] * inv[r - i]
        inv[r] = -acc / den[0]
    series = [RatFunc.zero()] * order
    for r in range(order):
        for i in range(r + 1):
            series[r] = series[r] + num[i] * inv[r - i]
    return [series[j] * math.factorial(j) for j in range(1, count + 1)]


class TestFoliationDerivatives:
    def test_cubic_example_values(self):
        b1, b2 = foliation_derivatives(cubic_example_field(), RatFunc.zero(), 2)
        assert b1 == RatFunc(X**2 - X - 1, X**3)
        assert b2 == -2 * (RatFunc(1, X**3) - RatFunc(X**2 - X - 1, X**6))

    def test_linear_slope(self):
        field = PlanarField(BivarPoly.const(1), YV)  # slope y
        b1, b2 = foliation_derivatives(field, RatFunc.zero(), 2)
        assert b1 == RatFunc.one()
        assert b2.is_zero

    def test_elementary_example_against_part_formula(self):
        field = elementary_example_field()
        b1, b2 = foliation_derivatives(field, RatFunc.zero(), 2)
        assert b1 == RatFunc(X + 1, X**2)
        # read the part data off the field shape: q = y*(x+1) means
        # P_N(1,x) = x+1, q has no y^2 row so P_{N-1}(1,x) = 0, and the
        # y-rows of p give x*P_{N-1} - Q_{N-1} = -1, x*P_N - Q_N = x^2
        pn = X + 1
        qn = X * pn - X**2
        qn1 = Poly.one()
        beta_formula = RatFunc(2 * (pn * qn1 - Poly.zero() * qn), (X * pn - qn) ** 2)
        assert b2 == beta_formula

    def test_matches_series_division_route(self):
        rng = random.Random(12)
        checked = 0
        while checked < 25:
            parts, n, k = rand_family(rng, max_n=4)
            field = infinity_transform(family_from_P(parts, n, k))
            phi = RatFunc.zero()
            direct = foliation_derivatives(field, phi, 4)
            oracle = _series_derivatives(field, phi, 4)
            assert direct == oracle
            checked += 1

    def test_nonzero_curve_matches_series_route(self):
        field = PlanarField(XV, YV)  # foliation y/x, y = x invariant
        phi = RatFunc(X)
        direct = foliation_derivatives(field, phi, 3)
        oracle = _series_derivatives(field, phi, 3)
        assert direct == oracle

    def test_requires_invariance(self):
        field = PlanarField(BivarPoly.const(1), BivarPoly.const(1))
        with pytest.raises(ValueError):
            foliation_derivatives(field, RatFunc.zero(), 2)


class TestLve2FromParts:
    def test_constant_profile_family(self):
        for k in (2, 3, 4):
            n = max(k, 2)
            parts = [BivarPoly.zero()] * (n + 1)
            parts[n] = Z1**n
            if n - 1 >= 1:
                parts[n - 1] = Z1 ** (n - 1)
            field = family_from_P(parts, n, k)
            alpha, beta = lve2_coefficients_from_parts(field)
            assert alpha == RatFunc(1, X**k)
            assert beta == RatFunc(2, X ** (2 * k)) + RatFunc(2, X**k)

    def test_linear_profile_quadratic_family(self):
        parts = [BivarPoly.zero(), BivarPoly.zero(), Z1**2 + Z1 * Z2]
        field = family_from_P(parts, 2, 2)
        alpha, beta = lve2_coefficients_from_parts(field)
        assert alpha == RatFunc(X + 1, X**2)
        assert beta == RatFunc(2 * (X + 1), X**4)

    def test_agrees_with_curve_derivatives(self):
        rng = random.Random(21)
        checked = 0
        while checked < 30:
            parts, n, k = rand_family(rng, max_n=5)
            field = family_from_P(parts, n, k)
            alpha, beta = lve2_coefficients_from_parts(field)
            b1, b2 = foliation_derivatives(infinity_transform(field), RatFunc.zero(), 2)
            assert alpha == b1 and beta == b2
            checked += 1


class TestDarboux:
    def test_elementary_example_integral(self):
        field = elementary_example_field()
        r = BivarRatFunc(XV + YV, YV)
        s = BivarRatFunc(-(XV + 1), XV + YV)
        assert verify_darboux_integral(field, r, s)

    def test_constants_always_pass(self):
        field = cubic_example_field()
        assert verify_darboux_integral(field, BivarRatFunc(BivarPoly.const(1)), BivarRatFunc(BivarPoly.zero()))

    def test_non_integral_rejected(self):
        field = PlanarField(BivarPoly.const(1), BivarPoly.zero())
        assert not verify_darboux_integral(field, BivarRatFunc(XV), BivarRatFunc(BivarPoly.zero()))

    def test_zero_r_rejected(self):
        with pytest.raises(ValueError):
            verify_darboux_integral(cubic_example_field(), BivarRatFunc(BivarPoly.zero()), BivarRatFunc(XV))


class TestFieldEquivalence:
    def test_scaling_is_equivalent(self):
        a = PlanarField(XV, YV)
        b = PlanarField(3 * XV, 3 * YV)
        c = PlanarField(XV * XV, XV * YV)
        assert fields_equivalent(a, b)
        assert fields_equivalent(a, c)

    def test_different_foliation(self):
        assert not fields_equivalent(PlanarField(XV, YV), PlanarField(YV, XV))


# ---------------------------------------------------------------------------
# the row form of BivarPoly against plain (i, j) -> Fraction dictionaries
# ---------------------------------------------------------------------------

small_fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=3)
wide_fractions_st = st.builds(
    Fraction, st.integers(-(2**100), 2**100).filter(bool), st.integers(1, 2**100)
)
term_dicts_st = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), small_fractions_st, max_size=7
)


def _clean(d: dict) -> dict:
    return {k: c for k, c in d.items() if c}


def _dict_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return _clean(out)


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return _clean(out)


def _dict_pow(a: dict, n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = _dict_mul(out, a)
    return out


def _dict_infinity_transform(p: dict, q: dict) -> tuple[dict, dict]:
    """The chart change read term by term: c*z1^a*z2^b in P_i (i = a + b)
    adds c*x^b to P_i(1, x), which the transform multiplies by y^(N-i)."""
    n = max(a + b for a, b in [*p, *q])
    p_out: dict = {}
    q_out: dict = {}
    for (a, b), c in p.items():
        e = n - a - b
        p_out[(b + 1, e)] = p_out.get((b + 1, e), 0) + c
        q_out[(b, e + 1)] = q_out.get((b, e + 1), 0) + c
    for (a, b), c in q.items():
        e = n - a - b
        p_out[(b, e)] = p_out.get((b, e), 0) - c
    return _clean(p_out), _clean(q_out)



class TestRowKernel:
    @given(a=term_dicts_st, b=term_dicts_st, n=st.integers(0, 4), s=small_fractions_st)
    @settings(deadline=None, max_examples=150)
    def test_arithmetic_matches_dict_reference(self, a, b, n, s):
        pa, pb = BivarPoly(a), BivarPoly(b)
        assert pa.terms == _clean(a)
        assert (pa + pb).terms == _dict_add(a, b)
        assert (pa - pb).terms == _dict_add(a, b, -1)
        assert (-pa).terms == _dict_add({}, a, -1)
        assert (pa * pb).terms == _dict_mul(a, b)
        assert (pa * s).terms == _clean({k: c * s for k, c in a.items()})
        assert (pa**n).terms == _dict_pow(a, n)
        assert pa.total_degree == max((i + j for i, j in _clean(a)), default=-1)

    @given(a=term_dicts_st, b=term_dicts_st)
    @settings(deadline=None, max_examples=100)
    def test_equality_hash_and_queries(self, a, b):
        pa, pb = BivarPoly(a), BivarPoly(b)
        assert (pa == pb) == (_clean(a) == _clean(b))
        assert pa == BivarPoly(_clean(a)) and hash(pa) == hash(BivarPoly(_clean(a)))
        for key in [(0, 0), (1, 2), (4, 4), (5, 0)]:
            assert pa.coeff(*key) == a.get(key, 0)
        assert pa.swap_vars().terms == {(j, i): c for (i, j), c in _clean(a).items()}
        diff_x = _clean({(i - 1, j): c * i for (i, j), c in a.items() if i})
        diff_y = _clean({(i, j - 1): c * j for (i, j), c in a.items() if j})
        assert pa.diff(0).terms == diff_x and pa.diff(1).terms == diff_y

    @given(p=term_dicts_st, q=term_dicts_st)
    @settings(deadline=None, max_examples=120)
    def test_infinity_transform_matches_dict_reference(self, p, q):
        p, q = _clean(p), _clean(q)
        if not p and not q:
            return
        out = infinity_transform(PlanarField(BivarPoly(p), BivarPoly(q)))
        expected_p, expected_q = _dict_infinity_transform(p, q)
        assert out.p.terms == expected_p
        assert out.q.terms == expected_q

    @given(num=term_dicts_st, den=term_dicts_st)
    @settings(deadline=None, max_examples=120)
    def test_rational_normalisation_matches_dict_reference(self, num, den):
        num, den = _clean(num), _clean(den)
        if not den:
            return
        r = BivarRatFunc(BivarPoly(num), BivarPoly(den))
        if not num:
            assert r.num.is_zero and r.den == BivarPoly.const(1)
            return
        # strip the common monomial, then scale by the coefficient of the
        # denominator at its largest (i, j) key
        i0 = min(i for i, _ in [*num, *den])
        j0 = min(j for _, j in [*num, *den])
        num = {(i - i0, j - j0): c for (i, j), c in num.items()}
        den = {(i - i0, j - j0): c for (i, j), c in den.items()}
        lead = den[max(den)]
        assert r.num.terms == {k: c / lead for k, c in num.items()}
        assert r.den.terms == {k: c / lead for k, c in den.items()}

    def test_single_row_powers_are_direct(self):
        assert (XV**7).terms == {(7, 0): 1}
        assert ((3 * XV**2 * YV) ** 4).terms == {(8, 4): 81}
        assert ((XV + 1) ** 3).terms == {(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1}

    def test_large_power_in_rows(self):
        from math import factorial

        p = (XV + YV + 1) ** 60
        assert p.coeff(20, 20) == factorial(60) // factorial(20) ** 3
        assert p.total_degree == 60 and len(p.terms) == 61 * 62 // 2

    @given(data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_printer_matches_fraction_terms(self, data):
        # rows with their own 100-bit contents, negative leads and gaps, so
        # the common denominator is far from every row's own
        terms = {}
        for j in data.draw(st.sets(st.integers(0, 4), max_size=4)):
            content = data.draw(wide_fractions_st)
            ints = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
            for i, v in enumerate(ints):
                if v:
                    terms[(i, j)] = content * v
        p = BivarPoly(terms)
        assert p.to_str() == bivar_terms_str(p)
        assert p.to_str(("z1", "z2")) == bivar_terms_str(p, ("z1", "z2"))

    def test_printer_on_rows_with_unlike_denominators(self):
        big = 2**100 + 277
        p = BivarPoly(
            {(2, 0): Fraction(1, 6), (0, 0): Fraction(-3, 4), (1, 1): Fraction(-5, big), (0, 2): Fraction(big, 9)}
        )
        assert p.to_str() == bivar_terms_str(p)
        assert p.to_str() == f"1/6*x^2 - 5/{big}*x*y + {big}/9*y^2 - 3/4"
        assert BivarPoly({(0, 0): Fraction(-7, 3)}).to_str() == "-7/3"
        assert BivarPoly.zero().to_str() == "0"

    def test_constructor_rejects_inexact_and_negative(self):
        with pytest.raises(TypeError):
            BivarPoly({(1, 0): 0.5})
        with pytest.raises(ValueError):
            BivarPoly({(-1, 0): 1})


# ---------------------------------------------------------------------------
# series betas against the y-derivative recursion
# ---------------------------------------------------------------------------


def _subst(f: BivarPoly, phi: RatFunc) -> RatFunc:
    """f(x, phi(x)) by Horner in y over the rows."""
    rows = f.rows
    acc = RatFunc.zero()
    for j in range(max(rows, default=0), -1, -1):
        acc = acc * phi + RatFunc(rows.get(j, Poly.zero()))
    return acc


def _derivative_betas(field: PlanarField, phi: RatFunc, count: int) -> list[RatFunc]:
    """beta_j = (d/dy)^j (Q/P) on y = phi: with D_j = d^j/dy^j(Q/P)*P^(j+1),
    D_j = D_{j-1,y}*P - j*D_{j-1}*P_y, restricted to the curve."""
    p_on = _subst(field.p, phi)
    current = field.q
    out = []
    for j in range(1, count + 1):
        current = current.diff(1) * field.p - j * current * field.p.diff(1)
        out.append(_subst(current, phi) / p_on ** (j + 1))
    return out


def _invariant_reference(field: PlanarField, phi: RatFunc) -> bool:
    p_on = _subst(field.p, phi)
    if p_on.is_zero:
        raise DegenerateCurveError("P vanishes")
    return (_subst(field.q, phi) - phi.derivative() * p_on).is_zero


bivar_st = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=4
).map(BivarPoly)
univar_st = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(Poly)


def _field_through(phi: RatFunc, a: BivarPoly, b: BivarPoly, c: BivarPoly) -> PlanarField:
    """A field with y = n/d invariant: with F = d*y - n, P = d^2*A + F*C and
    Q = (n'*d - n*d')*A + F*B give Q(x, phi) = phi'*P(x, phi)."""
    n, d = phi.num, phi.den
    f = _in_x(d) * BivarPoly.var(1) - _in_x(n)
    p = _in_x(d * d) * a + f * c
    q = _in_x(n.derivative() * d - n * d.derivative()) * a + f * b
    return PlanarField(p, q)


class TestSeriesBetas:
    @given(
        n=univar_st,
        d=univar_st.filter(lambda p: not p.is_zero),
        rational=st.booleans(),
        a=bivar_st,
        b=bivar_st,
        c=bivar_st,
        count=st.integers(1, 4),
    )
    @settings(deadline=None, max_examples=120)
    def test_series_equals_derivative_recursion(self, n, d, rational, a, b, c, count):
        phi = RatFunc(n, d) if rational else RatFunc(n)
        if a.is_zero and c.is_zero:
            return
        field = _field_through(phi, a, b, c)
        try:
            assert is_invariant_curve(field, phi)
        except DegenerateCurveError:
            return
        assert foliation_derivatives(field, phi, count) == _derivative_betas(field, phi, count)

    @given(p=bivar_st, q=bivar_st, n=univar_st, d=univar_st.filter(lambda p: not p.is_zero))
    @settings(deadline=None, max_examples=150)
    def test_invariance_on_cleared_denominators(self, p, q, n, d):
        if p.is_zero and q.is_zero:
            return
        field, phi = PlanarField(p, q), RatFunc(n, d)
        try:
            expected = _invariant_reference(field, phi)
        except DegenerateCurveError:
            with pytest.raises(DegenerateCurveError):
                is_invariant_curve(field, phi)
            return
        assert is_invariant_curve(field, phi) == expected

    def test_rational_curve_example(self):
        # y = 1/x is invariant for x d/dx - y d/dy (slope -y/x)
        field = PlanarField(XV, -YV)
        phi = RatFunc(1, X)
        assert is_invariant_curve(field, phi)
        assert foliation_derivatives(field, phi, 3) == _derivative_betas(field, phi, 3)
        assert foliation_derivatives(field, phi, 1) == [RatFunc(-1, X)]

    def test_not_invariant_message_kept(self):
        field = PlanarField(XV, YV + 1)
        with pytest.raises(ValueError, match="not invariant"):
            foliation_derivatives(field, RatFunc(X), 2)
