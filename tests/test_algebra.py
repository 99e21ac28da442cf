"""Exact-algebra layer: gcd, squarefree split, Hermite reduction, residues,
resultants, rational roots, and canonical forms."""

import hashlib
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ratcert import algebra
from ratcert.algebra import (
    Poly,
    RatFunc,
    _gf_gcd_degree,
    _int_str,
    _interpolate,
    _resultant_std,
    _terms_str,
    hermite_reduce,
    inverse_mod,
    poly_gcd,
    rational_roots,
    residues,
    solve_linear_system,
    squarefree_decompose,
)
from ratcert.risch import RischEquation, solve_general
from conftest import make_poly, rand_poly, rand_ratfunc
from reference import (
    bareiss_det,
    coeffs,
    coprime_refinement,
    divmod_gcd,
    euclid_resultant,
    fraction_divmod,
    fraction_gcd,
    fraction_power,
    fraction_product,
    fraction_to_str,
    gf_gcd_degree,
    newton_interpolate,
    padded,
    primitive_euclid_gcd,
    rothstein_trager_report,
    sylvester_resultant,
    trim,
)

X = Poly.x()

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys_st = st.lists(fractions_st, min_size=0, max_size=7).map(Poly)
# numerator and denominator of up to 120 bits
large_rationals_st = st.builds(
    Fraction, st.integers(-(2**120), 2**120), st.integers(1, 2**120)
).filter(bool)


def _schoolbook_product(p: Poly, q: Poly) -> Poly:
    """Every pair of coefficients, zeros included."""
    out = [Fraction(0)] * max(0, p.degree + q.degree + 1)
    for i, u in enumerate(coeffs(p)):
        for j, v in enumerate(coeffs(q)):
            out[i + j] += u * v
    return Poly(out)


# mostly zero coefficients, the shape of powers of x and shifted columns
sparse_polys_st = st.lists(
    st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions_st), min_size=0, max_size=12
).map(Poly)

nonzero_fractions_st = fractions_st.filter(bool)
_IRREDUCIBLE_QUADRATICS = (X**2 + 1, X**2 - 2, X**2 + X + 1, 2 * X**2 - 6 * X + 7)


@st.composite
def squarefree_denominators(draw):
    """A squarefree polynomial of degree 1..5: a nonzero rational times
    distinct linear factors x - r (r = 0 gives x) and irreducible
    quadratics."""
    quads = draw(st.lists(st.sampled_from(_IRREDUCIBLE_QUADRATICS), max_size=2, unique=True))
    n = draw(st.integers(0 if quads else 1, 5 - 2 * len(quads)))
    roots = draw(st.lists(fractions_st, min_size=n, max_size=n, unique=True))
    p = Poly.const(draw(nonzero_fractions_st))
    for f in [X - r for r in roots] + quads:
        p = p * f
    return p


class TestPolyMul:
    @given(sparse_polys_st, sparse_polys_st)
    @settings(deadline=None, max_examples=200)
    def test_matches_schoolbook_on_sparse_operands(self, p, q):
        assert p * q == _schoolbook_product(p, q)
        assert q * p == _schoolbook_product(q, p)

    def test_powers_of_x(self):
        assert Poly.monomial(7) * Poly.monomial(5, 3) == Poly.monomial(12, 3)
        assert (X**3 + 1) * Poly.monomial(4) == Poly.monomial(7) + Poly.monomial(4)
        assert Poly.monomial(4) * Poly.zero() == Poly.zero()


class TestPolyGcd:
    def test_common_linear_factor(self):
        assert poly_gcd(X**2 - 1, X - 1) == X - 1

    def test_gcd_with_zero_is_monic(self):
        p = make_poly(2, 4)  # 2 + 4x
        assert poly_gcd(p, Poly.zero()) == make_poly(Fraction(1, 2), 1)
        assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()

    def test_coprime_pair(self):
        # Euclid by hand: x^3 mod (x^2-1) = x, then gcd(x^2-1, x) = 1
        assert poly_gcd(X**3, X**2 - 1) == Poly.one()

    @given(polys_st, polys_st)
    @settings(deadline=None)
    def test_divides_both_and_cofactors_coprime(self, p, q):
        g = poly_gcd(p, q)
        if g.is_zero:
            assert p.is_zero and q.is_zero
            return
        assert (p % g).is_zero and (q % g).is_zero
        if g.degree > 0:
            assert poly_gcd(p.divexact(g), q.divexact(g)) == Poly.one()

    @given(polys_st, polys_st, polys_st, large_rationals_st, st.integers(0, 3))
    @settings(deadline=None, max_examples=200)
    def test_matches_euclid_on_divmod(self, f, g, h, c, k):
        # shared factors, large contents and powers of x, in either order
        pairs = [(f * g, f * h * c), (g * c, h), (f, Poly.zero()), (f.shift(k) * g, h.shift(k) * c)]
        for p, q in pairs:
            assert poly_gcd(p, q) == divmod_gcd(p, q)
            assert poly_gcd(q, p) == divmod_gcd(q, p)


class TestSquarefree:
    def test_monomial(self):
        assert squarefree_decompose(X**3) == [(X, 3)]

    def test_already_squarefree(self):
        assert squarefree_decompose(X**2 - 1) == [(X**2 - 1, 1)]

    def test_mixed_multiplicities(self):
        assert squarefree_decompose(X**3 + X**2) == [(X + 1, 1), (X, 2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decompose(Poly.zero())

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=3))
    @settings(deadline=None)
    def test_reconstruction(self, spec):
        p = Poly.const(2)
        for root, mult in spec:
            p = p * Poly([-root, 1]) ** mult
        rebuilt = Poly.const(p.lc)
        seen_mults = []
        for factor, mult in squarefree_decompose(p):
            assert poly_gcd(factor, factor.derivative()) == Poly.one()
            rebuilt = rebuilt * factor**mult
            seen_mults.append(mult)
        assert rebuilt == p
        assert seen_mults == sorted(set(seen_mults))


def _simple_part(r: RatFunc) -> RatFunc:
    return hermite_reduce(r, squarefree_decompose(r.den))


class TestHermite:
    def test_partial_fraction_example(self):
        # (x^2-x-1)/x^3 = 1/x - 1/x^2 - 1/x^3: integrable part 1/x + 1/(2x^2)
        r = RatFunc(X**2 - X - 1, X**3)
        g = _simple_part(r)
        assert r - g == RatFunc(X + Fraction(1, 2), X**2).derivative()
        assert g == RatFunc(1, X)

    def test_pure_derivative(self):
        assert _simple_part(RatFunc(1, X**2)).is_zero

    def test_already_simple(self):
        assert _simple_part(RatFunc(1, X)) == RatFunc(1, X)

    def test_reassembly_bulk(self):
        rng = random.Random(2024)
        for _ in range(1000):
            num = rand_poly(rng, 6, bound=5, max_den=2)
            den = Poly.one()
            while den.degree < 1:
                den = Poly.one()
                for _ in range(rng.randint(1, 3)):
                    den = den * Poly([rng.randint(-3, 3), 1]) ** rng.randint(1, 3)
                    if den.degree >= 8:
                        break
            r = RatFunc(num, den)
            g = _simple_part(r)
            h, _ = _hermite_by_passes(r)
            assert h.derivative() + g == r
            if not g.is_zero and g.den.degree > 0:
                assert all(m == 1 for _, m in squarefree_decompose(g.den))


class TestResidues:
    def test_single_pole(self):
        rep = residues(RatFunc(X**2 - X - 1, X**3))
        assert rep.per_factor == ((X, Fraction(1)),)
        assert rep.all_integer

    def test_high_order_pole_vacuous(self):
        rep = residues(RatFunc(5, X**4))
        assert _simple_part(RatFunc(5, X**4)).is_zero
        assert rep.per_factor == ()
        assert rep.all_integer

    def test_half_residue(self):
        rep = residues(RatFunc(1, 2 * X))
        assert rep.per_factor == ((X, Fraction(1, 2)),)
        assert not rep.all_integer

    def test_irrational_residues_not_integer(self):
        # residues at the roots of x^2 - 2 are 1/(2*sqrt(2)) and its conjugate
        rep = residues(RatFunc(1, X**2 - 2))
        assert not rep.all_integer
        assert rep.per_factor == ()

    def test_against_partial_fraction_construction(self):
        # build sums of c/(x - r) plus deeper poles; the planted residues are
        # the oracle the resultant route must reproduce
        rng = random.Random(77)
        for _ in range(120):
            points = rng.sample(range(-6, 7), rng.randint(1, 4))
            expected = {}
            r = RatFunc(rand_poly(rng, 2))
            for pt in points:
                res = Fraction(rng.randint(-4, 4))
                if res == 0:
                    continue
                expected[Fraction(pt)] = res
                r = r + RatFunc(res, Poly([-pt, 1]))
                if rng.random() < 0.4:
                    r = r + RatFunc(rng.randint(1, 3), Poly([-pt, 1]) ** rng.randint(2, 3))
            rep = residues(r)
            got = {}
            for q, c in rep.per_factor:
                for root in rational_roots(q):
                    got[root] = c
            assert got == expected

    def test_residue_poly_roots_are_residues(self):
        r = RatFunc(1, X * (X - 1))  # residues -1 at 0, 1 at 1
        rep = residues(r)
        assert rep.per_factor == ((X, Fraction(-1)), (X - 1, Fraction(1)))
        assert rep.all_integer

    def test_reports_are_pinned(self):
        # 200 seeded alphas whose denominators are products of these factors
        # to powers 0..3 (degree at most 33; the workloads reach 3 at most);
        # the digest was recorded when residues evaluated its resultants as
        # Sylvester determinants
        factors = (X, X - 1, X + 2, X**2 + 1, X**2 - 2, 2 * X + 3, X**3 - X + 1)
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for _ in range(200):
            den = Poly.one()
            for f in factors:
                den = den * f ** rng.randint(0, 3)
            num = rand_poly(rng, 6, 9, nonzero=True, max_den=4)
            rep = residues(RatFunc(num, den))
            for q, c in rep.per_factor:
                digest.update(f"{q.to_str()}:{c};".encode())
            for f, m in rep.split:
                digest.update(f"{f.to_str()}^{m};".encode())
            digest.update(f"{rep.all_integer}|".encode())
        assert digest.hexdigest() == "e905a89997d7e65a40c8ee164f2a84172fde406dc82c4075c7c89586dbb7f12e"

    @given(squarefree_denominators(), nonzero_fractions_st, polys_st, st.integers(0, 2))
    @example(X, Fraction(3), Poly.zero(), 0)
    @example(X * (X**2 + 1), Fraction(-5, 2), X + 1, 2)
    @settings(deadline=None, max_examples=150)
    def test_equal_residues_are_read_off(self, den, c, h_num, j):
        # r = h' + c*D'/D: every residue is c, and no resultant is formed
        r = RatFunc(h_num, den**j).derivative() + RatFunc(c * den.derivative(), den)
        with mock.patch.object(algebra, "_interpolate", wraps=_interpolate) as spy:
            rep = residues(r)
        assert not spy.called
        assert rep.per_factor == ((den.monic(), c),)
        assert rep.all_integer == (c.denominator == 1)
        assert rep == rothstein_trager_report(r)

    @given(
        squarefree_denominators(),
        nonzero_fractions_st,
        polys_st.filter(lambda e: not e.is_zero),
        polys_st,
        st.integers(0, 2),
    )
    @example(X * (X - 1), Fraction(1), Poly.const(1), Poly.zero(), 0)
    @settings(deadline=None, max_examples=150)
    def test_unequal_residues_take_the_resultant(self, den, c, e, h_num, j):
        # N = c*D' + e with e a nonzero remainder modulo D, not a multiple
        # of D', and N coprime to D: the residues are not all equal
        dden = den.derivative()
        e = e % den
        assume(not e.is_zero and e.monic() != dden.monic())
        num = c * dden + e
        assume(poly_gcd(num, den).degree == 0)
        r = RatFunc(h_num, den**j).derivative() + RatFunc(num, den)
        with mock.patch.object(algebra, "_interpolate", wraps=_interpolate) as spy:
            rep = residues(r)
        assert spy.called
        assert rep == rothstein_trager_report(r)

    @given(
        st.lists(fractions_st, min_size=3, max_size=6, unique=True),
        st.lists(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3)]), min_size=6, max_size=6),
        polys_st,
    )
    @example([Fraction(0), Fraction(1), Fraction(-2)], [Fraction(1)] * 2 + [Fraction(2)] * 4, Poly.zero())
    @example([Fraction(0), Fraction(1), Fraction(3)], [Fraction(1, 2)] * 2 + [Fraction(3)] * 4, X)
    @settings(deadline=None, max_examples=60)
    def test_repeated_unequal_residues(self, poles, values, h_num):
        # sum of c_i/(x - x_i) with the c_i drawn from four values, so that
        # some residue sits at several poles and R(t) is not squarefree
        cs = values[: len(poles)]
        assume(len(set(cs)) > 1)
        r = RatFunc(h_num).derivative()
        for x0, c in zip(poles, cs):
            r = r + RatFunc(c, X - x0)
        rep = residues(r)
        assert rep == rothstein_trager_report(r)
        assert {c: q.degree for q, c in rep.per_factor} == {c: cs.count(c) for c in cs}
        assert rep.all_integer == all(c.denominator == 1 for c in cs)

    @given(st.lists(st.one_of(fractions_st, large_rationals_st), min_size=1, max_size=12))
    @settings(deadline=None)
    def test_interpolation_on_ints_matches_newton(self, values):
        p = _interpolate(values)
        assert p == newton_interpolate([(Fraction(i), v) for i, v in enumerate(values)])
        assert [p.eval(i) for i in range(len(values))] == values


@st.composite
def resultant_pairs(draw):
    """(q, p) with q nonzero of degree 0..6 and p zero or of degree 0..6,
    with rational coefficients; half the pairs share a factor of degree 1
    or 2, and each may take a factor x**j, j <= 4, so that some share x."""

    def of_degree(n):
        low = draw(st.lists(fractions_st, min_size=n, max_size=n))
        return Poly(low + [draw(fractions_st.filter(bool))])

    q = of_degree(draw(st.integers(0, 6)))
    dp = draw(st.integers(-1, 6))
    p = of_degree(dp) if dp >= 0 else Poly.zero()
    if draw(st.booleans()):
        f = of_degree(draw(st.integers(1, 2)))
        q, p = q * f, p * f
    return q.shift(draw(st.integers(0, 4))), p.shift(draw(st.integers(0, 4)))


@st.composite
def prs_pairs(draw, max_shared=2):
    """(a, b), each nonzero of degree 0..7 with rational entries, many of
    them zero so that remainders often drop two or more degrees (delta > 1
    in the subresultant sequence), and leading entries of either sign; half
    the pairs share a factor of degree 1..max_shared, so the resultant is 0,
    and each side may take a factor x**j, j <= 3."""
    entries = st.one_of(st.just(Fraction(0)), fractions_st)

    def of_degree(n):
        low = draw(st.lists(entries, min_size=n, max_size=n))
        return Poly(low + [draw(nonzero_fractions_st)])

    a = of_degree(draw(st.integers(0, 7)))
    b = of_degree(draw(st.integers(0, 7)))
    if draw(st.booleans()):
        f = of_degree(draw(st.integers(1, max_shared)))
        a, b = a * f, b * f
    return a.shift(draw(st.integers(0, 3))), b.shift(draw(st.integers(0, 3)))


class TestResultant:
    # _resultant_std(q, p) = lc(q)**deg(p) * prod of p over the roots of q,
    # the routine and argument order that residues runs
    def test_distinct_linear(self):
        assert _resultant_std(X - 2, X - 1) == 1

    def test_common_root(self):
        assert _resultant_std(X, X**2) == 0

    def test_constant_second_argument(self):
        assert _resultant_std(Poly.const(2), X - 3) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            _resultant_std(Poly.zero(), X)
        # a zero second argument is a common root unless the first is constant
        assert _resultant_std(X, Poly.zero()) == 0
        assert _resultant_std(Poly.const(3), Poly.zero()) == 1

    @given(polys_st.filter(lambda p: not p.is_zero), polys_st.filter(lambda p: not p.is_zero))
    @settings(deadline=None)
    def test_vanishes_iff_common_factor(self, p, q):
        assert (_resultant_std(q, p) == 0) == (poly_gcd(p, q).degree > 0)

    @given(resultant_pairs())
    @example((X**2 - 2, X**5 + X))  # deg p > deg q
    @example((X**3 - X + 1, 2 * X**3 + Fraction(1, 3)))  # both degrees odd
    @example((Fraction(3, 2) * X**3 - 1, Poly.const(Fraction(-2, 5))))  # constant p
    @example((X**3 + X, Poly.zero()))
    @example(((X - 1) * (X**2 + 1), (X - 1) * (2 * X - 3)))  # a shared factor
    @example((X**3 * (X - 2), X**2 + 1))  # x**3 against no power of x
    @example((X**2 + Fraction(1, 2), Fraction(-3, 4) * X**4 * (X - 1)))
    @example((X**2 * (X + 1), X * (2 * X - 5)))  # x shared: zero
    @settings(deadline=None, max_examples=300)
    def test_matches_sylvester_determinant(self, pair):
        q, p = pair
        assert _resultant_std(q, p) == sylvester_resultant(q, p)

    @given(prs_pairs())
    @example((X**6 - 4 * X**3 + 1, Poly.const(-7)))
    @example((Poly.const(Fraction(-2, 3)), X**3 + X))
    @example((X**3 * (X**2 - 2), X**2 * (X + 1)))  # x shared: zero
    @example(((X**2 + 1) * (X**5 - 3), (X**2 + 1) * (2 * X**3 + 1)))
    @settings(deadline=None, max_examples=300)
    def test_subresultant_sequence_matches_references(self, pair):
        a, b = pair
        for u, w in ((a, b), (b, a)):
            expected = sylvester_resultant(u, w)
            assert euclid_resultant(u, w) == expected
            assert _resultant_std(u, w) == expected

    def test_defective_steps(self):
        # each pair's first remainder drops at least two degrees below the
        # divisor's, so the next step has delta > 1
        pairs = [
            (X**4 + 1, X**3 - 2),
            (X**7 + X + 5, X**5 - 3),
            (-3 * X**9 + 2 * X**4 - X, -(X**6) + 2 * X - 1),
            (Fraction(5, 2) * X**8 - 1, 3 * X**4 + 7),
        ]
        for a, b in pairs:
            assert (a % b).degree < b.degree - 1
            for u, w in ((a, b), (b, a)):
                assert _resultant_std(u, w) == sylvester_resultant(u, w) == euclid_resultant(u, w)

    def test_integer_operands_of_higher_degree(self):
        rng = random.Random(1967)

        def sparse():
            low = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(rng.randint(1, 14))]
            return Poly(low + [rng.choice((-1, 1)) * rng.randint(1, 9)])

        for _ in range(40):
            a, b = sparse(), sparse()
            assert _resultant_std(a, b) == sylvester_resultant(a, b) == euclid_resultant(a, b)


def _eight_pole_pair() -> tuple[Poly, Poly]:
    """The largest pair that poly_gcd meets on the order-10 equation with
    alpha = sum of 1/(x - i), i = 1..8, and beta = 1/(x - 1)**2: the
    solution's numerator, of degree 71, and its denominator
    prod (x - i)**9, of degree 72, in ``RatFunc(N, den)``."""
    alpha = sum((RatFunc(1, X - i) for i in range(1, 9)), RatFunc.zero())
    eq = RischEquation(alpha, RatFunc(1, (X - 1) ** 2), 10)
    with mock.patch.object(algebra, "poly_gcd", wraps=poly_gcd) as spy:
        assert solve_general(eq).has_rational_solution
    return max((c.args for c in spy.call_args_list), key=lambda pq: pq[0].degree + pq[1].degree)


class TestGcdBySubresultants:
    """poly_gcd reads the subresultant sequence that resultants run; Euclid
    on ``Poly.__mod__`` is the reference."""

    @given(prs_pairs(max_shared=4), st.sampled_from(["neither", "left", "right"]))
    @example(((X**4 + 1) * (X - 2), (X**3 - 2) * (X - 2)), "neither")  # delta > 1
    @example(((-3 * X**9 + 2 * X**4 - X) * (X**2 + 1), -(X**6) + 2 * X - 1), "neither")
    @example((X**3 * (X + 1) ** 4, X * (X + 1) ** 2 * (X - 3)), "neither")
    # a step with delta = 1 makes Collins' h a leading entry, and a
    # defective step after it divides by a power of that h
    @example(((3 * X**5 - 2) * (4 * X**2 + 3), (-2 * X**5 - 4 * X**4 - 5 * X + 2) * (4 * X**2 + 3)), "neither")
    @example((Fraction(-5, 2) * X**2, Poly.const(Fraction(-3, 4))), "left")
    @settings(deadline=None, max_examples=300)
    def test_sparse_pairs_match_euclid(self, pair, zero):
        # shared factors of degree 1..4, sparse entries (defective steps),
        # x**j on either side, constants, negative leads, and a zero side
        p, q = pair
        if zero == "left":
            p = Poly.zero()
        elif zero == "right":
            q = Poly.zero()
        assert poly_gcd(p, q) == divmod_gcd(p, q)
        assert poly_gcd(q, p) == divmod_gcd(q, p)

    def test_eight_pole_pair(self):
        # Euclid over Q takes seconds here: primitive Euclid is the reference
        p, q = _eight_pole_pair()
        assert (p.degree, q.degree) == (71, 72)
        f = (X - 1) * (X**2 + 3)
        assert poly_gcd(p, q) == primitive_euclid_gcd(p, q) == Poly.one()
        assert poly_gcd(q * f, p * f) == primitive_euclid_gcd(q * f, p * f) == f.monic()


class TestRationalRoots:
    def test_examples(self):
        assert rational_roots(X**2 - 1) == (Fraction(-1), Fraction(1))
        assert rational_roots(make_poly(-1, 2)) == (Fraction(1, 2),)
        assert rational_roots(X**2 + 1) == ()

    def test_multiplicities(self):
        # a repeated root is one entry
        p = (X - 1) ** 2 * (2 * X - 1) * (X**2 + 3)
        assert rational_roots(p) == (Fraction(1, 2), Fraction(1))
        assert rational_roots(X**3 * (X + 2) ** 4) == (Fraction(-2), Fraction(0))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(Poly.zero())

    def test_large_coefficients(self):
        p = Poly.one()
        for r in (1210809243, -7, Fraction(3, 1024)):
            p = p * Poly([-r, 1])
        assert rational_roots(p) == tuple(sorted((Fraction(1210809243), Fraction(-7), Fraction(3, 1024))))

    def test_highly_composite_coefficients_stay_fast(self):
        # divisor enumeration would explode on these trailing/leading values
        import time

        p = Poly([494124137984, 7, 5, 39077188880625])
        started = time.perf_counter()
        assert rational_roots(p) == ()
        assert time.perf_counter() - started < 1.0

    @given(
        st.lists(
            st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=9), st.integers(1, 2)),
            max_size=4,
        ),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=80)
    def test_planted_roots_recovered(self, planted, add_irreducible):
        p = Poly.const(2)
        for root, mult in planted:
            p = p * Poly([-root, 1]) ** mult
        if add_irreducible:
            p = p * Poly([1, 0, 1])  # no rational roots
        assert rational_roots(p) == tuple(sorted({root for root, _ in planted}))


small_primes_st = st.sampled_from([2, 3, 5, 7, 13])
int_vectors_st = st.lists(st.integers(-40, 40), max_size=9)


class TestGfGcdDegree:
    """The gcd degree modulo p by pseudo-division on ints, against long
    division reduced mod p at every step."""

    @given(small_primes_st, int_vectors_st, int_vectors_st, int_vectors_st, int_vectors_st)
    @settings(deadline=None, max_examples=300)
    def test_matches_long_division_mod_p(self, p, f, g, h, sparse):
        # x**(p*i) terms have a derivative that vanishes mod p, and entries
        # times p reduce to zero
        lacunary = [0] * (p * len(sparse))
        lacunary[::p] = sparse
        thinned = [v * p if i % 2 else v for i, v in enumerate(f)]
        pairs = [
            (f, g),
            (fraction_product(f, h), fraction_product(g, h)),
            (lacunary, [i * c for i, c in enumerate(lacunary)][1:]),
            (fraction_product(lacunary, h), fraction_product(thinned, h)),
            (thinned, [i * c for i, c in enumerate(thinned)][1:]),
        ]
        for a, b in pairs:
            ra, rb = [int(v) % p for v in a], [int(v) % p for v in b]
            expected = gf_gcd_degree(ra, rb, p)
            assert _gf_gcd_degree(ra, rb, p) == expected
            assert _gf_gcd_degree(rb, ra, p) == expected

    def test_vanishing_derivative_and_shared_factors(self):
        # x**3 + 1 = (x + 1)**3 mod 3, whose derivative 3*x**2 vanishes
        assert _gf_gcd_degree([1, 0, 0, 1], [0, 0, 0], 3) == 3
        # (x + 1)**2 * (x + 2) = x**3 + 4*x**2 + 5*x + 2 and its derivative
        # 3*x**2 + 8*x + 5 share x + 1 mod 5
        assert _gf_gcd_degree([2, 0, 4, 1], [0, 3, 3], 5) == 1
        assert _gf_gcd_degree([], [], 7) == -1
        assert _gf_gcd_degree([0, 0], [3, 1], 7) == 1


def _plain_yun(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's loop run to its end: one gcd per multiplicity, no early exit."""
    f = p.monic()
    if f.degree == 0:
        return []
    df = f.derivative()
    g = poly_gcd(f, df)
    c = f.divexact(g)
    d = df.divexact(g) - c.derivative()
    out, i = [], 1
    while c.degree > 0:
        h = poly_gcd(c, d)
        if h.degree > 0:
            out.append((h, i))
        c = c.divexact(h)
        d = d.divexact(h) - c.derivative()
        i += 1
    return out


# pairwise coprime squarefree factors: distinct linear factors, and quadratics
# without a rational root whose complex roots differ
_COPRIME_FACTORS = [
    X,
    X - 1,
    X + 2,
    X - Fraction(1, 3),
    X**2 + 1,
    X**2 - 2,
    X**2 + X + Fraction(5, 2),
]


@st.composite
def squarefree_products(draw):
    """(p, factors with multiplicities): p is a non-monic product of up to
    three coprime factors, each scaled by a rational, with multiplicities up
    to 40 and gaps such as {1, 5, 40}."""
    idx = draw(st.lists(st.integers(0, len(_COPRIME_FACTORS) - 1), min_size=1, max_size=3, unique=True))
    mults = st.sampled_from([1, 2, 3, 4, 5, 7, 12, 40])
    p = Poly.const(draw(fractions_st.filter(bool)))
    spec = []
    for i in idx:
        m = draw(mults)
        if _COPRIME_FACTORS[i].degree == 2 and m > 12:
            m = 12  # keeps the degree (and the reference loop) small
        scale = draw(st.sampled_from([1, -1, 3, Fraction(2, 5), Fraction(-7, 3)]))
        p = p * (scale * _COPRIME_FACTORS[i]) ** m
        spec.append((_COPRIME_FACTORS[i], m))
    return p, spec


class TestSquarefreeEarlyExit:
    @given(squarefree_products())
    @settings(deadline=None, max_examples=100)
    def test_matches_plain_yun_loop(self, drawn):
        p, spec = drawn
        got = squarefree_decompose(p)
        assert got == _plain_yun(p)
        rebuilt = Poly.const(p.lc)
        for factor, mult in got:
            rebuilt = rebuilt * factor**mult
        assert rebuilt == p
        assert all(isinstance(m, int) for _, m in got)

    def test_gapped_multiplicities(self):
        p = 3 * (X - 1) * (2 * X + 4) ** 5 * (X**2 + 1) ** 40
        assert squarefree_decompose(p) == [(X - 1, 1), (X + 2, 5), (X**2 + 1, 40)]
        assert squarefree_decompose(p) == _plain_yun(p)

    def test_high_powers_and_shared_multiplicity(self):
        assert squarefree_decompose(Fraction(-2, 7) * X**40) == [(X, 40)]
        p = (X * (X - 1)) ** 40 * (X + 2) ** 3
        assert squarefree_decompose(p) == [(X + 2, 3), (X**2 - X, 40)]


class TestRatFuncScalars:
    @given(
        polys_st,
        polys_st.filter(lambda p: not p.is_zero),
        fractions_st | st.integers(-9, 9),
    )
    @settings(deadline=None, max_examples=100)
    def test_scalar_product_and_quotient_match_the_general_ones(self, num, den, s):
        r = RatFunc(num, den)
        # RatFunc(s) is not a scalar, so these take the general (gcd) path
        assert r * s == r * RatFunc(s) == RatFunc(num * s, den)
        assert s * r == r * s
        if s:
            assert r / s == r / RatFunc(s)
        else:
            with pytest.raises(ZeroDivisionError):
                r / s
        for out in (r * s, r / s if s else r):
            assert out.den.lc == 1
            assert poly_gcd(out.num, out.den) == Poly.one() or out.num.is_zero

    def test_zero_scalar_gives_canonical_zero(self):
        r = RatFunc(X + 1, X**2)
        assert (r * 0).den == Poly.one() and (r * 0).is_zero
        assert (0 * r) == RatFunc.zero()


class TestPolyToStr:
    @given(
        st.lists(
            st.one_of(
                st.just(Fraction(0)),
                st.fractions(min_value=-40, max_value=40, max_denominator=12),
                st.integers(-30, 30).map(Fraction),
                st.sampled_from([Fraction(1), Fraction(-1), Fraction(10**30, 7), Fraction(-3, 10**20)]),
            ),
            max_size=9,
        ),
        st.sampled_from(["x", "z1", "t"]),
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_fraction_rendering(self, cs, var):
        p = Poly(cs)
        assert p.to_str(var) == fraction_to_str(list(coeffs(p)), var)

    def test_examples(self):
        assert Poly([Fraction(-1, 3), 0, 1, Fraction(7, 5)]).to_str() == "7/5*x^3 + x^2 - 1/3"
        assert Poly([0, -1]).to_str() == "-x"
        assert Poly([Fraction(3, 2)]).to_str() == "3/2"
        assert Poly.zero().to_str() == "0"

    def test_terms_printer_trusts_the_content(self):
        # n/d arrives in lowest terms, so a term is divided by gcd(u, d)
        # alone, and no gcd is taken with n, whose bits may far exceed u's
        assert _terms_str(3, 4, [(2, "x"), (-1, "")]) == "3/2*x - 3/4"
        assert _terms_str(-1, 1, [(-1, "y"), (5, "")]) == "y - 5"
        assert _terms_str(6, 4, [(1, "x")]) == "6/4*x"
        assert _terms_str(1, 1, []) == "0"

    def test_coefficients_past_the_digit_limit(self):
        big = 10**5000 + 1
        p = Poly([Fraction(-1, big), 0, big])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{big}*x^2 - 1/{big}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert p.to_str() == expected


class TestIntStr:
    @given(st.integers(0, 20000).flatmap(lambda d: st.integers(-(10**d), 10**d)))
    @settings(deadline=None, max_examples=60)
    def test_matches_str_under_a_lifted_limit(self, n):
        # written under the interpreter's limit, compared with the limit off
        got = _int_str(n)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert got == str(n)
        finally:
            sys.set_int_max_str_digits(limit)


class TestCanonicalForms:
    def test_reduced_and_monic(self):
        r = RatFunc(2 * X**2 - 2, 4 * X + 4)  # (2x^2-2)/(4x+4) = (x-1)/2
        assert r.den == Poly.one()
        assert r.num == make_poly(Fraction(-1, 2), Fraction(1, 2))

    def test_structural_equality(self):
        a = RatFunc(X**2 - 1, X - 1)
        b = RatFunc(X + 1)
        assert a == b and hash(a) == hash(b)

    def test_zero_canonical(self):
        assert RatFunc(Poly.zero(), 3 * X) == RatFunc.zero()
        assert RatFunc.zero().den == Poly.one()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(X, Poly.zero())

    @given(polys_st, polys_st.filter(lambda p: not p.is_zero))
    @settings(deadline=None)
    def test_constructor_always_canonical(self, num, den):
        r = RatFunc(num, den)
        assert r.den.lc == 1 if not r.den.is_zero else False
        if not r.num.is_zero:
            assert poly_gcd(r.num, r.den) == Poly.one()

    def test_arithmetic_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            a = rand_ratfunc(rng)
            b = rand_ratfunc(rng)
            assert (a + b) - b == a
            if not b.is_zero:
                assert (a * b) / b == a

    def test_derivative_quotient_rule(self):
        rng = random.Random(6)
        for _ in range(100):
            a = rand_ratfunc(rng, 3, 3)
            b = rand_ratfunc(rng, 3, 3)
            assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


# ---------------------------------------------------------------------------
# the integer-content kernel against schoolbook Fraction arithmetic
# ---------------------------------------------------------------------------

# mixed denominators, and mostly-zero lists for sparse operands
mixed_st = st.fractions(min_value=-40, max_value=40, max_denominator=12)
coeff_lists_st = st.lists(
    st.one_of(st.just(Fraction(0)), mixed_st, st.integers(-30, 30).map(Fraction)), max_size=9
)
sparse_lists_st = st.lists(st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), mixed_st), max_size=12)
any_lists_st = coeff_lists_st | sparse_lists_st


class TestIntegerKernel:
    @given(any_lists_st, any_lists_st)
    @settings(deadline=None, max_examples=120)
    def test_add_sub_mul(self, a, b):
        n = max(len(a), len(b))
        pad_a = a + [Fraction(0)] * (n - len(a))
        pad_b = b + [Fraction(0)] * (n - len(b))
        product = [Fraction(0)] * max(0, len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                product[i + j] += u * v
        p, q = Poly(a), Poly(b)
        assert coeffs(p + q) == tuple(trim([u + v for u, v in zip(pad_a, pad_b)]))
        assert coeffs(p - q) == tuple(trim([u - v for u, v in zip(pad_a, pad_b)]))
        assert coeffs(p * q) == tuple(trim(product))
        assert coeffs(-p) == tuple(trim([-u for u in a]))

    @given(any_lists_st, coeff_lists_st.filter(lambda cs: any(cs)))
    @settings(deadline=None, max_examples=120)
    def test_divmod_matches_long_division(self, a, b):
        # schoolbook long division over Q
        b = trim(b)
        rem = trim(a)
        quo = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
        while len(rem) >= len(b):
            k = len(rem) - len(b)
            f = rem[-1] / b[-1]
            quo[k] = f
            for i, c in enumerate(b):
                rem[k + i] -= f * c
            rem = trim(rem)
        q, r = divmod(Poly(a), Poly(b))
        assert coeffs(q) == tuple(trim(quo))
        assert coeffs(r) == tuple(rem)

    @given(any_lists_st, any_lists_st)
    @settings(deadline=None, max_examples=120)
    def test_gcd_matches_fraction_euclid(self, a, b):
        def remainder(x, y):
            x = trim(x)
            while len(x) >= len(y):
                k = len(x) - len(y)
                f = x[-1] / y[-1]
                for i, c in enumerate(y):
                    x[k + i] -= f * c
                x = trim(x)
            return x

        x, y = trim(a), trim(b)
        while y:
            x, y = y, remainder(x, y)
        expected = tuple(c / x[-1] for c in x) if x else ()
        assert coeffs(poly_gcd(Poly(a), Poly(b))) == expected

    @given(any_lists_st, st.fractions(min_value=-7, max_value=7, max_denominator=6))
    @settings(deadline=None, max_examples=120)
    def test_calculus_evaluation_and_monic(self, a, v):
        p = Poly(a)
        assert coeffs(p.derivative()) == tuple(trim([i * c for i, c in enumerate(a)][1:]))
        assert p.eval(v) == sum((c * v**i for i, c in enumerate(a)), Fraction(0))
        t = trim(a)
        assert coeffs(p.monic()) == (tuple(c / t[-1] for c in t) if t else ())

    @given(any_lists_st, st.fractions(max_denominator=9).filter(bool))
    @settings(deadline=None, max_examples=120)
    def test_canonical_form(self, a, s):
        from math import gcd

        p = Poly(a)
        assert all(type(v) is int for v in (*p.ints, p.val, p.cn, p.cd))
        assert p.cd > 0 and gcd(p.cn, p.cd) == 1
        if p.is_zero:
            assert (p.ints, p.val, p.cn, p.cd) == ((), 0, 0, 1)
        else:
            # x**val holds the low zeros: the first entry of ints is nonzero
            t = trim(a)
            assert p.ints[0] != 0 and p.val == next(i for i, c in enumerate(t) if c)
            assert gcd(*p.ints) == 1 and p.ints[-1] > 0
            assert Fraction(p.cn * p.ints[-1], p.cd) == t[-1]
        scaled = Poly([c * s for c in a])
        assert scaled == p * s and hash(scaled) == hash(p * s)
        assert (scaled.ints, scaled.val) == (p.ints, p.val)
        assert Poly([2, 4]) == 2 * Poly([1, 2]) and hash(Poly([2, 4])) == hash(2 * Poly([1, 2]))
        assert Poly([Fraction(1, 2), 1]) == Poly([1, 2]) * Fraction(1, 2)

    def test_constructor_rejects_inexact_values(self):
        with pytest.raises(TypeError):
            Poly([1, 0.5])
        with pytest.raises(TypeError):
            Poly(["1"])

    @given(
        any_lists_st,
        any_lists_st,
        mixed_st.filter(bool),
        st.integers(0, 4),
        st.integers(0, 3),
    )
    @settings(deadline=None, max_examples=150)
    def test_every_result_is_canonical(self, a, b, s, n, k):
        p, q = Poly(a), Poly(b)
        ta, tb = trim(a), trim(b)
        # (result, schoolbook Fraction coefficients)
        cases = [
            (p + q, [u + v for u, v in padded(ta, tb)]),
            (p - q, [u - v for u, v in padded(ta, tb)]),
            (p * q, fraction_product(ta, tb)),
            (p**n, fraction_power(ta, n)),
            (p.derivative(), [i * c for i, c in enumerate(ta)][1:]),
            (p.monic(), [c / ta[-1] for c in ta] if ta else []),
            (p.shift(k), [Fraction(0)] * k + ta if ta else []),
            (p * s, [c * s for c in ta]),
            (-p, [-c for c in ta]),
        ]
        if tb:
            got_quo, got_rem = divmod(p, q)
            quo, rem = fraction_divmod(ta, tb)
            cases += [(got_quo, quo), (got_rem, rem)]
        for got, expected in cases:
            _assert_canonical(got)
            assert coeffs(got) == tuple(trim(expected))
            twin = Poly(expected)
            assert got == twin and hash(got) == hash(twin)
        if tb:
            # the reduced form of a/b and its scalar multiples
            r = RatFunc(p, q)
            _assert_canonical_ratfunc(r)
            num, den = list(coeffs(r.num)), list(coeffs(r.den))
            assert trim(fraction_product(num, tb)) == trim(fraction_product(ta, den))
            for scaled, factor in ((r * s, s), (s * r, s), (r / s, 1 / s)):
                _assert_canonical_ratfunc(scaled)
                assert scaled.den == r.den
                assert coeffs(scaled.num) == tuple(c * factor for c in coeffs(r.num))


monomial_scales_st = st.one_of(
    st.integers(-9, -1),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    large_rationals_st,
)


class TestMonomialShifts:
    """A product with c*x**k adds k to the other factor's val and keeps its
    ints, and a division by it splits the terms at power k: both against
    Fraction arithmetic."""

    @given(
        any_lists_st | st.builds(lambda k, c: [Fraction(0)] * k + [Fraction(c)], st.integers(0, 6),
                                 monomial_scales_st),
        st.integers(0, 6),
        monomial_scales_st,
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_convolution_and_long_division(self, a, k, c):
        # the first draw is a monomial too in about half the examples
        m, ms = Poly.monomial(k, c), [Fraction(0)] * k + [Fraction(c)]
        p, ta = Poly(a), trim(a)
        product = tuple(trim(fraction_product(ta, ms)))
        quo, rem = fraction_divmod(ta, ms)
        got_quo, got_rem = divmod(p, m)
        for got, expected in ((p * m, product), (m * p, product), (got_quo, quo), (got_rem, rem)):
            _assert_canonical(got)
            assert coeffs(got) == tuple(trim(expected))

    def test_both_operands_monomials(self):
        m = Poly.monomial(3, Fraction(-2, 3))
        n = Poly.monomial(2, 2**90 + 1)
        assert m * n == n * m == Poly.monomial(5, Fraction(-2 * (2**90 + 1), 3))
        assert divmod(m, n) == (Poly.monomial(1, Fraction(-2, 3 * (2**90 + 1))), Poly.zero())
        assert divmod(n, m) == (Poly.zero(), n)
        assert divmod(m, Poly.const(Fraction(-1, 7))) == (Poly.monomial(3, Fraction(14, 3)), Poly.zero())


# a coefficient list times x**k, k up to 400: analyze --kmax 200 reaches
# x**400 in its denominators
x_power_lists_st = st.builds(
    lambda cs, k: [Fraction(0)] * k + cs, any_lists_st, st.integers(0, 400) | st.integers(0, 4)
)


class TestPowersOfXInVal:
    """Poly keeps its power of x in val: every result on operands with
    factors up to x**400, against Fraction-list arithmetic, in canonical
    form."""

    @given(x_power_lists_st, x_power_lists_st, st.fractions(min_value=-3, max_value=3, max_denominator=4))
    @settings(deadline=None, max_examples=60)
    def test_every_result_matches_fraction_lists(self, a, b, v):
        p, q = Poly(a), Poly(b)
        ta, tb = trim(a), trim(b)
        cases = [
            (p + q, [u + w for u, w in padded(ta, tb)]),
            (p - q, [u - w for u, w in padded(ta, tb)]),
            (p * q, fraction_product(ta, tb)),
            (p.derivative(), [i * c for i, c in enumerate(ta)][1:]),
            (poly_gcd(p, q), fraction_gcd(ta, tb)),
        ]
        if tb:
            quo, rem = fraction_divmod(ta, tb)
            got_quo, got_rem = divmod(p, q)
            cases += [(got_quo, quo), (got_rem, rem)]
            if not rem:
                cases.append((p.divexact(q), quo))
        for got, expected in cases:
            _assert_canonical(got)
            assert coeffs(got) == tuple(trim(expected))
        assert p.eval(v) == sum((c * v**i for i, c in enumerate(ta) if c), Fraction(0))
        assert p.to_str() == fraction_to_str(ta)

    def test_a_power_of_x_is_one_entry(self):
        # a run of 800 zeros before the change
        m = Poly.monomial(400)
        assert ((m * m).ints, (m * m).val) == ((1,), 800)
        p = (X + 1) * Poly.monomial(400, Fraction(-2, 3))
        assert (p.ints, p.val, p.cn, p.cd) == ((1, 1), 400, -2, 3)
        assert (p * m).ints is p.ints and (p * m).val == 800
        assert p.divexact(m) == Fraction(-2, 3) * (X + 1)
        assert divmod(p + 1, m) == (Fraction(-2, 3) * (X + 1), Poly.one())
        assert poly_gcd(p, m * m) == m
        assert squarefree_decompose(p * X**3) == [(X + 1, 1), (X, 403)]
        assert rational_roots(p) == (Fraction(-1), Fraction(0))


def _assert_canonical(p: Poly) -> None:
    """Primitive ints with a nonzero first entry and a positive last one,
    val >= 0, content cn/cd in lowest terms with cd > 0, and zero as
    ((), val 0, 0/1)."""
    from math import gcd

    assert all(type(v) is int for v in p.ints)
    assert type(p.val) is int and type(p.cn) is int and type(p.cd) is int
    if not p.ints:
        assert (p.ints, p.val, p.cn, p.cd) == ((), 0, 0, 1)
        return
    assert p.val >= 0 and p.ints[0] != 0
    assert p.cn != 0 and p.cd > 0 and gcd(p.cn, p.cd) == 1
    assert gcd(*p.ints) == 1 and p.ints[-1] > 0


def _assert_canonical_ratfunc(r: RatFunc) -> None:
    """Canonical parts, a monic denominator coprime to the numerator."""
    _assert_canonical(r.num)
    _assert_canonical(r.den)
    assert r.den.lc == 1
    assert poly_gcd(r.num, r.den) == Poly.one() or (r.num.is_zero and r.den == Poly.one())


def _gauss_jordan(rows, rhs, ncols):
    """Reference: Gauss-Jordan elimination over Fractions, pivot columns in
    increasing order, free unknowns set to 0."""
    aug = [[Fraction(v) for v in row] + [Fraction(val)] for row, val in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[rank])]
        pivots.append((rank, col))
        rank += 1
    if any(aug[r][ncols] != 0 for r in range(rank, len(aug))):
        return None
    solution = [Fraction(0)] * ncols
    for r, col in pivots:
        solution[col] = aug[r][ncols]
    return solution


small_st = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=5))


@st.composite
def linear_systems(draw):
    """Systems of every kind: a random matrix of a drawn rank (rows are
    combinations of a few base rows, some columns repeat), and a right-hand
    side that is either in the column space or perturbed out of it."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 6))
    rank = draw(st.integers(0, min(nrows, ncols) if nrows and ncols else 0))
    base = [draw(st.lists(small_st, min_size=ncols, max_size=ncols)) for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        weights = draw(st.lists(small_st, min_size=rank, max_size=rank))
        rows.append([sum((w * b[j] for w, b in zip(weights, base)), Fraction(0)) for j in range(ncols)])
    if ncols > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        for row in rows:
            row[dst] = row[src] * 2
    x0 = draw(st.lists(small_st, min_size=ncols, max_size=ncols))
    rhs = [sum((r[j] * x0[j] for j in range(ncols)), Fraction(0)) for r in rows]
    if rhs and draw(st.booleans()):
        i = draw(st.integers(0, len(rhs) - 1))
        rhs[i] += draw(small_st)
    # ints where the value is integral, as callers pass them
    as_int = draw(st.booleans())
    cast = (lambda v: v.numerator if v.denominator == 1 else v) if as_int else (lambda v: v)
    return [[cast(v) for v in row] for row in rows], [cast(v) for v in rhs], ncols


class TestSolveLinearSystem:
    @given(linear_systems())
    @settings(deadline=None, max_examples=200)
    def test_same_particular_solution_as_gauss_jordan(self, system):
        rows, rhs, ncols = system
        expected = _gauss_jordan(rows, rhs, ncols)
        got = solve_linear_system([list(r) for r in rows], list(rhs), ncols)
        assert got == expected
        if got is not None:
            assert all(type(v) is Fraction for v in got)
            for row, val in zip(rows, rhs):
                assert sum((a * x for a, x in zip(row, got)), Fraction(0)) == val

    def test_rank_deficient_inconsistent_and_overdetermined(self):
        # x + 2y = 3 twice, plus 2x + 4y = 6: rank 1, y free
        assert solve_linear_system([[1, 2], [1, 2], [2, 4]], [3, 3, 6], 2) == [3, 0]
        # the same rows with 2x + 4y = 7: inconsistent
        assert solve_linear_system([[1, 2], [1, 2], [2, 4]], [3, 3, 7], 2) is None
        # an all-zero row with a nonzero right-hand side
        assert solve_linear_system([[0, 0], [1, 0]], [1, 1], 2) is None
        # over-determined and consistent: x = 1/2, y = -1/3
        rows = [[2, 0], [0, 3], [Fraction(1, 2), Fraction(3, 2)], [4, -6]]
        rhs = [1, -1, Fraction(-1, 4), 4]
        assert solve_linear_system(rows, rhs, 2) == [Fraction(1, 2), Fraction(-1, 3)]
        assert solve_linear_system([], [], 3) == [0, 0, 0]


class TestDeterminant:
    # the determinant under the reference Sylvester resultant
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6) | st.just(0), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @settings(deadline=None, max_examples=120)
    def test_matches_cofactor_expansion(self, matrix):
        def cofactor(m):
            if len(m) == 1:
                return m[0][0]
            return sum(
                (-1) ** j * m[0][j] * cofactor([row[:j] + row[j + 1 :] for row in m[1:]])
                for j in range(len(m))
            )

        assert bareiss_det(matrix) == cofactor(matrix)

    def test_singular_and_permuted(self):
        assert bareiss_det([[1, 2], [2, 4]]) == 0
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30


def _hermite_by_passes(r: RatFunc) -> tuple[RatFunc, RatFunc]:
    """(h, g) with r = h' + g, g proper with simple poles: Hermite reduction
    one pole order at a time, re-splitting the reduced denominator on every
    pass: the highest-multiplicity factor v**m is lowered to v**(m-1) by
    solving s*u*v' = num modulo v."""
    poly_part, rem = divmod(r.num, r.den)
    frac = RatFunc(rem, r.den)
    h = RatFunc(Poly([0] + [c / (i + 1) for i, c in enumerate(coeffs(poly_part))]))
    while not frac.is_zero:
        dec = squarefree_decompose(frac.den)
        if not dec or dec[-1][1] == 1:
            break
        v, m = dec[-1]
        u = frac.den.divexact(v**m)
        s0 = inverse_mod(u * v.derivative(), v)
        s = (frac.num * s0) % v
        t = (frac.num - s * u * v.derivative()).divexact(v)
        h = h + RatFunc(-s, (m - 1) * v ** (m - 1))
        frac = RatFunc(t * (m - 1) + u * s.derivative(), (m - 1) * (u * v ** (m - 1)))
    return h, frac


factor_st = st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(Poly).filter(
    lambda p: p.degree >= 1
)


class TestInverseMod:
    @given(nonzero_fractions_st, polys_st.filter(lambda m: m.degree > 0))
    @settings(deadline=None)
    def test_constant_is_inverted_directly(self, a, m):
        inv = inverse_mod(Poly.const(a), m)
        assert inv == Poly.const(1 / a)
        assert (inv * a) % m == Poly.one()

    def test_zero_constant_is_not_invertible(self):
        with pytest.raises(ValueError, match="not invertible"):
            inverse_mod(Poly.zero(), X**2 + 1)
        with pytest.raises(ValueError, match="not invertible"):
            inverse_mod(Poly.const(0), X - 3)


class TestHermiteOneSplit:
    @given(
        num=st.lists(fractions_st, max_size=9).map(Poly),
        factors=st.lists(st.tuples(factor_st, st.integers(1, 4)), min_size=1, max_size=3),
    )
    @settings(deadline=None, max_examples=150)
    def test_equals_pass_by_pass_reduction(self, num, factors):
        den = Poly.one()
        for f, m in factors:
            den = den * f**m
        r = RatFunc(num, den)
        h, g = _hermite_by_passes(r)
        assert _simple_part(r) == g
        assert r - g == h.derivative()

    @given(num=st.lists(fractions_st, max_size=12).map(Poly), k=st.integers(1, 8))
    @settings(deadline=None, max_examples=60)
    def test_power_of_x_denominators(self, num, k):
        r = RatFunc(num, Poly.monomial(k))
        h, g = _hermite_by_passes(r)
        assert _simple_part(r) == g
        assert r - g == h.derivative()

    def test_residue_report_unchanged(self):
        x = Poly.x()
        r = RatFunc(3 * x**4 + x - 7, x**3 * (x - 1) ** 2 * (x**2 + 1))
        h, g = _hermite_by_passes(r)
        assert _simple_part(r) == g
        assert r - g == h.derivative()
        # r and its simple-pole part have the same residues
        assert residues(r).per_factor == residues(g).per_factor


# u(0) = content * u_ints[0] * w(0)**m: neither of the first two is a unit,
# and no draw makes u(0) = ±1
_U0_ST = st.sampled_from([2, -2, 3, -3, 4, 6, -9])
_CONTENT_ST = st.sampled_from([2, -3, Fraction(3, 2), Fraction(-5, 4), Fraction(1, 5)])
# (m, w): x**m alone, or with a factor w of multiplicity m in u, so that x*w
# is one entry of the split; the reference re-splits a denominator of degree
# about 2m on each of its m passes, so m stays lower there
_POLE_ST = st.tuples(st.integers(2, 40), st.none()) | st.tuples(
    st.integers(2, 12), st.tuples(st.sampled_from([-3, -1, 2, 5]), st.sampled_from([1, 2, 3]))
)


class TestHermitePoleAtZero:
    """The factor x**m of den(r) is lowered by one power-series division."""

    @given(
        pole=_POLE_ST,
        u_ints=st.tuples(_U0_ST, st.lists(st.integers(-4, 4), max_size=4)),
        content=_CONTENT_ST,
        num=st.tuples(fractions_st.filter(bool), st.lists(fractions_st, max_size=50)),
    )
    @example(pole=(3, (2, 1)), u_ints=(3, [0, 2]), content=2, num=(Fraction(1), [Fraction(-2), 5]))
    @example(pole=(40, None), u_ints=(2, []), content=Fraction(3, 2), num=(Fraction(5), [1] * 45))
    @settings(deadline=None, max_examples=80)
    def test_equals_pass_by_pass_reduction(self, pole, u_ints, content, num):
        # r = num/(x**m*u) with num(0) != 0, so x**m stays in den(r)
        m, w = pole
        u = content * Poly([u_ints[0], *u_ints[1]])
        if w is not None:
            u = u * Poly(list(w)) ** m
        r = RatFunc(Poly([num[0], *num[1]]), X**m * u)
        assert r.den.val == m
        h, g = _hermite_by_passes(r)
        assert _simple_part(r) == g
        assert r - g == h.derivative()

    def test_no_inverse_modulo_x(self):
        # in the second denominator x*(x + 2) is one entry of multiplicity 4:
        # only its cofactor x + 2 is inverted modulo
        moduli = []

        def spy(a, mod):
            moduli.append(mod)
            return inverse_mod(a, mod)

        shared = X**4 * (X + 2) ** 4 * (2 * X**2 + 3)
        assert (X * (X + 2), 4) in squarefree_decompose(shared)
        for den, inverted in ((X**9 * (2 * X**2 + 3), []), (shared, [X + 2])):
            r = RatFunc(3 * X**7 - X + 5, den)
            moduli.clear()
            with mock.patch.object(algebra, "inverse_mod", spy):
                g = _simple_part(r)
            assert moduli == inverted
            assert g == _hermite_by_passes(r)[1]


@st.composite
def squarefree_families(draw):
    """Squarefree polynomials that share factors: each is a nonzero rational
    times a product of distinct factors, drawn from linear factors x - c with
    drawn roots c and from the quadratics of ``_COPRIME_FACTORS``."""
    roots = draw(st.lists(fractions_st, min_size=1, max_size=5, unique=True))
    factors = [X - c for c in roots] + [f for f in _COPRIME_FACTORS if f.degree == 2]
    family = []
    for _ in range(draw(st.integers(1, 4))):
        chosen = draw(st.lists(st.sampled_from(factors), min_size=1, max_size=4, unique=True))
        p = Poly.const(draw(fractions_st.filter(bool)))
        for f in chosen:
            p = p * f
        family.append(p)
    return family


class TestCoprimeRefinementOrder:
    @given(squarefree_families())
    @settings(deadline=None, max_examples=150)
    def test_sorted_by_degree_then_coefficients(self, family):
        basis = coprime_refinement(family)
        assert basis == sorted(basis, key=lambda f: (f.degree, coeffs(f)))
        assert all(f.lc == 1 for f in basis)
        for i, f in enumerate(basis):
            assert all(poly_gcd(f, g).degree == 0 for g in basis[i + 1 :])
        for p in family:
            rest = p.monic()
            for f in basis:
                if poly_gcd(rest, f).degree > 0:
                    rest = rest.divexact(f)
            assert rest == Poly.one()
