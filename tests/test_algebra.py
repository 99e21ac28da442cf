"""Exact-algebra layer: gcd, squarefree split, Hermite reduction, residues,
resultants, rational roots, and canonical forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratcert.algebra import (
    Poly,
    RatFunc,
    _det,
    coprime_refinement,
    extended_gcd,
    hermite_reduce,
    poly_gcd,
    rational_roots,
    residues,
    resultant,
    solve_linear_system,
    squarefree_decompose,
)
from conftest import make_poly, rand_poly, rand_ratfunc

X = Poly.x()

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys_st = st.lists(fractions_st, min_size=0, max_size=7).map(Poly)


def _schoolbook_product(p: Poly, q: Poly) -> Poly:
    """Every pair of coefficients, zeros included."""
    out = [Fraction(0)] * max(0, len(p.coeffs) + len(q.coeffs) - 1)
    for i in range(len(p.coeffs)):
        for j in range(len(q.coeffs)):
            out[i + j] += p.coeffs[i] * q.coeffs[j]
    return Poly(out)


# mostly zero coefficients, the shape of powers of x and shifted columns
sparse_polys_st = st.lists(
    st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions_st), min_size=0, max_size=12
).map(Poly)


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


class TestHermite:
    def test_partial_fraction_example(self):
        # (x^2-x-1)/x^3 = 1/x - 1/x^2 - 1/x^3: integrable part 1/x + 1/(2x^2)
        r = RatFunc(X**2 - X - 1, X**3)
        h, g = hermite_reduce(r)
        assert h == RatFunc(X + Fraction(1, 2), X**2)
        assert g == RatFunc(1, X)

    def test_pure_derivative(self):
        h, g = hermite_reduce(RatFunc(1, X**2))
        assert h == RatFunc(-1, X)
        assert g.is_zero

    def test_already_simple(self):
        h, g = hermite_reduce(RatFunc(1, X))
        assert h.is_zero
        assert g == RatFunc(1, X)

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
            h, g = hermite_reduce(r)
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
        assert rep.simple_part.is_zero
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
        assert rep.residue_poly.degree == 2

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
        assert sorted(rational_roots(rep.residue_poly)) == [Fraction(-1), Fraction(1)]
        assert rep.all_integer


class TestResultant:
    def test_distinct_linear(self):
        assert resultant(X - 1, X - 2) == 1

    def test_common_root(self):
        assert resultant(X**2, X) == 0

    def test_constant_second_argument(self):
        assert resultant(X - 3, Poly.const(2)) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resultant(Poly.zero(), X)
        with pytest.raises(ValueError):
            resultant(X, Poly.zero())

    @given(polys_st.filter(lambda p: not p.is_zero), polys_st.filter(lambda p: not p.is_zero))
    @settings(deadline=None)
    def test_vanishes_iff_common_factor(self, p, q):
        assert (resultant(p, q) == 0) == (poly_gcd(p, q).degree > 0)


class TestRationalRoots:
    def test_examples(self):
        assert rational_roots(X**2 - 1) == (Fraction(-1), Fraction(1))
        assert rational_roots(make_poly(-1, 2)) == (Fraction(1, 2),)
        assert rational_roots(X**2 + 1) == ()

    def test_multiplicities(self):
        p = (X - 1) ** 2 * (2 * X - 1) * (X**2 + 3)
        assert rational_roots(p) == (Fraction(1, 2), Fraction(1), Fraction(1))

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
        expected = []
        for root, mult in planted:
            p = p * Poly([-root, 1]) ** mult
            expected.extend([root] * mult)
        if add_irreducible:
            p = p * Poly([1, 0, 1])  # no rational roots
        assert rational_roots(p) == tuple(sorted(expected))


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


def _fraction_to_str(p: Poly, var: str = "x") -> str:
    """The rendering through one Fraction per coefficient."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            v = var if i == 1 else f"{var}^{i}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


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
        assert p.to_str(var) == _fraction_to_str(p, var)

    def test_examples(self):
        assert Poly([Fraction(-1, 3), 0, 1, Fraction(7, 5)]).to_str() == "7/5*x^3 + x^2 - 1/3"
        assert Poly([0, -1]).to_str() == "-x"
        assert Poly([Fraction(3, 2)]).to_str() == "3/2"
        assert Poly.zero().to_str() == "0"


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


def _trim(cs: list) -> list:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


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
        assert (p + q).coeffs == tuple(_trim([u + v for u, v in zip(pad_a, pad_b)]))
        assert (p - q).coeffs == tuple(_trim([u - v for u, v in zip(pad_a, pad_b)]))
        assert (p * q).coeffs == tuple(_trim(product))
        assert (-p).coeffs == tuple(_trim([-u for u in a]))

    @given(any_lists_st, coeff_lists_st.filter(lambda cs: any(cs)))
    @settings(deadline=None, max_examples=120)
    def test_divmod_matches_long_division(self, a, b):
        # schoolbook long division over Q
        b = _trim(b)
        rem = _trim(a)
        quo = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
        while len(rem) >= len(b):
            k = len(rem) - len(b)
            f = rem[-1] / b[-1]
            quo[k] = f
            for i, c in enumerate(b):
                rem[k + i] -= f * c
            rem = _trim(rem)
        q, r = divmod(Poly(a), Poly(b))
        assert q.coeffs == tuple(_trim(quo))
        assert r.coeffs == tuple(rem)

    @given(any_lists_st, any_lists_st)
    @settings(deadline=None, max_examples=120)
    def test_gcd_matches_fraction_euclid(self, a, b):
        def remainder(x, y):
            x = _trim(x)
            while len(x) >= len(y):
                k = len(x) - len(y)
                f = x[-1] / y[-1]
                for i, c in enumerate(y):
                    x[k + i] -= f * c
                x = _trim(x)
            return x

        x, y = _trim(a), _trim(b)
        while y:
            x, y = y, remainder(x, y)
        expected = tuple(c / x[-1] for c in x) if x else ()
        assert poly_gcd(Poly(a), Poly(b)).coeffs == expected

    @given(any_lists_st, st.fractions(min_value=-7, max_value=7, max_denominator=6))
    @settings(deadline=None, max_examples=120)
    def test_calculus_evaluation_and_monic(self, a, v):
        p = Poly(a)
        assert p.derivative().coeffs == tuple(_trim([i * c for i, c in enumerate(a)][1:]))
        assert p.antiderivative().coeffs == tuple(
            _trim([Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)])
        )
        assert p.eval(v) == sum((c * v**i for i, c in enumerate(a)), Fraction(0))
        t = _trim(a)
        assert p.monic().coeffs == (tuple(c / t[-1] for c in t) if t else ())

    @given(any_lists_st, st.fractions(max_denominator=9).filter(bool))
    @settings(deadline=None, max_examples=120)
    def test_canonical_form(self, a, s):
        from math import gcd

        p = Poly(a)
        assert all(type(v) is int for v in p.ints)
        assert isinstance(p.content, Fraction)
        if p.is_zero:
            assert p.ints == () and p.content == 0
        else:
            assert gcd(*p.ints) == 1 and p.ints[-1] > 0
            assert p.content * p.ints[-1] == _trim(a)[-1]
        scaled = Poly([c * s for c in a])
        assert scaled == p * s and hash(scaled) == hash(p * s)
        assert scaled.ints == p.ints
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
        ta, tb = _trim(a), _trim(b)
        # (result, schoolbook Fraction coefficients)
        cases = [
            (p + q, [u + v for u, v in _padded(ta, tb)]),
            (p - q, [u - v for u, v in _padded(ta, tb)]),
            (p * q, _fraction_product(ta, tb)),
            (p**n, _fraction_power(ta, n)),
            (p.derivative(), [i * c for i, c in enumerate(ta)][1:]),
            (p.antiderivative(), [Fraction(0)] + [c / (i + 1) for i, c in enumerate(ta)]),
            (p.monic(), [c / ta[-1] for c in ta] if ta else []),
            (p.shift(k), [Fraction(0)] * k + ta if ta else []),
            (p * s, [c * s for c in ta]),
            (-p, [-c for c in ta]),
        ]
        if tb:
            got_quo, got_rem = divmod(p, q)
            quo, rem = _fraction_divmod(ta, tb)
            cases += [(got_quo, quo), (got_rem, rem)]
        for got, expected in cases:
            _assert_canonical(got)
            assert got.coeffs == tuple(_trim(expected))
            twin = Poly(expected)
            assert got == twin and hash(got) == hash(twin)
        if tb:
            # the reduced form of a/b and its scalar multiples
            r = RatFunc(p, q)
            _assert_canonical_ratfunc(r)
            num, den = list(r.num.coeffs), list(r.den.coeffs)
            assert _trim(_fraction_product(num, tb)) == _trim(_fraction_product(ta, den))
            for scaled, factor in ((r * s, s), (s * r, s), (r / s, 1 / s)):
                _assert_canonical_ratfunc(scaled)
                assert scaled.den == r.den
                assert scaled.num.coeffs == tuple(c * factor for c in r.num.coeffs)


def _padded(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return list(zip(a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))))


def _fraction_product(a: list, b: list) -> list:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _fraction_power(a: list, n: int) -> list:
    out = [Fraction(1)]
    for _ in range(n):
        out = _fraction_product(out, a)
    return out


def _fraction_divmod(a: list, b: list) -> tuple[list, list]:
    """Schoolbook long division over Q (b trimmed and nonzero)."""
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        f = rem[-1] / b[-1]
        quo[k] = f
        for i, c in enumerate(b):
            rem[k + i] -= f * c
        rem = _trim(rem)
    return quo, rem


def _assert_canonical(p: Poly) -> None:
    """Primitive ints with a positive lead, content cn/cd in lowest terms
    with cd > 0, and zero as ((), 0, 1)."""
    from math import gcd

    assert all(type(v) is int for v in p.ints)
    assert type(p.cn) is int and type(p.cd) is int
    if not p.ints:
        assert (p.ints, p.cn, p.cd) == ((), 0, 1)
        return
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

        assert _det([row[:] for row in matrix]) == cofactor(matrix)

    def test_singular_and_permuted(self):
        assert _det([[1, 2], [2, 4]]) == 0
        assert _det([[0, 1], [1, 0]]) == -1
        assert _det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30


class TestScaledResidueReport:
    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=3)), max_size=3),
        st.integers(1, 19),
    )
    @settings(deadline=None, max_examples=100)
    def test_matches_residues_of_the_scaled_function(self, poles, s):
        r = RatFunc(1, X**2 + 1)
        for pt, res in poles:
            r = r + RatFunc(res, Poly([-pt, 1]))
        assert residues(r).scaled(s) == residues(s * r)
        assert residues(r).scaled(Fraction(1, s)) == residues(r / s)


def _hermite_by_passes(r: RatFunc) -> tuple[RatFunc, RatFunc]:
    """Hermite reduction one pole order at a time, re-splitting the reduced
    denominator on every pass: the highest-multiplicity factor v**m is
    lowered to v**(m-1) by solving s*u*v' = num modulo v."""
    poly_part, frac = r.split_polynomial_part()
    h = RatFunc(poly_part.antiderivative())
    while not frac.is_zero:
        dec = squarefree_decompose(frac.den)
        if not dec or dec[-1][1] == 1:
            break
        v, m = dec[-1]
        u = frac.den.divexact(v**m)
        _, s0, _ = extended_gcd(u * v.derivative(), v)
        s = (frac.num * s0) % v
        t = (frac.num - s * u * v.derivative()).divexact(v)
        h = h + RatFunc(-s, (m - 1) * v ** (m - 1))
        frac = RatFunc(t * (m - 1) + u * s.derivative(), (m - 1) * (u * v ** (m - 1)))
    return h, frac


factor_st = st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(Poly).filter(
    lambda p: p.degree >= 1
)


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
        assert hermite_reduce(r) == _hermite_by_passes(r)

    @given(num=st.lists(fractions_st, max_size=12).map(Poly), k=st.integers(1, 8))
    @settings(deadline=None, max_examples=60)
    def test_power_of_x_denominators(self, num, k):
        r = RatFunc(num, Poly.monomial(k))
        assert hermite_reduce(r) == _hermite_by_passes(r)

    def test_residue_report_unchanged(self):
        x = Poly.x()
        r = RatFunc(3 * x**4 + x - 7, x**3 * (x - 1) ** 2 * (x**2 + 1))
        h, g = _hermite_by_passes(r)
        assert residues(r).simple_part == g
        assert hermite_reduce(r) == (h, g)


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
        assert basis == sorted(basis, key=lambda f: (f.degree, f.coeffs))
        assert all(f.lc == 1 for f in basis)
        for i, f in enumerate(basis):
            assert all(poly_gcd(f, g).degree == 0 for g in basis[i + 1 :])
        for p in family:
            rest = p.monic()
            for f in basis:
                if poly_gcd(rest, f).degree > 0:
                    rest = rest.divexact(f)
            assert rest == Poly.one()
