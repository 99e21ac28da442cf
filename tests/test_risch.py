"""Rational-solution deciders: general bound-based solver, specialized
power-pole solver, residue normalisation, and their cross-consistency."""

import random
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ratcert import risch
from ratcert.algebra import (
    Poly,
    RatFunc,
    poly_gcd,
    residues,
    solve_linear_system,
    squarefree_decompose,
)
from ratcert.planar import BivarPoly, InputError, PlanarField, foliation_derivatives
from ratcert.risch import (
    KaltofenInstance,
    RischEquation,
    build_risch,
    match_kaltofen,
    solve_general,
    solve_undetermined,
    solve_xk_specialized,
    verify_solution,
)
from conftest import rand_poly
from reference import (
    NonIntegerResidueError,
    coeffs,
    coprime_refinement,
    degree_bound_at_infinity,
    kaltofen_case_by_gap,
    residue_normalize,
    specialized_by_columns,
    specialized_columns_system,
)

X = Poly.x()

small_polys_st = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(Poly)
nonzero_polys_st = small_polys_st.filter(lambda p: not p.is_zero)
ratfuncs_st = st.builds(RatFunc, small_polys_st, nonzero_polys_st)


def cubic_example_equation(a=1, b=1, c=1) -> RischEquation:
    alpha = RatFunc(X**2 - c * X - b, X**3)
    beta = -2 * (RatFunc(a, X**3) - RatFunc(X**2 - c * X - b, X**6))
    return build_risch(alpha, beta, 2)


class TestBuildRisch:
    def test_order_two_keeps_alpha(self):
        eq = cubic_example_equation()
        assert eq.a == RatFunc(X**2 - X - 1, X**3)
        assert eq.b == RatFunc(-2 * X**3 + 2 * (X**2 - X - 1), X**6)

    def test_power_pole_family_equation(self):
        eq = build_risch(RatFunc(1, X**3), RatFunc(2, X**6) + RatFunc(2, X**3), 2)
        assert eq.a == RatFunc(1, X**3)
        assert eq.b == RatFunc(2 + 2 * X**3, X**6)

    def test_order_three_doubles_alpha(self):
        alpha = RatFunc(X + 1, X**2)
        eq = build_risch(alpha, RatFunc.one(), 3)
        assert eq.a == 2 * alpha
        assert eq.alpha == alpha and eq.order == 3

    def test_low_order_rejected(self):
        # at order 1 the coefficient is 0 while the pole bound would still
        # read alpha's residues: alpha = 1/x**2, b = 1/x**3 would get the
        # candidate denominator x and miss the solution -1/(2*x**2)
        for order in (1, 0, -1):
            with pytest.raises(ValueError):
                RischEquation(RatFunc(1, X**2), RatFunc(1, X**3), order)
        with pytest.raises(ValueError):
            build_risch(RatFunc.one(), RatFunc.one(), 1)


class TestResidueNormalize:
    def test_strips_simple_pole(self):
        eq = cubic_example_equation()
        norm, u = residue_normalize(eq)
        assert norm.a == RatFunc(-X - 1, X**3)
        assert u == RatFunc(X)
        assert norm.b == eq.b * u

    def test_no_simple_poles_unchanged(self):
        eq = RischEquation(RatFunc(1, X**2), RatFunc(5))
        norm, u = residue_normalize(eq)
        assert norm.a == eq.a and norm.b == eq.b
        assert u == RatFunc.one()

    def test_non_integer_residue_rejected(self):
        with pytest.raises(NonIntegerResidueError) as info:
            residue_normalize(RischEquation(RatFunc(1, 2 * X), RatFunc.one()))
        assert info.value.residue == Fraction(1, 2)

    def test_negative_residue_gives_rational_multiplier(self):
        eq = RischEquation(RatFunc(-2, X), RatFunc.one())
        norm, u = residue_normalize(eq)
        assert u == RatFunc(1, X**2)
        assert norm.a.is_zero

    def test_solution_correspondence(self):
        # h solves the original iff h*u solves the normalised equation
        rng = random.Random(17)
        for _ in range(200):
            j = rng.randint(2, 4)
            core = rand_poly(rng, j - 1, nonzero=True)
            if core.coeff(0) == 0:
                core = core + 1
            a = RatFunc(core, Poly.monomial(j))
            for _ in range(rng.randint(0, 2)):
                ell = rng.randint(-2, 3)
                if ell:
                    a = a + ell * RatFunc(1, Poly([-rng.randint(1, 5), 1]))
            h = RatFunc(rand_poly(rng, 2, nonzero=True), Poly.monomial(rng.randint(0, 2)))
            b = h.derivative() + a * h
            eq = RischEquation(a, b)
            norm, u = residue_normalize(eq)
            original = solve_general(eq)
            normalised = solve_general(norm)
            assert original.has_rational_solution and normalised.has_rational_solution
            assert verify_solution(norm, original.solution * u)
            assert verify_solution(eq, normalised.solution / u)


class TestSolveGeneral:
    def test_boundary_instance_of_cubic_family(self):
        eq = cubic_example_equation(a=3, b=1, c=-1)
        out = solve_general(eq)
        assert out.solution == RatFunc(-6 * X**2 + 2, X**3)
        assert verify_solution(eq, out.solution)

    def test_zero_rhs_trivial_solution(self):
        out = solve_general(RischEquation(RatFunc(1, X**3), RatFunc.zero()))
        assert out.solution == RatFunc.zero()

    def test_polynomial_solution(self):
        out = solve_general(RischEquation(RatFunc.one(), RatFunc(X)))
        assert out.solution == RatFunc(X - 1)

    def test_zero_coefficient_antiderivative(self):
        # y' = 3x^2 + 1
        out = solve_general(RischEquation(RatFunc.zero(), RatFunc(3 * X**2 + 1)))
        assert out.solution == RatFunc(X**3 + X)

    def test_no_solution_is_flagged(self):
        # y' + y/x^2 = 1/x has no rational solution: a pole at 0 cannot match
        eq = RischEquation(RatFunc(1, X**2), RatFunc(1, X))
        out = solve_general(eq)
        assert not out.has_rational_solution
        assert out.reason is not None

    def test_positive_residue_cancellation_bound(self):
        # a = -3/x admits the homogeneous solution x^3; plant a solution that
        # needs the cancellation candidate in the degree bound
        a = RatFunc(-3, X)
        h = RatFunc(X**3 + X)
        eq = RischEquation(a, h.derivative() + a * h)
        out = solve_general(eq)
        assert out.has_rational_solution
        assert verify_solution(eq, out.solution)

    def test_simple_pole_positive_residue_pole_bound(self):
        # a with residue +2 at x=1 allows solution poles of order 2 there
        a = RatFunc(2, Poly([-1, 1]))
        h = RatFunc(1, Poly([-1, 1]) ** 2)
        eq = RischEquation(a, h.derivative() + a * h)
        out = solve_general(eq)
        assert out.has_rational_solution
        assert verify_solution(eq, out.solution)


def _product_columns(a: RatFunc, b: RatFunc, den: Poly, num_degree: int):
    """The cleared system with one polynomial product chain per column:
    column i is ((x**i)'*den - x**i*den')*qa*qb + pa*x**i*den*qb, and the
    right side is pb*qa*den**2."""
    columns = []
    for i in range(num_degree + 1):
        xi = Poly.monomial(i)
        columns.append(
            (xi.derivative() * den - xi * den.derivative()) * a.den * b.den
            + a.num * xi * den * b.den
        )
    return columns, b.num * a.den * den * den


def _coefficient_rows(columns: list[Poly], rhs: Poly):
    height = max([rhs.degree] + [c.degree for c in columns]) + 1
    rows = [[c.coeff(d) for c in columns] for d in range(height)]
    return rows, [rhs.coeff(d) for d in range(height)]


def _product_system(a: RatFunc, b: RatFunc, den: Poly, num_degree: int):
    return _coefficient_rows(*_product_columns(a, b, den, num_degree))


def _solution(sol: list | None, den: Poly) -> RatFunc | None:
    return None if sol is None else RatFunc(Poly(sol), den)


def _sparse_elimination(rows, values, ncols: int) -> list[Fraction] | None:
    """The particular solution of rows * x = values with pivot columns in
    increasing order and free unknowns set to 0, or None when the system is
    inconsistent: Gauss-Jordan over ``Fraction``s on rows kept as
    {column: entry} dicts, in which a pivot touches only the rows with an
    entry in its column.  On a banded system, such as the divided one of
    ``_eliminated``, a pivot costs about the band's width squared, where
    ``solve_linear_system`` updates every row below it."""
    live = [({j: Fraction(v) for j, v in enumerate(row) if v}, Fraction(val)) for row, val in zip(rows, values)]
    pivots = []
    for col in range(ncols):
        k = next((i for i, (row, _) in enumerate(live) if col in row), None)
        if k is None:
            continue
        prow, pval = live.pop(k)
        for i, (row, val) in enumerate(live):
            if col in row:
                f = row[col] / prow[col]
                for j, v in prow.items():
                    w = row.get(j, 0) - f * v
                    if w:
                        row[j] = w
                    else:
                        row.pop(j, None)
                live[i] = (row, val - f * pval)
        pivots.append((col, prow, pval))
    # every column is eliminated from the rows left: they read 0 = val
    if any(val for _, val in live):
        return None
    sol = [Fraction(0)] * ncols
    for col, prow, pval in reversed(pivots):
        sol[col] = (pval - sum(v * sol[j] for j, v in prow.items() if j != col)) / prow[col]
    return sol


def _eliminated(a: RatFunc, b: RatFunc, den: Poly, num_degree: int) -> RatFunc | None:
    """The particular solution elimination gives on the product-built
    system: pivot columns in increasing order, free unknowns set to 0.

    Every column is a multiple of d = gcd(den, den')*qb, so the system is
    inconsistent unless d divides the right side.  Division by d is a linear
    bijection from the multiples of d onto all polynomials, so dividing every
    column and the right side by d keeps the column dependencies, hence the
    pivot columns and the particular solution.  Column i of the divided
    system is x**(i-1) times one polynomial of degree about deg(den/d), so
    the system is banded, and ``_sparse_elimination`` solves it in time
    about linear in its size: where den is (x + 4)**264 its 270 columns take
    a fraction of a second, and fraction-free elimination of every row took
    25-30 s."""
    columns, rhs = _product_columns(a, b, den, num_degree)
    d = poly_gcd(den, den.derivative()) * b.den
    quotient, remainder = divmod(rhs, d)
    if not remainder.is_zero:
        return None
    rows, values = _coefficient_rows([c.divexact(d) for c in columns], quotient)
    return _solution(_sparse_elimination(rows, values, num_degree + 1), den)


def _no_elimination(*args):
    raise AssertionError("the general decider must not eliminate")


@st.composite
def undetermined_equations(draw):
    """(a, b) for the recurrence-against-elimination property.  The kinds
    reach the recurrence's branches: a = -c*u'/u has the homogeneous
    solution u**c, so the parameter at rho is free; a = lam/(x - r) + e/x**2
    with lam a negative integer makes lc_rho vanish while the homogeneous
    solution (x - r)**(-lam)*exp(e/x) is not rational, so the parameter is
    pinned or the system inconsistent; a = 0 with polynomial b gives
    s = -1."""
    kind = draw(st.sampled_from(["generic", "log-derivative", "pinned", "zero"]))
    if kind == "generic":
        a = draw(ratfuncs_st)
    elif kind == "log-derivative":
        u = draw(nonzero_polys_st.filter(lambda p: p.degree > 0))
        a = -draw(st.integers(1, 3)) * RatFunc(u.derivative(), u)
    elif kind == "pinned":
        lam = -draw(st.integers(1, 4))
        a = RatFunc(lam, X - draw(st.integers(-2, 2))) + RatFunc(draw(st.integers(1, 3)), X**2)
    else:
        a = RatFunc.zero()
    if kind == "zero" and draw(st.booleans()):
        b = RatFunc(draw(nonzero_polys_st))
    elif draw(st.booleans()):
        h = draw(ratfuncs_st)
        b = h.derivative() + a * h
    else:
        b = draw(ratfuncs_st)
    return a, b


class TestSolveUndetermined:
    """The top-down recurrence gives the solution that elimination gives on
    the product-built system, and never calls the elimination."""

    @given(
        a=st.none() | ratfuncs_st,
        b=ratfuncs_st,
        den_factor=nonzero_polys_st,
        pole=st.integers(0, 4),
        slack=st.integers(0, 6),
    )
    @settings(deadline=None, max_examples=120)
    def test_shift_built_system_matches_products(self, a, b, den_factor, pole, slack):
        # a = None stands for a = 0, where column deg(den) vanishes identically;
        # the elimination also searches ``slack`` degrees above the bound
        a = RatFunc.zero() if a is None else a
        den = den_factor.monic() * Poly.monomial(pole)
        with mock.patch.object(risch, "solve_linear_system", _no_elimination):
            got = solve_undetermined(a, b, den)
        bound = degree_bound_at_infinity(a, b, den) + slack
        # the undivided system, which also checks the division in _eliminated
        rows, values = _product_system(a, b, den, bound)
        undivided = _solution(solve_linear_system(rows, values, bound + 1), den)
        assert got == undivided == _eliminated(a, b, den, bound)

    def test_cancelling_top_terms_are_trimmed(self):
        # a = 0, b = 1/(x**3+1), den = x**2: column 2 is x**2*B + 2*x*A = 0 with
        # B = -2*x*(x**3+1) and A = x**2*(x**3+1): lc_2 = B[4] + 2*A[5]
        # vanishes, so the top row x**6 read off A and B fixes no unknown and
        # the product-built system stops at x**5
        b = RatFunc(1, X**3 + 1)
        rows, _ = _product_system(RatFunc.zero(), b, Poly.monomial(2), 2)
        assert len(rows) == 6 and not any(row[2] for row in rows)
        with mock.patch.object(risch, "solve_linear_system", _no_elimination):
            got = solve_undetermined(RatFunc.zero(), b, Poly.monomial(2))
        assert got == _eliminated(RatFunc.zero(), b, Poly.monomial(2), 2)

    @given(
        eq=undetermined_equations(),
        scale=st.just(1) | st.builds(Fraction, st.integers(2**99, 2**100), st.integers(2**99, 2**100)),
        power=st.integers(0, 4),
        pole_slack=st.integers(0, 3),
        degree_slack=st.integers(0, 25),
    )
    @settings(deadline=None, max_examples=200)
    def test_recurrence_matches_elimination(self, eq, scale, power, pole_slack, degree_slack):
        # b times a content of about 100 bits, which stays outside the
        # recurrence; den times x**power, a common power of x in every
        # column; elimination up to a degree slack above the bound at
        # infinity, so that most of its columns lie above the recurrence's cap
        a, b = eq
        b = b * scale
        den = risch._candidate_denominator(b, residues(a), 1, pole_slack) * Poly.monomial(power)
        got = solve_undetermined(a, b, den)
        assert got == _eliminated(a, b, den, degree_bound_at_infinity(a, b, den) + degree_slack)
        if got is not None:
            assert verify_solution(RischEquation(a, b), got)

    def test_large_positive_integer_residue(self):
        # a = -3x**2 + 9x - 32 + 129/(x + 4) allows a pole of order 129 at -4,
        # so den = (x + 4)**129; the homogeneous solution
        # (x + 4)**-129 * exp(x**3 - 9x**2/2 + 32x) is not rational, so the
        # planted h is the only solution.  For b = 1/(x**2 + 1) there is none:
        # where a is regular, y' + a*y has no simple pole
        a = RatFunc(-3 * X**3 - 3 * X**2 + 4 * X + 1, X + 4)
        h = RatFunc(1, (X + 4) ** 129) + X
        for b, want in ((h.derivative() + a * h, h), (RatFunc(1, X**2 + 1), None)):
            den = risch._candidate_denominator(b, residues(a), 1, 0)
            assert den == (X + 4) ** 129
            got = solve_undetermined(a, b, den)
            assert got == want == _eliminated(a, b, den, degree_bound_at_infinity(a, b, den))

    def test_candidate_degree_is_bounded_before_any_power(self):
        # residue c of a at the simple pole 1: den = (x - 1)**c up to the
        # bound, refused above it, at any slack
        for c, slack in ((risch.MAX_CANDIDATE_DEGREE, 0), (risch.MAX_CANDIDATE_DEGREE - 4, 2)):
            rep = residues(RatFunc(c, X - 1))
            den = risch._candidate_denominator(RatFunc.one(), rep, 1, slack)
            assert den == (X - 1) ** (c + slack)
            with pytest.raises(InputError, match=f"^the candidate .* degree {2 * c + slack},"):
                risch._candidate_denominator(RatFunc.one(), rep, 2, slack)
            with pytest.raises(
                InputError, match=f"^order 3: the candidate denominator .* degree {2 * c + slack},"
            ):
                solve_general(RischEquation(RatFunc(c, X - 1), RatFunc.one(), 3), pole_slack=slack)
        with mock.patch.object(Poly, "__pow__", side_effect=AssertionError("a power was formed")):
            with pytest.raises(InputError):
                risch._candidate_denominator(RatFunc.one(), residues(RatFunc(10**6, X - 1)), 1, 0)

    def test_free_parameter_is_set_to_zero(self):
        # a = -2/x: x**2 solves the homogeneous equation, so n_2 is free and,
        # as in elimination, set to 0; b = 1 gives y = -x + t*x**2
        got = solve_undetermined(RatFunc(-2, X), RatFunc.one(), Poly.one())
        assert got == RatFunc(-X)
        assert got == _eliminated(RatFunc(-2, X), RatFunc.one(), Poly.one(), 3)

    def test_pinned_parameter(self):
        # with a = -2/x + 1/x**2 and den = x, lc_i = i - 3 vanishes at 3, but
        # the homogeneous solution x**2*exp(1/x) is not rational: the rows
        # that fix no unknown pin n_3 to the planted solution's 1
        a = RatFunc(-2, X) + RatFunc(1, X**2)
        h = RatFunc(X**3 + 3 * X - 1, X)
        b = h.derivative() + a * h
        assert solve_undetermined(a, b, X) == h == _eliminated(a, b, X, 4)


def _candidate_by_division(a: RatFunc, b: RatFunc, rep, slack: int = 0) -> Poly:
    """The candidate denominator with each multiplicity counted by dividing
    the denominator by the refinement element until it no longer divides."""

    def count(e: Poly, p: Poly) -> int:
        m = 0
        while p.degree >= e.degree:
            q, r = divmod(p, e)
            if not r.is_zero:
                break
            p, m = q, m + 1
        return m

    base = []
    for r in (a, b):
        if r.den.degree > 0:
            base.extend(q for q, _ in squarefree_decompose(r.den))
    base.extend(q for q, c in rep.per_factor if c.denominator == 1 and c > 0)
    den = Poly.one()
    for e in coprime_refinement(base):
        ma, mb = count(e, a.den), count(e, b.den)
        if ma >= 2:
            bound = max(0, mb - ma)
        elif ma == 1:
            rho = 0
            for q, c in rep.per_factor:
                if c > 0 and c.denominator == 1 and poly_gcd(e, q).degree > 0:
                    rho = int(c)
                    break
            bound = max(0, mb - 1, rho)
        else:
            bound = max(0, mb - 1)
        if slack and (ma or mb):
            bound += slack
        den = den * e**bound
    return den


def _assert_matches_division(alpha: RatFunc, b: RatFunc, scale: int, slack: int) -> None:
    """The bound for a = scale*alpha, from alpha's report at ``scale`` and
    from a's own report at scale 1, equals the bound by division."""
    a = scale * alpha
    expected = _candidate_by_division(a, b, residues(a), slack)
    assert risch._candidate_denominator(b, residues(alpha), scale, slack) == expected
    assert risch._candidate_denominator(b, residues(a), 1, slack) == expected


_POLE_FACTORS = [X, X - 1, X + 2, X**2 + 1, X**2 - 2]


@st.composite
def pole_data(draw):
    """(den, simple) for one coefficient: den a product of pole factors with
    multiplicities 0..6, simple a sum c*q'/q with integer c (residue c at
    each root of q)."""
    den = Poly.one()
    for q in _POLE_FACTORS:
        den = den * q ** draw(st.sampled_from([0, 0, 1, 2, 3, 6]))
    simple = RatFunc.zero()
    for q in draw(st.lists(st.sampled_from(_POLE_FACTORS), max_size=2, unique=True)):
        simple = simple + draw(st.integers(-3, 4)) * RatFunc(q.derivative(), q)
    return den, simple


class TestCandidateDenominator:
    @given(
        a_data=pole_data(),
        b_data=pole_data(),
        a_num=small_polys_st,
        b_num=nonzero_polys_st,
        scale=st.integers(1, 19),
        slack=st.integers(0, 2),
    )
    @settings(deadline=None, max_examples=100)
    def test_matches_multiplicities_by_division(self, a_data, b_data, a_num, b_num, scale, slack):
        alpha = RatFunc(a_num, a_data[0]) + a_data[1]
        b = RatFunc(b_num, b_data[0]) + b_data[1]
        _assert_matches_division(alpha, b, scale, slack)

    def test_high_powers_of_x(self):
        # the tower's shape at order 20: a = 19*alpha, b with den x**40
        alpha = RatFunc(X + 1, X**2)
        b = RatFunc(X**3 + 5, X**40)
        for slack in (0, 2):
            _assert_matches_division(alpha, b, 19, slack)

    @given(
        simple=st.lists(st.sampled_from(_POLE_FACTORS), min_size=1, max_size=2, unique=True),
        fractions=st.lists(
            st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]), min_size=2, max_size=2
        ),
        powers=st.lists(st.sampled_from([0, 1, 2, 3]), min_size=5, max_size=5),
        a_num=small_polys_st,
        b_data=pole_data(),
        b_num=nonzero_polys_st,
        k=st.sampled_from([2, 3, 4, 7, 13]),
        slack=st.integers(0, 2),
    )
    @settings(deadline=None, max_examples=100)
    def test_scaled_report_with_fractional_residues(
        self, simple, fractions, powers, a_num, b_data, b_num, k, slack
    ):
        # residue 1/2, 1/3 or 2/3 at simple poles of alpha: a positive
        # integer residue of (k - 1)*alpha when k - 1 clears it
        others = [q**m for q, m in zip(_POLE_FACTORS, powers) if q not in simple]
        alpha = RatFunc(a_num, prod(others, start=Poly.one()))
        for q, c in zip(simple, fractions):
            alpha = alpha + c * RatFunc(q.derivative(), q)
        b = RatFunc(b_num, b_data[0]) + b_data[1]
        _assert_matches_division(alpha, b, k - 1, slack)

    def test_scaling_makes_a_half_residue_integral(self):
        # alpha = 1/(2x) has residue 1/2 at 0; at order 3, a = 1/x has
        # residue 1, which lets a solution have a simple pole at 0 although
        # b = 1/x does not force one: y = 1 + c/x solves y' + y/x = 1/x
        alpha, b = RatFunc(1, 2 * X), RatFunc(1, X)
        assert risch._candidate_denominator(b, residues(alpha), 1, 0) == Poly.one()
        assert risch._candidate_denominator(b, residues(alpha), 2, 0) == X
        _assert_matches_division(alpha, b, 2, 0)

    @given(
        shared=st.lists(st.sampled_from(_POLE_FACTORS), min_size=1, max_size=3, unique=True),
        a_res=st.lists(st.integers(-2, 4).filter(bool), min_size=3, max_size=3),
        b_res=st.lists(st.integers(-2, 4).filter(bool), min_size=3, max_size=3),
        a_num=small_polys_st,
        b_num=small_polys_st,
        slack=st.integers(0, 2),
    )
    @settings(deadline=None, max_examples=100)
    def test_simple_poles_shared_by_both_denominators(
        self, shared, a_res, b_res, a_num, b_num, slack
    ):
        a, b = RatFunc(a_num), RatFunc(b_num)
        for q, ca, cb in zip(shared, a_res, b_res):
            a = a + ca * RatFunc(q.derivative(), q)
            b = b + cb * RatFunc(q.derivative(), q)
        _assert_matches_division(a, b, 1, slack)

    @given(
        split=st.integers(1, len(_POLE_FACTORS) - 1),
        a_powers=st.lists(st.sampled_from([1, 2, 3]), min_size=5, max_size=5),
        b_powers=st.lists(st.sampled_from([0, 1, 2, 5]), min_size=5, max_size=5),
        a_num=nonzero_polys_st,
        b_num=nonzero_polys_st,
        slack=st.integers(1, 2),
    )
    @settings(deadline=None, max_examples=100)
    def test_poles_of_b_absent_from_a_with_slack(
        self, split, a_powers, b_powers, a_num, b_num, slack
    ):
        a_den = prod((q**m for q, m in zip(_POLE_FACTORS[:split], a_powers)), start=Poly.one())
        b_den = prod((q**m for q, m in zip(_POLE_FACTORS[split:], b_powers)), start=Poly.one())
        a, b = RatFunc(a_num, a_den), RatFunc(b_num, b_den)
        _assert_matches_division(a, b, 1, slack)

    @given(b_num=nonzero_polys_st, slack=st.integers(0, 2))
    @settings(deadline=None, max_examples=30)
    def test_zero_a_and_polynomial_b(self, b_num, slack):
        a, b = RatFunc.zero(), RatFunc(b_num)
        assert risch._candidate_denominator(b, residues(a), 1, slack) == Poly.one()
        _assert_matches_division(a, b, 1, slack)

    def test_every_tower_order(self):
        # analyze --kmax 20 on (x^2 - 67/89*y, y*(x + 1)) along y = 0
        xv, yv = BivarPoly.var(0), BivarPoly.var(1)
        field = PlanarField(xv**2 - Fraction(67, 89) * yv, yv * (xv + BivarPoly.const(1)))
        betas = foliation_derivatives(field, RatFunc.zero(), 20)
        for k in range(2, 21):
            eq = build_risch(betas[0], betas[k - 1], k)
            _assert_matches_division(eq.alpha, eq.b, eq.order - 1, 0)


class TestSubstitutionCheck:
    @given(a=ratfuncs_st, h=ratfuncs_st, delta=ratfuncs_st, perturb=st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_cleared_check_agrees_with_ratfunc_identity(self, a, h, delta, perturb):
        eq = RischEquation(a, h.derivative() + a * h)
        candidate = h + delta if perturb else h
        oracle = candidate.derivative() + eq.a * candidate == eq.b
        assert verify_solution(eq, candidate) == oracle
        assert oracle or perturb

    @given(a=ratfuncs_st, b=ratfuncs_st, h=ratfuncs_st)
    @settings(deadline=None, max_examples=100)
    def test_agrees_on_unrelated_right_hand_sides(self, a, b, h):
        oracle = h.derivative() + a * h == b
        assert verify_solution(RischEquation(a, b), h) == oracle

    def test_corrupted_elimination_is_caught(self, monkeypatch):
        eq = RischEquation(RatFunc(X + 1, X**2), RatFunc(2 * X + 2, X**4))
        assert solve_general(eq).solution == RatFunc(4 * X + 2, X**2)
        real = risch.solve_undetermined

        def corrupted(a, b, den):
            sol = real(a, b, den)
            return RatFunc(sol.num + 1, sol.den)

        monkeypatch.setattr(risch, "solve_undetermined", corrupted)
        with pytest.raises(RuntimeError, match="substitution check"):
            solve_general(eq)


@st.composite
def case_instances(draw):
    """Power-pole instances around every case boundary: deg alpha_num is
    k - 1 in most draws, its top coefficient is fractional, at least k, or
    k - j (so rho = j), and the shift's degree m is rho - 1, rho or rho + 1
    in most draws."""
    k = draw(st.integers(2, 6))
    fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    n = draw(st.sampled_from([k - 1, k - 1, k - 1, draw(st.integers(0, k - 2))]))
    a = draw(st.lists(fracs, min_size=n + 1, max_size=n + 1))
    a[0] = a[0] or Fraction(1)
    gap = st.integers(1, k + 2).filter(lambda j: j != k).map(lambda j: Fraction(k - j))
    top = draw(
        st.one_of(
            fracs.filter(lambda f: f.denominator > 1), st.integers(k, k + 4).map(Fraction), gap, gap
        )
    )
    a[-1] = top
    rho = int(k - top) if top.denominator == 1 and k - top >= 1 else 0
    near = st.sampled_from([rho - 1, rho, rho + 1])
    m = draw(st.one_of(st.none(), near, near, near, st.integers(0, k + 2)))
    shift = Poly.zero()
    if m is not None and m >= 0:
        b = draw(st.lists(fracs, min_size=m + 1, max_size=m + 1))
        b[0] = b[0] or Fraction(5, 7)
        b[-1] = b[-1] or Fraction(-2, 3)
        shift = Poly(b)
    return KaltofenInstance(Poly(a), shift, k)


class TestSpecializedCases:
    @given(inst=case_instances())
    @settings(deadline=None, max_examples=250)
    def test_case_matches_the_gap_formula(self, inst):
        assert inst.case == kaltofen_case_by_gap(inst)

    def test_case_1_threshold(self):
        # constant profiles: solvable at pole order 2, unsolvable above
        sol = solve_xk_specialized(KaltofenInstance(Poly.const(1), Poly.const(1), 2))
        assert sol.case == "1"
        assert sol.solution == RatFunc(6 * X**2 + 4 * X + 2, X**2)
        for k in range(3, 7):
            out = solve_xk_specialized(KaltofenInstance(Poly.const(1), Poly.const(1), k))
            assert out.case == "1"
            assert not out.has_rational_solution
            assert out.reason == "degree-mismatch"

    def test_case_2d_cubic_family(self):
        out = solve_xk_specialized(KaltofenInstance(X**2 - X - 1, Poly.const(-1), 3))
        assert (out.case, out.has_rational_solution) == ("2d", False)
        boundary = solve_xk_specialized(KaltofenInstance(X**2 + X - 1, Poly.const(-3), 3))
        assert boundary.case == "2d"
        assert boundary.solution == RatFunc(-6 * X**2 + 2, X**3)

    def test_case_2d_linear_profile(self):
        out = solve_xk_specialized(KaltofenInstance(X + 1, Poly.zero(), 2))
        assert out.case == "2d"
        assert out.solution == RatFunc(4 * X + 2, X**2)

    def test_case_2a_without_shift(self):
        for lead in (2, 3, 7):
            out = solve_xk_specialized(KaltofenInstance(Poly([1, lead]), Poly.zero(), 2))
            assert out.case == "2a"
            assert not out.has_rational_solution

    def test_case_2a_with_constant_shift(self):
        # the label is the same but the linear system decides: for most
        # shifts there is no solution, for the matched one there is
        none = solve_xk_specialized(KaltofenInstance(3 * X + 1, Poly.const(1), 2))
        assert none.case == "2a" and not none.has_rational_solution
        some = solve_xk_specialized(KaltofenInstance(3 * X + 1, Poly.const(4), 2))
        assert some.case == "2a" and some.solution == RatFunc(4 * X + 2, X**2)

    def test_case_2b(self):
        out = solve_xk_specialized(KaltofenInstance(3 * X + 1, 3 * X + 5, 2))
        assert out.case == "2b"
        assert out.solution == RatFunc(2 * X**2 + 4 * X + 2, X**2)

    def test_case_2c(self):
        inst = KaltofenInstance(X + 1, X**2 + X + 1, 2)
        assert inst.case == "2c"
        out = solve_xk_specialized(inst)
        assert out.has_rational_solution == solve_general(inst.equation()).has_rational_solution

    def test_dispatch_total_and_exclusive(self):
        rng = random.Random(55)
        seen = set()
        for _ in range(400):
            k = rng.randint(2, 6)
            n = rng.randint(0, k - 1)
            a = rand_poly(rng, n, nonzero=True)
            cs = list(coeffs(a))
            if cs[0] == 0:
                cs[0] = Fraction(1)
            if cs[-1] == 0:
                cs[-1] = Fraction(1)
            if rng.random() < 0.2:
                cs[-1] = Fraction(rng.randint(1, 9), rng.choice([2, 3]))
            a = Poly(cs)
            if rng.random() < 0.3:
                b = Poly.zero()
            else:
                bcs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, k - 1) + 1)]
                bcs[0] = bcs[0] or Fraction(1)
                if bcs[-1] == 0:
                    bcs[-1] = Fraction(1)
                b = Poly(bcs)
            inst = KaltofenInstance(a, b, k)
            assert inst.case in {"1", "2a", "2b", "2c", "2d"}
            seen.add(inst.case)
        assert seen == {"1", "2a", "2b", "2c", "2d"}

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            KaltofenInstance(X + 1, Poly.zero(), 1)  # pole order too small
        with pytest.raises(ValueError):
            KaltofenInstance(X**2, Poly.zero(), 2)  # degree not below pole order
        with pytest.raises(ValueError):
            KaltofenInstance(X, Poly.zero(), 2)  # vanishing constant coefficient
        with pytest.raises(ValueError):
            KaltofenInstance(Poly.const(1), X, 2)  # shift with zero constant term
        # a zero shift is the zero polynomial: beta = 2*alpha_num/x**(2k)
        assert KaltofenInstance(Poly.const(1), Poly.zero(), 2).beta == RatFunc(2, X**4)

    def test_no_solution_never_contradicted_by_widened_search(self):
        rng = random.Random(91)
        checked = 0
        while checked < 60:
            k = rng.randint(2, 5)
            n = rng.randint(0, k - 1)
            cs = [Fraction(rng.randint(-4, 4)) for _ in range(n + 1)]
            cs[0] = cs[0] or Fraction(1)
            if cs[-1] == 0:
                cs[-1] = Fraction(1)
            a = Poly(cs)
            b = Poly.zero()
            if rng.random() < 0.7:
                bcs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, k))]
                bcs[0] = bcs[0] or Fraction(1)
                b = Poly(bcs) if not Poly(bcs).is_zero else Poly.const(1)
                if b.coeff(0) == 0:
                    b = b + 1
            inst = KaltofenInstance(a, b, k)
            out = solve_xk_specialized(inst)
            if out.has_rational_solution:
                continue
            eq = inst.equation()
            den = Poly.monomial(2 * k)
            assert solve_undetermined(eq.a, eq.b, den) is None
            assert _eliminated(eq.a, eq.b, den, inst.degree_cap + 10 + 2 * k) is None
            checked += 1


@st.composite
def kaltofen_instances(draw):
    """Power-pole instances with fractional contents on both polynomials;
    alpha_num's top coefficient is at times k - j, which makes rho = j and
    cancels the top term of column j."""
    k = draw(st.integers(2, 5))
    fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    a = draw(st.lists(fracs, min_size=1, max_size=k))
    a[0] = a[0] or Fraction(1)
    if len(a) == k and draw(st.booleans()):
        a[-1] = Fraction(k - draw(st.integers(1, k + 2)))
    a[-1] = a[-1] or Fraction(-1, 3)
    shift = Poly.zero()
    if draw(st.booleans()):
        b = draw(st.lists(fracs, min_size=1, max_size=k + 1))
        b[0] = b[0] or Fraction(5, 7)
        shift = Poly(b)
    return KaltofenInstance(Poly(a), shift, k)


def _common_multiple(inst: KaltofenInstance) -> Fraction:
    """The one c with row d of the integer system (the right side
    appended) equal to c times row d of the column system for every d, a
    column-system row past its end being zero; fails when there is none or
    c = 0."""
    rows, rhs, deg_rhs = risch._specialized_system(inst)
    ref_rows, ref_vec = specialized_columns_system(inst)
    assert deg_rhs == max(d for d, v in enumerate(rhs) if v)
    assert len(rows) >= len(ref_rows)
    c = None
    for d, (row, v) in enumerate(zip(rows, rhs)):
        got = row + [v]
        assert all(isinstance(cell, int) for cell in got)
        ref = ref_rows[d] + [ref_vec[d]] if d < len(ref_rows) else [0] * len(got)
        for cell, w in zip(got, ref):
            if c is None and w:
                c = Fraction(cell) / w
            assert cell == (c or 0) * w, (d, got, ref)
    assert c
    return c


class TestSpecializedSystem:
    @given(inst=kaltofen_instances())
    @settings(deadline=None, max_examples=150)
    def test_integer_rows_are_a_multiple_of_the_column_system(self, inst):
        _common_multiple(inst)
        assert solve_xk_specialized(inst) == specialized_by_columns(inst)

    def test_fractional_contents_and_a_cancelled_column_top(self):
        # alpha_num = 2/3 - x**2/2 over x**3: no integer rho; and
        # alpha_num = 5/4 + x + x**2, whose top 1 = k - 2 cancels the top
        # of column 2
        thirds = Poly([Fraction(2, 3), 0, Fraction(-1, 2)])
        quarters = Poly([Fraction(5, 4), 1, 1])
        for inst in (
            KaltofenInstance(thirds, Poly([Fraction(3, 5), Fraction(1, 7)]), 3),
            KaltofenInstance(quarters, Poly([Fraction(-2, 9), 0, Fraction(4, 3)]), 3),
        ):
            # the content denominators of both polynomials
            assert _common_multiple(inst) == inst.alpha_num.cd * inst.beta_shift.cd
            assert solve_xk_specialized(inst) == specialized_by_columns(inst)


class TestMatchKaltofen:
    def test_round_trip(self):
        inst = KaltofenInstance(X**2 - X - 1, Poly.const(-1), 3)
        assert match_kaltofen(inst.equation()) == inst
        inst2 = KaltofenInstance(X + 1, Poly.zero(), 2)
        assert match_kaltofen(inst2.equation()) == inst2

    def test_rejects_other_denominators(self):
        eq = RischEquation(RatFunc(1, Poly([-1, 1]) ** 2), RatFunc(1, X**2))
        assert match_kaltofen(eq) is None

    def test_rejects_simple_pole(self):
        eq = RischEquation(RatFunc(1, X), RatFunc(1, X**2))
        assert match_kaltofen(eq) is None

    def test_rejects_mismatched_numerator(self):
        # b lacking the 2*A/x^(2k) structure
        eq = RischEquation(RatFunc(1, X**2), RatFunc(1, X**4))
        assert match_kaltofen(eq) is None

    def test_rejects_improper_coefficient(self):
        # a = (x^3 + 1)/x^2 has a power pole, but deg num a >= 2
        eq = RischEquation(RatFunc(X**3 + 1, X**2), RatFunc(1, X**4))
        assert match_kaltofen(eq) is None

    def test_rejects_shift_without_constant_term(self):
        # b = (2*A + 2*x**k*B)/x**(2k) with B = x: B(0) = 0
        a_num = X + 1
        eq = RischEquation(RatFunc(a_num, X**2), RatFunc(2 * a_num + 2 * X**3, X**4))
        assert match_kaltofen(eq) is None

    @given(inst=kaltofen_instances())
    @settings(deadline=None, max_examples=100)
    def test_round_trip_with_fractional_contents(self, inst):
        assert match_kaltofen(inst.equation()) == inst

    def test_rejects_higher_order_beta(self):
        # order-3 data over a squared pole: denominator x^6 exceeds 2k = 4
        alpha = RatFunc(X + 1, X**2)
        eq = build_risch(alpha, RatFunc(6 * (X + 1), X**6), 3)
        assert match_kaltofen(eq) is None


class TestSolverProperties:
    @given(
        core=st.lists(st.integers(-4, 4), min_size=1, max_size=3),
        j=st.integers(2, 4),
        num=st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        pole=st.integers(0, 2),
    )
    @settings(deadline=None, max_examples=60)
    def test_planted_solutions_recovered_uniquely(self, core, j, num, pole):
        # a has a pole of order j >= 2 at the origin, so the homogeneous
        # solution is transcendental and recovery must be exact
        a_num = Poly(core)
        if a_num.is_zero or a_num.coeff(0) == 0:
            a_num = a_num + 1
        a = RatFunc(a_num, Poly.monomial(j))
        h_num = Poly(num)
        if h_num.is_zero:
            h_num = Poly.one()
        h = RatFunc(h_num, Poly.monomial(pole))
        eq = RischEquation(a, h.derivative() + a * h)
        out = solve_general(eq)
        assert out.has_rational_solution
        assert out.solution == h

    @given(
        k=st.integers(2, 5),
        core=st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        shift=st.none() | st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    )
    @settings(deadline=None, max_examples=80)
    def test_deciders_agree(self, k, core, shift):
        a_cs = core[:k]
        if not a_cs or all(c == 0 for c in a_cs):
            a_cs = [1]
        if a_cs[0] == 0:
            a_cs[0] = 1
        while a_cs and a_cs[-1] == 0:
            a_cs.pop()
        b_poly = Poly.zero()
        if shift is not None:
            b_cs = shift[:k]
            if b_cs and any(b_cs):
                if b_cs[0] == 0:
                    b_cs[0] = 1
                while b_cs[-1] == 0:
                    b_cs.pop()
                b_poly = Poly(b_cs)
        inst = KaltofenInstance(Poly(a_cs), b_poly, k)
        special = solve_xk_specialized(inst)
        general = solve_general(inst.equation())
        assert special.has_rational_solution == general.has_rational_solution
        if special.has_rational_solution:
            assert special.solution == general.solution


class TestVerifySolution:
    def test_known_solution(self):
        inst = KaltofenInstance(Poly.const(1), Poly.const(1), 2)
        eq = inst.equation()
        assert verify_solution(eq, RatFunc(6 * X**2 + 4 * X + 2, X**2))

    def test_zero_against_nonzero_rhs(self):
        eq = RischEquation(RatFunc.one(), RatFunc(X))
        assert not verify_solution(eq, RatFunc.zero())

    def test_solver_outputs_replay(self):
        rng = random.Random(3)
        for _ in range(50):
            a = RatFunc(rand_poly(rng, 2), rand_poly(rng, 2, nonzero=True))
            h = RatFunc(rand_poly(rng, 2, nonzero=True), rand_poly(rng, 1, nonzero=True))
            eq = RischEquation(a, h.derivative() + a * h)
            out = solve_general(eq)
            assert out.has_rational_solution
            assert verify_solution(eq, out.solution)
