"""Acceptance suite: one test per exit criterion, exact assertions, with a
pass line printed per criterion.  Run with `pytest tests/test_acceptance.py -v`.
"""

import random
import time
from fractions import Fraction

from ratcert.algebra import Poly, RatFunc, residues
from ratcert.analyzer import Verdict, analyze
from ratcert.planar import (
    BivarPoly,
    BivarRatFunc,
    PlanarField,
    foliation_derivatives,
    verify_darboux_integral,
)
from ratcert.risch import (
    KaltofenInstance,
    RischEquation,
    build_risch,
    solve_general,
    solve_xk_specialized,
    verify_solution,
)
from conftest import (
    projective_relations_hold,
    rand_bivar,
    rand_poly,
    rand_ratfunc,
    ve_rows_hold_on_flow,
)
from reference import (
    fundamental_matrix,
    lve_matrix,
    matrix_satisfies_lve,
    ve_rhs,
    verify_fundamental_matrix,
)

X = Poly.x()
XV, YV = BivarPoly.var(0), BivarPoly.var(1)


def cubic_family_field(a, b, c) -> PlanarField:
    q = YV * (XV**2 - c * XV - BivarPoly.const(b) - a * YV)
    return PlanarField(XV**3 - YV, q)


def test_criterion_01_cubic_family_not_integrable():
    """20 parameter triples with b != 0 and c != -a*b/3 certify order-2
    non-integrability with case tag 2d, each in under a second."""
    triples = [
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(2), Fraction(0)),
        (Fraction(2), Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(-1), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(-1)),
        (Fraction(3), Fraction(1), Fraction(1)),
        (Fraction(3), Fraction(2), Fraction(2)),
        (Fraction(1, 2), Fraction(1), Fraction(0)),
        (Fraction(1, 2), Fraction(-2), Fraction(1)),
        (Fraction(2, 3), Fraction(3), Fraction(1)),
        (Fraction(-5), Fraction(1, 2), Fraction(1)),
        (Fraction(4), Fraction(-3), Fraction(5)),
        (Fraction(1), Fraction(5), Fraction(2)),
        (Fraction(-2), Fraction(-2), Fraction(-2)),
        (Fraction(7), Fraction(1, 3), Fraction(0)),
        (Fraction(1, 4), Fraction(4), Fraction(1, 2)),
        (Fraction(-1, 2), Fraction(6), Fraction(3)),
    ]
    assert len(triples) == 20
    for a, b, c in triples:
        assert b != 0 and c != -a * b / 3
        started = time.perf_counter()
        cert = analyze(cubic_family_field(a, b, c), RatFunc.zero(), 2)
        elapsed = time.perf_counter() - started
        assert cert.verdict == Verdict.not_integrable(2), (a, b, c)
        assert cert.orders[-1].outcome.case == "2d", (a, b, c)
        assert elapsed < 1.0, (a, b, c, elapsed)
    print("[criterion 1] PASS: 20 cubic-family instances certified at k=2, case 2d")


def test_criterion_02_cubic_family_decidability_boundary():
    """At (a, b, c) = (3, 1, -1) the order-2 equation has the exact rational
    solution (-6x^2 + 2)/x^3, substitution-verified."""
    field = cubic_family_field(Fraction(3), Fraction(1), Fraction(-1))
    betas = foliation_derivatives(field, RatFunc.zero(), 2)
    eq = build_risch(betas[0], betas[1], 2)
    expected = RatFunc(-6 * X**2 + 2, X**3)
    general = solve_general(eq)
    assert general.solution == expected
    assert verify_solution(eq, expected)
    from ratcert.risch import match_kaltofen

    inst = match_kaltofen(eq)
    assert inst is not None
    assert solve_xk_specialized(inst).solution == expected
    print("[criterion 2] PASS: boundary instance solved by (-6x^2+2)/x^3, verified")


def test_criterion_03_power_pole_family_threshold():
    """Constant profiles A = 1, B = 1: pole exponent 2 is solvable with the
    exact known solution, exponents 3..6 are not."""
    sol = solve_xk_specialized(KaltofenInstance(Poly.const(1), Poly.const(1), 2))
    a_val = b_val = Fraction(1)
    expected = (
        RatFunc(2, X**2)
        + RatFunc(Poly.const(4 / a_val), X)
        + RatFunc(Poly.const(2 * b_val / a_val + 4 / a_val**2))
    )
    assert expected == RatFunc(6 * X**2 + 4 * X + 2, X**2)
    assert sol.solution == expected
    for exponent in range(3, 7):
        inst = KaltofenInstance(Poly.const(1), Poly.const(1), exponent)
        special = solve_xk_specialized(inst)
        general = solve_general(inst.equation())
        assert not special.has_rational_solution, exponent
        assert not general.has_rational_solution, exponent
    print("[criterion 3] PASS: pole exponent 2 solvable, exponents 3..6 obstructed")


def test_criterion_04_linear_profile_dichotomy():
    """A = a1*x + 1, B = 0, pole exponent 2: solutions exist exactly for
    a1 in {-2, -1, 0, 1}; a1 in {2, 3, 7} falls in case 2a with none."""
    for a1 in (-2, -1, 0, 1):
        inst = KaltofenInstance(Poly([1, a1]), Poly.zero(), 2)
        out = solve_xk_specialized(inst)
        assert out.has_rational_solution, a1
        assert verify_solution(inst.equation(), out.solution)
        assert solve_general(inst.equation()).has_rational_solution
    exact = solve_xk_specialized(KaltofenInstance(X + 1, Poly.zero(), 2))
    assert exact.solution == RatFunc(4 * X + 2, X**2)
    for a1 in (2, 3, 7):
        inst = KaltofenInstance(Poly([1, a1]), Poly.zero(), 2)
        out = solve_xk_specialized(inst)
        assert out.case == "2a" and not out.has_rational_solution, a1
        assert not solve_general(inst.equation()).has_rational_solution
    print("[criterion 4] PASS: linear-profile dichotomy matches, including case 2a")


def test_criterion_05_elementary_family_to_order_ten():
    """The quadratic field with the Darboux-type first integral stays
    unobstructed through order 10 and the integral identity checks exactly."""
    started = time.perf_counter()
    field = PlanarField(XV**2 - YV, YV * (XV + 1))
    cert = analyze(field, RatFunc.zero(), 10)
    assert cert.verdict == Verdict.all_elementary(10)
    assert [rec.k for rec in cert.orders] == list(range(2, 11))
    for rec in cert.orders:
        assert rec.outcome.has_rational_solution
        assert verify_solution(rec.equation, rec.outcome.solution)
    r = BivarRatFunc(XV + YV, YV)
    s = BivarRatFunc(-(XV + 1), XV + YV)
    assert verify_darboux_integral(field, r, s)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, elapsed
    print(f"[criterion 5] PASS: orders 2..10 all elementary + Darboux check ({elapsed:.2f}s)")


def _random_kaltofen_instance(rng: random.Random) -> KaltofenInstance:
    k = rng.randint(2, 6)
    n = rng.randint(0, k - 1)
    cs = [Fraction(rng.randint(-5, 5)) for _ in range(n + 1)]
    if cs[0] == 0:
        cs[0] = Fraction(rng.choice([1, -1, 2, -2]))
    if cs[-1] == 0:
        cs[-1] = Fraction(rng.choice([1, -1, 2]))
    if rng.random() < 0.2 and n >= 1:
        cs[-1] = Fraction(rng.randint(1, 9), rng.choice([2, 3, 4]))
    if rng.random() < 0.1 and n == k - 1:
        cs[-1] = Fraction(k)
    alpha_num = Poly(cs)
    if rng.random() < 0.3:
        shift = Poly.zero()
    else:
        m = rng.randint(0, k - 1)
        bs = [Fraction(rng.randint(-4, 4)) for _ in range(m + 1)]
        if bs[0] == 0:
            bs[0] = Fraction(rng.choice([1, -1, 3]))
        if bs[-1] == 0:
            bs[-1] = Fraction(rng.choice([1, -1, 2]))
        shift = Poly(bs)
    return KaltofenInstance(alpha_num, shift, k)


def test_criterion_06_solver_cross_validation():
    """500 random power-pole instances agree across the two deciders; 1000
    planted equations round-trip, with unique recovery whenever the high-pole
    clause guarantees a transcendental homogeneous solution."""
    started = time.perf_counter()
    rng = random.Random(20260808)
    for _ in range(500):
        inst = _random_kaltofen_instance(rng)
        special = solve_xk_specialized(inst)
        general = solve_general(inst.equation())
        assert special.has_rational_solution == general.has_rational_solution, inst
        if special.has_rational_solution:
            assert special.solution == general.solution, inst

    from ratcert.analyzer import check_h1

    unique_checked = 0
    for trial in range(1000):
        if trial % 10 < 7:
            j = rng.randint(2, 4)
            core = rand_poly(rng, j - 1, nonzero=True)
            if core.coeff(0) == 0:
                core = core + 1
            a = RatFunc(core, Poly.monomial(j))
        else:
            a = RatFunc(Poly.const(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, 2)):
            ell = rng.randint(-3, 3)
            if ell:
                a = a + ell * RatFunc(1, Poly([-rng.randint(1, 5), 1]))
        h = RatFunc(
            rand_poly(rng, rng.randint(0, 3), nonzero=True),
            Poly.monomial(rng.randint(0, 2)) * Poly([-1, 1]) ** rng.randint(0, 1),
        )
        eq = RischEquation(a, h.derivative() + a * h)
        out = solve_general(eq)
        assert out.has_rational_solution
        assert verify_solution(eq, out.solution)
        # order 2: the tested hypothesis applies to a itself
        report = check_h1(a, "literal", residues(a))
        if report.holds and report.has_high_order_finite_pole:
            unique_checked += 1
            assert out.solution == h, (a, h)
    assert unique_checked >= 400
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, elapsed
    print(
        f"[criterion 6] PASS: 500 cross-validated + 1000 round-trips "
        f"({unique_checked} unique recoveries, {elapsed:.1f}s)"
    )


def test_criterion_07_formal_fundamental_matrices():
    """The closed-form order-2 and order-3 fundamental matrices verify for
    100 random rational coefficient triples and fail under corruption."""
    rng = random.Random(404)
    for _ in range(100):
        alpha = rand_ratfunc(rng, 3, 3)
        beta2 = rand_ratfunc(rng, 3, 3)
        beta3 = rand_ratfunc(rng, 3, 3)
        assert verify_fundamental_matrix(2, alpha, beta2)
        assert verify_fundamental_matrix(3, alpha, beta2, beta3)
    alpha, beta2, beta3 = RatFunc(1, X), RatFunc(X), RatFunc(X + 1)
    for k in (2, 3):
        betas = [alpha, beta2] if k == 2 else [alpha, beta2, beta3]
        system = lve_matrix(k, betas)
        phi = [list(row) for row in fundamental_matrix(k)]
        phi[k - 1][0] = -phi[k - 1][0]
        assert not matrix_satisfies_lve(phi, system, alpha, beta2, beta3)
    print("[criterion 7] PASS: fundamental matrices verified on 100 triples, corruption detected")


def test_criterion_08_infinity_chart_identities():
    """For 100 random fields of degree at most 5: the cleared chart-change
    relations and the cross-multiplied foliation identity hold exactly."""
    rng = random.Random(808)
    checked = 0
    while checked < 100:
        p = rand_bivar(rng, rng.randint(1, 5))
        q = rand_bivar(rng, rng.randint(1, 5))
        if p.is_zero and q.is_zero:
            continue
        assert projective_relations_hold(PlanarField(p, q))
        checked += 1
    print("[criterion 8] PASS: chart relations and foliation identity on 100 random fields")


def test_criterion_09_variational_rows_and_flow_oracle():
    """Rows through order 3 equal the expected triangular structure and the
    order-4 row matches the Picard flow-series oracle on a fixed equation."""
    rows = {
        j: {(t.coeff, t.beta_index, t.monomial) for t in ve_rhs(4).rows[j - 1]} for j in (1, 2, 3, 4)
    }
    assert rows[1] == {(1, 1, (1,))}
    assert rows[2] == {(1, 1, (2,)), (1, 2, (1, 1))}
    assert rows[3] == {(1, 1, (3,)), (3, 2, (1, 2)), (1, 3, (1, 1, 1))}
    assert rows[4] == {
        (1, 1, (4,)),
        (4, 2, (1, 3)),
        (3, 2, (2, 2)),
        (6, 3, (1, 1, 2)),
        (1, 4, (1, 1, 1, 1)),
    }
    slope = YV + XV * YV**2 + YV**3 + XV**2 * YV**4
    assert ve_rows_hold_on_flow(slope, ve_rhs(4), x_order=12)
    print("[criterion 9] PASS: printed rows match and order-4 row agrees with the flow oracle")
