"""Obstruction checks, the analysis driver, and certificate invariants."""

import random
from fractions import Fraction

import pytest

from ratcert import analyzer, planar
from ratcert.algebra import Poly, RatFunc, residues
from ratcert.parsing import parse_univar_ratfunc
from ratcert.planar import BivarPoly, PlanarField, infinity_transform
from ratcert.analyzer import (
    Verdict,
    analyze,
    canonical_json,
    check_h1,
    check_hk,
)
from ratcert.risch import RischEquation, solve_general, verify_solution

X = Poly.x()
XV, YV = BivarPoly.var(0), BivarPoly.var(1)


def cubic_example_field(a=1, b=1, c=1) -> PlanarField:
    return PlanarField(XV**3 - YV, YV * (XV**2 - c * XV - BivarPoly.const(b) - a * YV))


def elementary_example_field(a=1) -> PlanarField:
    return PlanarField(XV**2 - YV, YV * (XV + BivarPoly.const(a)))


def _h1(alpha: RatFunc, interpretation: str = "literal"):
    return check_h1(alpha, interpretation, residues(alpha))


class TestCheckH1:
    def test_cubic_alpha_holds(self):
        report = _h1(RatFunc(X**2 - X - 1, X**3))
        assert report.holds
        assert report.has_high_order_finite_pole
        assert report.residues_all_integer
        assert report.pole_factors == (("x", 3),)

    def test_pure_power_pole_vacuous_residues(self):
        for k in (2, 3, 5):
            assert _h1(RatFunc(1, X**k)).holds

    def test_half_residue_fails_both_readings(self):
        alpha = RatFunc(X + 1, 2 * X)
        assert not _h1(alpha, "literal").holds
        assert not _h1(alpha, "corrected").holds

    def test_interpretations_disagree_on_degree_clause(self):
        # alpha = x has no finite pole; the degree clause decides
        alpha = RatFunc(X)
        literal = _h1(alpha, "literal")
        corrected = _h1(alpha, "corrected")
        assert not literal.degree_condition and corrected.degree_condition
        assert not literal.holds and corrected.holds

    def test_unknown_interpretation_rejected(self):
        with pytest.raises(ValueError):
            _h1(RatFunc.one(), "loose")


class TestCheckHk:
    def test_cubic_example_obstruction(self):
        alpha = RatFunc(X**2 - X - 1, X**3)
        beta2 = -2 * (RatFunc(1, X**3) - RatFunc(X**2 - X - 1, X**6))
        record = check_hk(alpha, beta2, 2)
        assert record.holds and record.k == 2
        assert record.outcome.case == "2d"

    def test_boundary_has_solution(self):
        alpha = RatFunc(X**2 + X - 1, X**3)
        beta2 = -2 * (RatFunc(3, X**3) - RatFunc(X**2 + X - 1, X**6))
        record = check_hk(alpha, beta2, 2)
        assert not record.holds
        assert record.outcome.solution == RatFunc(-6 * X**2 + 2, X**3)

    def test_zero_beta_never_obstructs(self):
        record = check_hk(RatFunc(X**2 - X - 1, X**3), RatFunc.zero(), 2)
        assert not record.holds
        assert record.outcome.solution == RatFunc.zero()


class TestAnalyze:
    def test_cubic_example_not_integrable(self):
        cert = analyze(cubic_example_field(), RatFunc.zero(), 2)
        assert cert.verdict == Verdict.not_integrable(2)
        assert cert.orders[0].outcome.case == "2d"
        assert cert.chart == "original"

    def test_elementary_example_inconclusive(self):
        cert = analyze(elementary_example_field(), RatFunc.zero(), 3)
        assert cert.verdict == Verdict.all_elementary(3)
        assert len(cert.orders) == 2
        for record in cert.orders:
            assert record.outcome.has_rational_solution

    def test_one_equation_and_one_invariance_check_per_analysis(self, monkeypatch):
        calls = {"build": 0, "invariant": 0}
        real_build, real_invariant = analyzer.build_risch, planar.is_invariant_curve

        def build(*args):
            calls["build"] += 1
            return real_build(*args)

        def invariant(*args):
            calls["invariant"] += 1
            return real_invariant(*args)

        monkeypatch.setattr(analyzer, "build_risch", build)
        monkeypatch.setattr(planar, "is_invariant_curve", invariant)
        cert = analyze(elementary_example_field(), RatFunc.zero(), 5)
        assert len(cert.orders) == 4
        assert calls == {"build": 4, "invariant": 1}
        assert [record.equation.order for record in cert.orders] == [2, 3, 4, 5]
        for record in cert.orders:
            assert record.equation.alpha is cert.orders[0].equation.alpha
            assert verify_solution(record.equation, record.outcome.solution)

    def test_one_residue_report_per_analysis(self, monkeypatch):
        # check_h1 and every order reuse alpha's report
        from ratcert import risch

        calls = []
        real = analyzer.residues

        def counted(r):
            calls.append(r)
            return real(r)

        monkeypatch.setattr(analyzer, "residues", counted)
        monkeypatch.setattr(risch, "residues", counted)
        cert = analyze(elementary_example_field(), RatFunc.zero(), 5)
        assert len(cert.orders) == 4
        assert len(calls) == 1
        calls.clear()
        check_hk(RatFunc(X**2 - X - 1, X**3), RatFunc(1, X**3), 3)
        assert len(calls) == 1

    def test_one_split_of_alpha_per_analysis(self, monkeypatch):
        # (k-1)*alpha keeps alpha's denominator, so every order reads the
        # split that residues made once and check_h1 used
        from ratcert import algebra

        dens, splits = [], []
        real_split, real_general = algebra.squarefree_decompose, analyzer.solve_general

        def split(p):
            dens.append(p)
            return real_split(p)

        def general(eq, **kwargs):
            splits.append(list(kwargs["alpha_residues"].split))
            return real_general(eq, **kwargs)

        monkeypatch.setattr(algebra, "squarefree_decompose", split)
        monkeypatch.setattr(analyzer, "solve_general", general)
        cert = analyze(elementary_example_field(), RatFunc.zero(), 5)
        alpha_den = cert.orders[0].equation.alpha.den
        assert alpha_den == X**2
        assert dens.count(alpha_den) == 1
        assert splits == [real_split(alpha_den)] * 4

    def test_specialized_record_keeps_the_order_equation(self):
        cert = analyze(cubic_example_field(), RatFunc.zero(), 2)
        (record,) = cert.orders
        assert record.outcome.solver == "specialized"
        assert record.equation.order == 2
        assert record.equation.a == record.equation.alpha == RatFunc(X**2 - X - 1, X**3)

    def test_half_slope_fails_h1(self):
        field = PlanarField(XV**2 - YV, YV * (Fraction(1, 2) * XV + BivarPoly.const(1)))
        cert = analyze(field, RatFunc.zero(), 4)
        assert cert.verdict == Verdict.h1_failed()
        assert cert.orders == ()

    def test_non_invariant_curve_rejected(self):
        field = PlanarField(BivarPoly.const(1), BivarPoly.const(1))
        with pytest.raises(ValueError):
            analyze(field, RatFunc.zero(), 2)

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            analyze(cubic_example_field(), RatFunc.zero(), 1)

    def test_kmax_upper_bound(self):
        with pytest.raises(ValueError, match=f"k_max must be <= {analyzer.MAX_KMAX}"):
            analyze(cubic_example_field(), RatFunc.zero(), analyzer.MAX_KMAX + 1)

    def test_at_infinity_matches_direct_transform(self):
        tilde = PlanarField(BivarPoly.var(1), BivarPoly.var(0))  # z2 d1 + z1 d2
        direct = analyze(infinity_transform(tilde), RatFunc.zero(), 2)
        via_flag = analyze(tilde, RatFunc.zero(), 2, at_infinity=True)
        assert via_flag.chart == "infinity"
        assert via_flag.verdict == direct.verdict
        assert via_flag.transformed is not None

    def test_role_swap_recorded_when_first_component_vanishes(self):
        tilde = PlanarField(BivarPoly.zero(), BivarPoly.var(1))  # only z2 d/dz2
        cert = analyze(tilde, RatFunc.zero(), 2, at_infinity=True)
        assert cert.swapped
        assert cert.chart == "infinity"

    def test_deterministic_serialisation(self):
        a = canonical_json(analyze(cubic_example_field(), RatFunc.zero(), 2).to_dict())
        b = canonical_json(analyze(cubic_example_field(), RatFunc.zero(), 2).to_dict())
        assert a == b and a.encode() == b.encode()

    def test_interpretation_recorded(self):
        cert = analyze(cubic_example_field(), RatFunc.zero(), 2, interpretation="corrected")
        assert cert.h1.interpretation == "corrected"


class TestCertificateInvariants:
    def test_negative_verdict_survives_widened_bounds(self):
        # witnesses at order 2 and at order 3, where (k-1)*alpha != alpha
        for field in (cubic_example_field(), cubic_example_field(1, 3, -1)):
            cert = analyze(field, RatFunc.zero(), 3)
            assert cert.verdict.status == "NotRationallyIntegrable"
            witness = cert.orders[-1]
            assert not witness.outcome.has_rational_solution
            rerun = solve_general(witness.equation, pole_slack=2)
            assert not rerun.has_rational_solution
            # the report's strings alone rebuild the witness equation
            o = cert.to_dict()["orders"][-1]
            alpha, beta = parse_univar_ratfunc(o["alpha"]), parse_univar_ratfunc(o["beta"])
            eq = RischEquation(alpha, beta, o["k"])
            assert eq == witness.equation and eq.order == cert.verdict.k
            assert not solve_general(eq, pole_slack=1).has_rational_solution

    def test_inconclusive_embeds_verified_solutions(self):
        cert = analyze(elementary_example_field(), RatFunc.zero(), 4)
        assert cert.verdict.reason == "AllOrdersElementary"
        for record in cert.orders:
            assert record.outcome.has_rational_solution
            assert verify_solution(record.equation, record.outcome.solution)

    def test_witness_order_is_minimal(self):
        rng = random.Random(13)
        fields = [cubic_example_field(), cubic_example_field(2, 3, 1)]
        for field in fields:
            cert = analyze(field, RatFunc.zero(), 3)
            if cert.verdict.status != "NotRationallyIntegrable":
                continue
            k = cert.verdict.k
            assert cert.orders[-1].k == k
            for record in cert.orders[:-1]:
                assert record.outcome.has_rational_solution

    def test_verdict_requires_h1_and_witness(self):
        cert = analyze(cubic_example_field(), RatFunc.zero(), 2)
        assert cert.h1.holds
        assert any(not r.outcome.has_rational_solution for r in cert.orders)

    def test_json_shape(self):
        cert = analyze(cubic_example_field(), RatFunc.zero(), 2)
        d = cert.to_dict()
        assert set(d) >= {"field", "curve", "chart", "h1", "orders", "verdict"}
        assert d["verdict"] == {"status": "NotRationallyIntegrable", "k": 2}
        order = d["orders"][0]
        assert order["k"] == 2
        assert order["outcome"]["status"] == "NoRationalSolution"
        assert order["outcome"]["case"] == "2d"
