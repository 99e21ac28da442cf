"""Variational rows, linearised matrices, and formal fundamental matrices."""

import random

import pytest

from ratcert.algebra import Poly, RatFunc
from ratcert.planar import BivarPoly
from conftest import rand_ratfunc, ve_rows_hold_on_flow
from reference import (
    FormalWord,
    LVESubsystem,
    VETerm,
    bell_number,
    fundamental_matrix,
    lve_matrix,
    matrix_satisfies_lve,
    partial_bell,
    ve_rhs,
    verify_fundamental_matrix,
)

X = Poly.x()


def row_terms(structure, j):
    return {(t.coeff, t.beta_index, t.monomial) for t in structure.rows[j - 1]}


class TestVERows:
    def test_order_two(self):
        s = ve_rhs(2)
        assert row_terms(s, 1) == {(1, 1, (1,))}
        assert row_terms(s, 2) == {(1, 1, (2,)), (1, 2, (1, 1))}

    def test_order_three(self):
        s = ve_rhs(3)
        assert row_terms(s, 3) == {(1, 1, (3,)), (3, 2, (1, 2)), (1, 3, (1, 1, 1))}

    def test_order_four(self):
        s = ve_rhs(4)
        assert row_terms(s, 4) == {
            (1, 1, (4,)),
            (4, 2, (1, 3)),
            (3, 2, (2, 2)),
            (6, 3, (1, 1, 2)),
            (1, 4, (1, 1, 1, 1)),
        }

    def test_weighted_degree_invariant(self):
        s = ve_rhs(7)
        for j, row in enumerate(s.rows, start=1):
            for term in row:
                assert sum(term.monomial) == j
                assert 1 <= term.beta_index <= j
        assert s.rows[0] == (VETerm(1, 1, (1,)),)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            ve_rhs(0)

    def test_bell_sums(self):
        assert [bell_number(j) for j in range(1, 9)] == [1, 2, 5, 15, 52, 203, 877, 4140]

    def test_partial_bell_base_cases(self):
        assert partial_bell(0, 0) == {(): 1}
        assert partial_bell(3, 0) == {}
        assert partial_bell(2, 3) == {}

    def test_rows_match_actual_flow(self):
        # independent oracle: Picard-iterate y' = f(x, y) and check each row
        # as a truncated series identity in (x, eps)
        f = (
            BivarPoly.var(1)
            + BivarPoly.var(0) * BivarPoly.var(1) ** 2
            + BivarPoly.var(1) ** 3
            + BivarPoly.var(0) ** 2 * BivarPoly.var(1) ** 4
        )
        assert ve_rows_hold_on_flow(f, ve_rhs(4), x_order=12)

    def test_corrupted_row_fails_flow_check(self):
        f = BivarPoly.var(1) + BivarPoly.var(0) * BivarPoly.var(1) ** 2 + BivarPoly.var(1) ** 3
        good = ve_rhs(3)
        bad_row3 = tuple(
            VETerm(2, t.beta_index, t.monomial) if t.monomial == (1, 2) else t
            for t in good.rows[2]
        )
        corrupted = type(good)(3, (good.rows[0], good.rows[1], bad_row3))
        assert not ve_rows_hold_on_flow(f, corrupted, x_order=10)


class TestLVEMatrix:
    def test_order_two_shape(self):
        b1, b2 = RatFunc(1, X), RatFunc(X)
        m = lve_matrix(2, [b1, b2])
        assert m == ((2 * b1, RatFunc.zero()), (b2, b1))

    def test_order_three_shape_and_diagonal(self):
        b1, b2, b3 = RatFunc(1, X), RatFunc(X), RatFunc(X + 1)
        m = lve_matrix(3, [b1, b2, b3])
        assert m == (
            (3 * b1, RatFunc.zero(), RatFunc.zero()),
            (b2, 2 * b1, RatFunc.zero()),
            (b3, 3 * b2, b1),
        )
        assert [m[i][i] for i in range(3)] == [3 * b1, 2 * b1, b1]

    def test_cubic_example_coefficients(self):
        from ratcert.planar import PlanarField, foliation_derivatives

        xv, yv = BivarPoly.var(0), BivarPoly.var(1)
        field = PlanarField(xv**3 - yv, yv * (xv**2 - xv - 1 - yv))
        betas = foliation_derivatives(field, RatFunc.zero(), 3)
        m = lve_matrix(3, betas)
        assert m[0][0] == 3 * RatFunc(X**2 - X - 1, X**3)
        assert m[2][1] == 3 * betas[1]

    def test_higher_orders_rejected(self):
        with pytest.raises(ValueError):
            lve_matrix(4, [RatFunc.one()] * 4)
        with pytest.raises(ValueError):
            lve_matrix(2, [RatFunc.one()])


class TestLVESubsystem:
    def test_order_two_equals_full_system(self):
        alpha, beta2 = RatFunc(X**2 - X - 1, X**3), RatFunc(2, X**3)
        sub = LVESubsystem(alpha, beta2, 2)
        assert sub.matrix() == lve_matrix(2, [alpha, beta2])

    def test_diagonal_scales_with_order(self):
        alpha, beta3 = RatFunc(1, X), RatFunc(X)
        sub = LVESubsystem(alpha, beta3, 3)
        assert sub.matrix() == ((3 * alpha, RatFunc.zero()), (beta3, alpha))

    def test_first_order_rejected(self):
        with pytest.raises(ValueError):
            LVESubsystem(RatFunc.one(), RatFunc.one(), 1)


class TestFundamentalMatrices:
    def test_symbolic_order_two(self):
        assert verify_fundamental_matrix(2, RatFunc(1, X), RatFunc(X))

    def test_symbolic_order_three(self):
        assert verify_fundamental_matrix(3, RatFunc(1, X), RatFunc(X), RatFunc(X**2 - 1, X))

    def test_random_coefficients(self):
        rng = random.Random(99)
        for _ in range(30):
            alpha = rand_ratfunc(rng, 3, 3)
            beta2 = rand_ratfunc(rng, 3, 3)
            beta3 = rand_ratfunc(rng, 3, 3)
            assert verify_fundamental_matrix(2, alpha, beta2)
            assert verify_fundamental_matrix(3, alpha, beta2, beta3)

    def test_sign_flip_detected(self):
        # flipping the lone entry of the last column only rescales a basis
        # solution, so every other single-entry sign flip must be caught
        alpha, beta2, beta3 = RatFunc(1, X), RatFunc(X), RatFunc(1, X + 1)
        for k in (2, 3):
            betas = [alpha, beta2] if k == 2 else [alpha, beta2, beta3]
            system = lve_matrix(k, betas)
            base = fundamental_matrix(k)
            for i in range(k):
                for j in range(i + 1):
                    if (i, j) == (k - 1, k - 1):
                        continue
                    phi = [list(row) for row in base]
                    phi[i][j] = -phi[i][j]
                    assert not matrix_satisfies_lve(phi, system, alpha, beta2, beta3)

    def test_order_three_requires_beta3(self):
        with pytest.raises(ValueError):
            verify_fundamental_matrix(3, RatFunc.one(), RatFunc.one())
        with pytest.raises(ValueError):
            verify_fundamental_matrix(4, RatFunc.one(), RatFunc.one(), RatFunc.one())


class TestFormalWord:
    def test_product_rule(self):
        w = FormalWord.symbol("w")
        t1 = FormalWord.symbol("t1")
        alpha, beta2, beta3 = RatFunc(1, X), RatFunc(X), RatFunc.zero()
        prod = w * t1
        direct = prod.differentiate(alpha, beta2, beta3)
        leibniz = w.differentiate(alpha, beta2, beta3) * t1 + w * t1.differentiate(
            alpha, beta2, beta3
        )
        assert direct == leibniz

    def test_coefficient_derivative_included(self):
        w = FormalWord.symbol("w")
        alpha = RatFunc(1, X)
        word = w * RatFunc(X)  # x*w
        d = word.differentiate(alpha, RatFunc.zero(), RatFunc.zero())
        # (x*w)' = w + x*alpha*w = (1 + 1)*w since x*(1/x) = 1
        assert d == w * RatFunc(2)
