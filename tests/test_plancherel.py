"""Plancherel polynomials, Miatello coefficients, and the spectral density."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperzeta.plancherel import (
    EvenPolynomial,
    miatello_coefficients,
    plancherel_density,
    plancherel_polynomial,
)


def product_form(k: int, p: int, r2: Fraction) -> Fraction:
    """Direct (unexpanded) evaluation of the defining product at r^2."""
    if p >= k:
        p = 2 * k - 1 - p
    out = Fraction(1)
    for ell in range(2, p + 2):
        out *= r2 + Fraction(2 * (k - ell) + 3, 2) ** 2
    for ell in range(p + 2, k + 1):
        out *= r2 + Fraction(2 * (k - ell) + 1, 2) ** 2
    return out


class TestPolynomial:
    def test_k1_is_constant_one(self):
        poly = plancherel_polynomial(1, 0)
        assert poly.coefficients == (Fraction(1),)
        assert poly.degree_in_r2 == 0

    def test_k2_examples(self):
        assert plancherel_polynomial(2, 0).coefficients == (Fraction(1, 4), Fraction(1))
        assert plancherel_polynomial(2, 1).coefficients == (Fraction(9, 4), Fraction(1))

    def test_k3_example(self):
        assert plancherel_polynomial(3, 0).coefficients == (
            Fraction(9, 16),
            Fraction(5, 2),
            Fraction(1),
        )

    def test_fold_p2_equals_p1(self):
        assert plancherel_polynomial(2, 2) == plancherel_polynomial(2, 1)

    def test_symmetry_all_k_up_to_4(self):
        for k in range(1, 5):
            for p in range(2 * k):
                assert plancherel_polynomial(k, p) == plancherel_polynomial(
                    k, 2 * k - 1 - p
                ), (k, p)

    def test_monic_and_positive_up_to_k7(self):
        for k in range(1, 8):
            for p in range(2 * k):
                poly = plancherel_polynomial(k, p)
                assert poly.is_monic(), (k, p)
                assert all(c > 0 for c in poly.coefficients), (k, p)
                assert len(poly.coefficients) == k

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            plancherel_polynomial(2, 4)
        with pytest.raises(ValueError):
            plancherel_polynomial(2, -1)
        with pytest.raises(ValueError):
            plancherel_polynomial(0, 0)

    @given(
        st.one_of(
            st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=25)
        ),
        st.integers(min_value=0, max_value=49),
        st.fractions(min_value=-10, max_value=10, max_denominator=64),
    )
    def test_expansion_matches_product_form(self, k, p, r2):
        if p > 2 * k - 1:
            p = p % (2 * k)
        expanded = plancherel_polynomial(k, p).eval_at_r2(r2)
        assert expanded == product_form(k, p, r2)

    def test_multiplication_degree_and_values(self):
        a = plancherel_polynomial(3, 0)
        b = plancherel_polynomial(2, 1)
        prod = a * b
        assert prod.degree_in_r2 == a.degree_in_r2 + b.degree_in_r2
        for r2 in (Fraction(0), Fraction(3, 7), Fraction(-2)):
            assert prod.eval_at_r2(r2) == a.eval_at_r2(r2) * b.eval_at_r2(r2)


class TestMiatello:
    def test_examples(self):
        assert miatello_coefficients(2, 0) == (Fraction(1, 4), Fraction(1))
        assert miatello_coefficients(3, 0) == (
            Fraction(9, 16),
            Fraction(5, 2),
            Fraction(1),
        )

    def test_minus_one_sector_is_zero(self):
        assert miatello_coefficients(2, -1) == (Fraction(0), Fraction(0))
        assert miatello_coefficients(4, -1) == (Fraction(0),) * 4

    def test_range_errors(self):
        with pytest.raises(ValueError):
            miatello_coefficients(2, -2)
        with pytest.raises(ValueError):
            miatello_coefficients(2, 4)


class TestDensity:
    def test_zero_at_origin(self):
        assert plancherel_density(1, 0, 0.0) == 0.0

    def test_k1_closed_form(self):
        # prefactor pi/(2^0 * Gamma(1)^2) * C(1,0) = pi
        got = plancherel_density(1, 0, 1.0)
        assert math.isclose(got, math.pi * math.tanh(math.pi), rel_tol=1e-15)
        assert abs(got - 3.12988) < 1e-5

    def test_symmetry_in_p(self):
        for r in (0.3, 1.0, 4.7):
            assert plancherel_density(2, 1, r) == plancherel_density(2, 2, r)

    def test_even_parity(self):
        # r (odd) times P(r^2) (even) times tanh(pi r) (odd) is even; this
        # evenness is what lets the identity integral run on [0, inf) doubled
        for r in (0.5, 2.0, 9.0):
            assert plancherel_density(3, 1, -r) == plancherel_density(3, 1, r)
            assert plancherel_density(2, 0, -r) == plancherel_density(2, 0, r)

    def test_positive_for_positive_r(self):
        for k in range(1, 5):
            for p in range(2 * k):
                assert plancherel_density(k, p, 0.7) > 0

    def test_large_r_no_overflow(self):
        val = plancherel_density(2, 0, 500.0)
        assert math.isfinite(val) and val > 0

    def test_nonfinite_r_rejected(self):
        with pytest.raises(ValueError):
            plancherel_density(2, 0, float("nan"))


class TestEvenPolynomialType:
    def test_trailing_zeros_trimmed(self):
        poly = EvenPolynomial((Fraction(1), Fraction(2), Fraction(0)))
        assert poly.coefficients == (Fraction(1), Fraction(2))

    def test_call_uses_r_squared(self):
        poly = EvenPolynomial((Fraction(1, 4), Fraction(1)))
        assert poly(Fraction(2)) == Fraction(17, 4)
        assert poly(Fraction(-2)) == Fraction(17, 4)

    def test_float_evaluation_branch(self):
        poly = plancherel_polynomial(3, 1)
        exact = poly.eval_at_r2(Fraction(9, 4))
        assert math.isclose(poly.eval_at_r2(2.25), float(exact), rel_tol=1e-15)
