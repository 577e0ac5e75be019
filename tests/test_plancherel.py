"""Plancherel coefficients (Miatello's a_{2l}) and the spectral density."""

import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperzeta import plancherel
from hyperzeta.exact import MAX_DIMENSION
from hyperzeta.plancherel import (
    integer_coefficients, miatello_coefficients, plancherel_density, tanh_pi,
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


def mp_density(k, p, r):
    """The defining formula of mu_p(r) at 30 digits."""
    with mpmath.workdps(30):
        x = mpmath.mpf(r)
        poly = mpmath.mpf(0)
        for c in reversed(miatello_coefficients(k, p)):
            poly = poly * x**2 + mpmath.mpf(c.numerator) / c.denominator
        norm = mpmath.pi / (mpmath.mpf(2) ** (4 * k - 4) * mpmath.factorial(k - 1) ** 2)
        return norm * math.comb(2 * k - 1, p) * x * poly * mpmath.tanh(mpmath.pi * x)


def horner(coeffs, r2):
    """Exact value of sum_l coeffs[l] * r2^l."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r2 + c
    return acc


class TestPolynomial:
    def test_k1_is_constant_one(self):
        assert miatello_coefficients(1, 0) == (Fraction(1),)

    def test_k2_examples(self):
        assert miatello_coefficients(2, 0) == (Fraction(1, 4), Fraction(1))
        assert miatello_coefficients(2, 1) == (Fraction(9, 4), Fraction(1))

    def test_k3_example(self):
        assert miatello_coefficients(3, 0) == (
            Fraction(9, 16),
            Fraction(5, 2),
            Fraction(1),
        )

    def test_fold_p2_equals_p1(self):
        assert miatello_coefficients(2, 2) == miatello_coefficients(2, 1)

    def test_symmetry_all_k_up_to_4(self):
        for k in range(1, 5):
            for p in range(2 * k):
                assert miatello_coefficients(k, p) == miatello_coefficients(
                    k, 2 * k - 1 - p
                ), (k, p)

    def test_monic_and_positive_up_to_k7(self):
        for k in range(1, 8):
            for p in range(2 * k):
                coeffs = miatello_coefficients(k, p)
                assert coeffs[-1] == 1, (k, p)
                assert all(c > 0 for c in coeffs), (k, p)
                assert len(coeffs) == k

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            miatello_coefficients(2, 4)
        with pytest.raises(ValueError):
            miatello_coefficients(0, 0)

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
        expanded = horner(miatello_coefficients(k, p), r2)
        assert expanded == product_form(k, p, r2)


class TestMiatello:
    def test_examples(self):
        assert miatello_coefficients(2, 0) == (Fraction(1, 4), Fraction(1))
        assert miatello_coefficients(3, 0) == (
            Fraction(9, 16),
            Fraction(5, 2),
            Fraction(1),
        )

    def test_range_errors(self):
        with pytest.raises(ValueError, match=r"form order p=-1 outside 0\.\.3 for n=4"):
            miatello_coefficients(2, -1)
        with pytest.raises(ValueError):
            miatello_coefficients(2, -2)
        with pytest.raises(ValueError):
            miatello_coefficients(2, 4)

    def test_dimension_cap(self):
        k_cap = MAX_DIMENSION // 2
        assert len(miatello_coefficients(k_cap, k_cap - 1)) == k_cap
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            miatello_coefficients(k_cap + 1, 0)
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            miatello_coefficients(k_cap + 1, -1)


def product_loop(k: int, p: int) -> tuple[int, ...]:
    """integer_coefficients by multiplying out its k - 1 factors (4x + m^2),
    m odd in 1..2k-1 except 2(k-p)-1: the expansion the package ran per
    sector before it divided one product per k."""
    p = min(p, 2 * k - 1 - p)
    ints = [1]
    for m in range(1, 2 * k, 2):
        if m == 2 * (k - p) - 1:
            continue
        m2 = m * m
        ints = [m2 * lo + 4 * hi for lo, hi in zip(ints + [0], [0] + ints)]
    return tuple(ints)


class TestDivisionRoute:
    @pytest.mark.parametrize("k", range(1, MAX_DIMENSION // 2 + 1))
    def test_every_sector_matches_the_product_loop(self, k):
        for p in range(k):
            expected = product_loop(k, p)
            assert integer_coefficients(k, p) == expected, (k, p)
            assert integer_coefficients(k, 2 * k - 1 - p) == expected, (k, p)

    @pytest.mark.parametrize("k,p", [(1, 0), (2, 1), (7, 3), (57, 40)])
    @pytest.mark.parametrize("where,delta", [
        ("top", 1), ("top", 4), ("middle", 1), ("middle", 4), ("constant", 1), ("constant", 4),
    ])
    def test_a_nonzero_remainder_raises(self, monkeypatch, k, p, where, delta):
        # a product that 4x + m^2 does not divide: moved by 1, that coefficient's
        # step leaves a remainder mod 4; moved by 4, a later step or the last does
        product = list(plancherel._full_product(k))
        product[{"top": -1, "middle": len(product) // 2, "constant": 0}[where]] += delta
        monkeypatch.setattr(plancherel, "_full_product", lambda k: tuple(product))
        with pytest.raises(RuntimeError, match=f"invariant violated for k={k}, p={p}"):
            integer_coefficients(k, p)


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

    def test_tanh_pi_saturates_at_both_ends(self):
        # past |2 pi r| = 709 e^(2 pi r) would overflow, so the limit is returned
        assert tanh_pi(200.0) == 1.0
        assert tanh_pi(-200.0) == -1.0

    def test_large_r_no_overflow(self):
        val = plancherel_density(2, 0, 500.0)
        assert math.isfinite(val) and val > 0

    def test_matches_exact_polynomial_value(self):
        # r^2 = 9/4 is exact in binary, so only the float Horner loop rounds;
        # at k = 3, p = 1 the prefactor is pi / (2^8 Gamma(3)^2) * C(5, 1)
        r = 1.5
        exact = horner(miatello_coefficients(3, 1), Fraction(9, 4))
        prefactor = math.pi / 1024.0 * 5.0 * r * math.tanh(math.pi * r)
        assert math.isclose(
            plancherel_density(3, 1, r), prefactor * float(exact), rel_tol=1e-14
        )

    @pytest.mark.parametrize(
        "n,p,r", [(150, 0, 1000.0), (150, 74, 1000.0), (100, 3, 3000.0), (2, 0, 1e300)]
    )
    def test_finite_where_the_polynomial_overflows(self, n, p, r):
        # the float Horner value of P_p(r^2) is inf at these points
        want = mp_density(n // 2, p, r)
        assert abs(plancherel_density(n // 2, p, r) - want) <= 1e-12 * want

    @pytest.mark.parametrize("n,p", [
        (2, 0), (12, 3), (40, 19), (150, 0), (150, 74),
        # the float normalisation underflows from n = 152 on
        (152, 0), (152, 75), (160, 0), (160, 79), (200, 0), (200, 99),
    ])
    @pytest.mark.parametrize(
        "r", [1e-200, 1e-17, 1e-10, 1e-5, 0.01, 0.1, 0.3, 2.5, 40.0, 1e3, 1e30, 1e300]
    )
    def test_normal_float_or_value_error(self, n, p, r):
        want = mp_density(n // 2, p, r)
        if sys.float_info.min <= want <= sys.float_info.max:
            assert abs(plancherel_density(n // 2, p, r) - want) <= 1e-12 * want
        else:
            with pytest.raises(ValueError, match=re.escape(f"r={r!r} ")):
                plancherel_density(n // 2, p, r)

    @pytest.mark.parametrize("k,r", [(3, 1e100), (75, 1e30), (75, 1e-200), (1, 1e-200)])
    def test_density_outside_float_range_rejected(self, k, r):
        with pytest.raises(ValueError, match=re.escape(f"r={r!r} ")):
            plancherel_density(k, 0, r)

    def test_nonfinite_r_rejected(self):
        with pytest.raises(ValueError):
            plancherel_density(2, 0, float("nan"))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            plancherel_density(MAX_DIMENSION // 2 + 1, 0, 1.0)

    def test_normalisation_outside_float_range_rounded_once(self):
        # pi / (2^(4k-4) Gamma(k)^2) is a normal float up to k = 75; above
        # it underflows to 0, and from k = 99 on Gamma(k)^2 overflows.  The
        # density raised ValueError naming n there; it is now the exact
        # product rounded once, and 0.0 at r = 0
        assert plancherel_density(75, 0, 0.3) > 0
        for k in (76, 99, MAX_DIMENSION // 2):
            want = mp_density(k, 0, 0.3)
            assert abs(plancherel_density(k, 0, 0.3) - want) <= 1e-15 * want, k
            assert repr(plancherel_density(k, 0, 0.0)) == "0.0", k
