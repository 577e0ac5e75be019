"""Exact-arithmetic layer: Bernoulli numbers, binomials, PiValue."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperzeta import exact
from hyperzeta.exact import (
    MAX_DIMENSION,
    PiPowerMismatchError,
    PiValue,
    bernoulli,
    binomial,
    check_dimension,
    half_gamma,
)


def akiyama_tanigawa(m: int) -> Fraction:
    # independent oracle: Akiyama-Tanigawa transform of 1/(j+1); yields B_m
    # with B_1 = +1/2, so flip that one entry to our B_1 = -1/2 convention
    row = [Fraction(1, j + 1) for j in range(m + 1)]
    for i in range(1, m + 1):
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
    result = row[0]
    return -result if m == 1 else result


class TestBernoulli:
    def test_base_cases(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert all(bernoulli(m) == 0 for m in range(3, 81, 2))

    def test_against_akiyama_tanigawa(self):
        for m in range(41):
            assert bernoulli(m) == akiyama_tanigawa(m), f"m={m}"

    def test_defining_recurrence(self):
        # sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1 (holds with B_1 = -1/2)
        for m in range(1, 41):
            total = sum(binomial(m + 1, j) * bernoulli(j) for j in range(m + 1))
            assert total == 0, f"m={m}"

    def test_sign_pattern(self):
        for m in range(2, 41, 2):
            assert bernoulli(m) * (-1) ** (m // 2 + 1) > 0

    def test_large_index_extends_cache(self):
        assert bernoulli(60).denominator == 56786730


class TestBinomial:
    def test_values(self):
        assert binomial(3, 0) == 1
        assert binomial(3, 1) == 3
        assert binomial(9, 4) == 126

    def test_outside_range_is_zero(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0

    def test_pascal_triangle(self):
        for n in range(1, 20):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestHalfGamma:
    def test_values(self):
        assert half_gamma(2) == 1
        assert half_gamma(4) == 1
        assert half_gamma(10) == 24

    def test_odd_rejected(self):
        with pytest.raises(ValueError, match="odd dimensions"):
            half_gamma(5)


class TestCheckDimension:
    def test_even_dimensions_up_to_cap_accepted(self):
        for n in (2, 4, 44, MAX_DIMENSION):
            assert check_dimension(n) == n

    @pytest.mark.parametrize("n", [3, -3, MAX_DIMENSION + 1])
    def test_odd_rejected(self, n):
        with pytest.raises(ValueError, match="^odd dimensions out of scope$"):
            check_dimension(n)

    @pytest.mark.parametrize("n", [0, -2, 4.0, "4", True])
    def test_small_and_non_int_rejected(self, n):
        with pytest.raises(ValueError) as err:
            check_dimension(n)
        assert str(err.value) == (
            f"dimension must be an even integer from 2 to MAX_DIMENSION={MAX_DIMENSION}"
        )

    def test_cap_rejected(self):
        with pytest.raises(ValueError, match=f"n=202 exceeds the limit MAX_DIMENSION={MAX_DIMENSION}"):
            check_dimension(MAX_DIMENSION + 2)

    def test_cap_rejected_for_an_int_with_no_str(self):
        # formatting n raised Python's "Exceeds the limit (4300 digits)" text
        with pytest.raises(ValueError) as err:
            check_dimension(10**5000)
        assert str(err.value) == f"dimension exceeds the limit MAX_DIMENSION={MAX_DIMENSION}"


class TestPiValue:
    def test_zero_normalizes_exponent(self):
        assert PiValue(Fraction(0), 3) == PiValue(Fraction(0), 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PiValue(Fraction(1), -1)

    def test_addition_same_exponent(self):
        a = PiValue(Fraction(1, 3), 2)
        b = PiValue(Fraction(1, 6), 2)
        assert a + b == PiValue(Fraction(1, 2), 2)

    def test_addition_mismatch_is_error(self):
        with pytest.raises(PiPowerMismatchError):
            PiValue(Fraction(1), 1) + PiValue(Fraction(1), 2)

    def test_scaling(self):
        v = PiValue(Fraction(-67, 160), 2)
        assert v * 2 == PiValue(Fraction(-67, 80), 2)
        assert v * Fraction(1, 67) == PiValue(Fraction(-1, 160), 2)
        assert -v == PiValue(Fraction(67, 160), 2)

    def test_exact_str(self):
        assert PiValue(Fraction(-67, 160), 2).exact_str() == "-67/160 * pi^-2"
        assert PiValue(Fraction(5), 0).exact_str() == "5"
        assert PiValue(Fraction(-3), 1).exact_str() == "-3 * pi^-1"

    def test_parse_round_trip_examples(self):
        for text in ("-67/160 * pi^-2", "29/240 * pi^-2", "5", "-1/12 * pi^-1"):
            assert PiValue.parse(text).exact_str() == text

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            PiValue.parse("1/0 * pi^-1")

    def test_parse_rejects_positive_power(self):
        with pytest.raises(ValueError):
            PiValue.parse("1/2 * pi^2")

    def test_render_float_table_entry(self):
        # n=2 anomaly cell; fixes both the 6-digit convention and rounding
        assert PiValue(Fraction(-1, 12), 1).render_float(6) == "-0.0265258"

    def test_int_coefficient_becomes_a_fraction(self):
        v = PiValue(1, 2)
        assert type(v.coefficient) is Fraction
        assert v == PiValue(Fraction(1), 2)

    def test_adding_zero_returns_the_other_value(self):
        x = PiValue(Fraction(1, 3), 2)
        assert x + PiValue(Fraction(0)) is x
        assert PiValue(Fraction(0)) + x is x

    def test_subtraction(self):
        x, y = PiValue(Fraction(1, 3), 2), PiValue(Fraction(1, 6), 2)
        assert x - y == PiValue(Fraction(1, 6), 2)

    def test_arithmetic_with_other_types_is_a_type_error(self):
        x = PiValue(Fraction(1, 3), 2)
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError):
            x * 0.5

    def test_str_is_exact_str(self):
        assert str(PiValue(Fraction(-67, 160), 2)) == "-67/160 * pi^-2"

    def test_float_conversion(self):
        import math

        v = PiValue(Fraction(29, 240), 2)
        assert abs(float(v) - 29 / 240 / math.pi**2) < 1e-15

    @given(
        st.fractions(max_denominator=10**6),
        st.integers(min_value=0, max_value=12),
    )
    def test_parse_inverts_exact_str(self, coeff, expo):
        v = PiValue(coeff, expo)
        assert PiValue.parse(v.exact_str()) == v

    @given(
        st.fractions(max_denominator=1000),
        st.fractions(max_denominator=1000),
        st.fractions(max_denominator=1000),
        st.integers(min_value=0, max_value=6),
    )
    def test_addition_associative_commutative(self, a, b, c, expo):
        x, y, z = (PiValue(q, expo) for q in (a, b, c))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x


class TestPiPowerMemo:
    def test_every_power_of_a_sweep_is_held(self):
        # each exponent of a 2 <= n <= MAX_DIMENSION sweep, rendered as a
        # float and at 40 digits: the powers are pi_fixed(w) ** e and fit
        # the memo, so a second pass computes none
        exact._pi_power.cache_clear()
        values = [PiValue(Fraction(-3, 7), e) for e in range(1, MAX_DIMENSION // 2 + 1)]
        first = [(float(v), v.render_float(40)) for v in values]
        info = exact._pi_power.cache_info()
        assert info.misses == info.currsize == len(values) * 2 <= info.maxsize
        assert [(float(v), v.render_float(40)) for v in values] == first
        assert exact._pi_power.cache_info().misses == info.misses
        for (w, e) in [(184, 1), (199, 100)]:
            assert exact._pi_power(w, e) == exact._pi_fixed(w) ** e
