"""``PiValue.render_float`` and ``float()`` against mpmath.

Both are integer arithmetic.  ``render_float(d)`` must give the bytes of
``mpmath.nstr`` on the value taken at max(d + 15, 50) digits, and
``float()`` the float of the value at 50 digits, with the value computed
in mpmath as ``mpf(numerator) / denominator``, then ``/ pi**e``.
Drawn here: rationals of up to 60 digits, pi exponents 0..100 and digits
1..50 (the HYPERZETA_PRECISION range), and by hand the cases where the
rules bite: ties that are not binary fractions, carries into a new
leading digit, the fixed/exponent switch, and coefficients past Python's
4300-digit str() limit.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hyperzeta import exact
from hyperzeta.exact import PiValue


def mpmath_value(value: PiValue, dps: int = 50):
    with mpmath.workdps(max(dps, 50)):
        val = mpmath.mpf(value.coefficient.numerator) / value.coefficient.denominator
        if value.pi_exponent:
            val /= mpmath.pi ** value.pi_exponent
        return +val


def mpmath_render(value: PiValue, digits: int) -> str:
    dps = max(digits + 15, 50)
    with mpmath.workdps(dps):
        return mpmath.nstr(mpmath_value(value, dps), digits)


def assert_like_mpmath(value: PiValue, digits: int) -> None:
    assert value.render_float(digits) == mpmath_render(value, digits)
    assert float(value) == float(mpmath_value(value))


BIG = 10**60


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(min_value=-BIG, max_value=BIG),
    st.integers(min_value=1, max_value=BIG),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=50),
)
def test_random_values_render_as_mpmath(num, den, exponent, digits):
    assert_like_mpmath(PiValue(Fraction(num, den), exponent), digits)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=10**20),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=22),
)
def test_decimal_ties_render_as_mpmath(lead, scale, digits):
    # a decimal that ends in 5 right after the rounding digit, if digits fits
    value = Fraction(10 * lead + 5) * Fraction(10) ** scale
    for sign in (1, -1):
        assert_like_mpmath(PiValue(sign * value, 0), digits)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=2**16),
    st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=20).map(lambda j: 2**j),
    ),
    st.integers(min_value=1, max_value=12),
)
def test_binary_rounding_as_mpmath(p, q, bits):
    # few bits and power-of-two denominators, so that ties are common:
    # they go to the even neighbour
    m, shift = exact._round_to_bits(p, q, bits)
    _, man, exp, _ = mpmath.libmp.from_rational(p, q, bits, mpmath.libmp.round_nearest)
    assert Fraction(m) * Fraction(2) ** shift == Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("coefficient,digits,text", [
    # ties that are not binary fractions: the binary value is truncated
    # below the tie before its digits are rounded
    (Fraction(1, 80), 2, "0.012"),
    (Fraction(3, 80), 2, "0.037"),
    (Fraction(7, 80), 2, "0.087"),
    (Fraction(-7, 80), 2, "-0.087"),
    # a binary fraction is its own tie, and rounds up
    (Fraction(1, 8), 2, "0.13"),
    (Fraction(5, 2), 1, "3.0"),
    # carries into a new leading digit
    (Fraction(99999996, 10**7), 7, "10.0"),
    (Fraction(999999, 10**6), 3, "1.0"),
    (Fraction(-99996, 10**8), 3, "-0.001"),
    (Fraction(-9995, 10**7), 3, "-0.000999"),
    (Fraction(999999), 3, "1.0e+6"),
    # each side of the fixed/exponent switch: fixed while the leading
    # digit's exponent is above min(-(digits // 3), -5) and below digits
    (Fraction(123456), 6, "123456.0"),
    (Fraction(1234567), 6, "1.23457e+6"),
    (Fraction(1, 10**5), 6, "1.0e-5"),
    (Fraction(12, 10**5), 6, "0.00012"),
    (Fraction(12, 10**6), 18, "0.000012"),
    (Fraction(12, 10**7), 18, "1.2e-6"),
    (Fraction(0), 6, "0.0"),
])
def test_rational_cases(coefficient, digits, text):
    value = PiValue(coefficient, 0)
    assert value.render_float(digits) == text
    assert_like_mpmath(value, digits)


@pytest.mark.parametrize("exponent", [1, 5, 100])
@pytest.mark.parametrize("digits", [1, 6, 50])
def test_pi_powers_around_one(exponent, digits):
    # pi^e itself and its neighbours, whose digits start with a run of 9s
    # or 0s once scaled to 1
    for numerator in (1, 10**digits - 1, 10**digits + 1):
        for scale in (1, 10**digits):
            with mpmath.workdps(80):
                pi_e = int(mpmath.nint(mpmath.mpf(10) ** 70 * mpmath.pi**exponent))
            coefficient = Fraction(pi_e, 10**70) * numerator / scale
            assert_like_mpmath(PiValue(coefficient, exponent), digits)


@pytest.mark.parametrize("exponent", [0, 1, 7])
@pytest.mark.parametrize("size", [4400, 9000])
def test_coefficient_past_the_str_digit_limit(exponent, size):
    # no int past 4300 digits is ever converted with str(); mpmath itself
    # divides such a value by a power of ten before taking its digits
    big = 7 ** round(size / 0.845)
    assert big.bit_length() > 4300 * 3.33
    for coefficient in (Fraction(big, 3), Fraction(-3, big), Fraction(big, big // 999 + 1)):
        for digits in (1, 6, 30):
            assert_like_mpmath(PiValue(coefficient, exponent), digits)


@pytest.mark.parametrize("exponent", [0, 2])
def test_digits_past_the_str_digit_limit(exponent):
    # the digit string itself is longer than str() converts
    value = PiValue(Fraction(-1, 3), exponent)
    assert value.render_float(4400) == mpmath_render(value, 4400)


def test_float_out_of_range_is_inf_or_zero():
    assert float(PiValue(Fraction(10**400), 1)) == float("inf")
    assert float(PiValue(Fraction(-(10**400)), 0)) == float("-inf")
    assert float(PiValue(Fraction(1, 10**400), 3)) == 0.0
    assert float(PiValue(Fraction(0), 0)) == 0.0
