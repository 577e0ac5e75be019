"""Exact rational arithmetic: Bernoulli numbers, binomials, and pi-power values.

Every quantity feeding the anomaly formula is kept exact.  The universal
scalar is :class:`fractions.Fraction` (aliased ``Rational``): arbitrary
precision, always in lowest terms, positive denominator.  Final results
are carried as :class:`PiValue`, a rational multiple of ``pi**(-m)``.
Floating point appears only when a value is rendered for display.

Bernoulli convention: ``bernoulli(1) == -1/2`` (the generating function
``x/(e^x - 1)``).  Only even indices are consumed downstream, where both
conventions agree, so the choice is cosmetic; it is fixed here so the
low-order checks are unambiguous.
"""

from __future__ import annotations

import functools
import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "PiValue",
    "PiPowerMismatchError",
    "bernoulli",
    "binomial",
    "half_gamma",
    "MAX_DIMENSION",
    "check_dimension",
]


# --- Dimensions -------------------------------------------------------------

# Largest accepted dimension.  The exact cost grows like n^4 over a table
# row; at this cap a single (n, p) = (200, 99) anomaly takes well under a
# second, and larger requests are refused instead of running for hours.
MAX_DIMENSION = 200


def check_dimension(n: int) -> int:
    """Return n if it is an even integer with 2 <= n <= MAX_DIMENSION.

    Every entry point that takes a dimension (the anomaly policies, the
    Plancherel layer, manifold data) checks it here, so one rule bounds
    all of them.
    """
    # a bool is an int to isinstance; it is not a dimension
    integer = isinstance(n, int) and not isinstance(n, bool)
    if integer and n % 2:
        raise ValueError("odd dimensions out of scope")
    if not integer or n < 2:
        raise ValueError(
            f"dimension must be an even integer from 2 to MAX_DIMENSION={MAX_DIMENSION}"
        )
    if n > MAX_DIMENSION:
        # n is named only while short: an int past Python's digit limit has no str()
        shown = f" n={n}" if n < 10**100 else ""
        raise ValueError(f"dimension{shown} exceeds the limit MAX_DIMENSION={MAX_DIMENSION}")
    return n


# --- Bernoulli numbers ------------------------------------------------------

# Tangent numbers T_1, T_2, ... (1, 2, 16, 272, ...), grown on demand.  The
# in-place integer recurrence fills row n in O(n) big-int additions, so
# extending the table to index m costs O(m^2); exact throughout, no floating
# zeta values anywhere.
_tangent_cache: list[int] = []
_bernoulli_lock = threading.Lock()


def _extend_tangent(n: int) -> None:
    # caller holds _bernoulli_lock
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    _tangent_cache[:] = t[1:]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m as an exact rational (B_1 = -1/2).

    Even indices are derived from the tangent-number recurrence
    ``B_{2n} = (-1)^(n-1) * 2n * T_n / (4^n (4^n - 1))``; odd indices
    above one are zero.  Only the tangent numbers T_n are cached, in a
    table that may be grown concurrently from multiple threads; each call
    builds and reduces a new ``Fraction`` from them.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    n = m // 2
    with _bernoulli_lock:
        if len(_tangent_cache) < n:
            # grow geometrically so repeated small extensions stay cheap;
            # 20 rows cover every even index up to 40 used by the tables
            _extend_tangent(max(n, 2 * len(_tangent_cache), 20))
        t_n = _tangent_cache[n - 1]
    sign = 1 if n % 2 == 1 else -1
    four_n = 1 << (2 * n)
    return Fraction(sign * 2 * n * t_n, four_n * (four_n - 1))


def binomial(n: int, k: int) -> Fraction:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires nonnegative n")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


def half_gamma(n: int) -> Fraction:
    """Gamma(n/2) = (n/2 - 1)! for even n >= 2.

    Odd dimensions are out of scope, so odd n is rejected rather than
    silently promoted to a half-integer gamma value.
    """
    if n % 2 != 0:
        raise ValueError("half_gamma is defined for even n only (odd dimensions out of scope)")
    if n < 2:
        raise ValueError("half_gamma requires n >= 2")
    return Fraction(math.factorial(n // 2 - 1))


# --- Pi-power values --------------------------------------------------------


class PiPowerMismatchError(ValueError):
    """Raised when adding PiValues with different pi exponents.

    Implicit float coercion would silently destroy exactness; the anomaly
    pipeline only ever adds like exponents, so a mismatch is a bug.
    """


_PI_VALUE_RE = re.compile(
    r"""^\s*([+-]?\d+)\s*(?:/\s*(\d+))?\s*(?:\*\s*pi\^(-?\d+)\s*)?$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class PiValue:
    """Exact value ``coefficient * pi**(-pi_exponent)``.

    The zero coefficient normalizes the exponent to 0 so equality is
    structural.  Addition requires equal exponents (see
    :class:`PiPowerMismatchError`); scaling by a rational is exact.
    """

    coefficient: Fraction
    pi_exponent: int = 0

    def __post_init__(self) -> None:
        coeff = self.coefficient
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
            object.__setattr__(self, "coefficient", coeff)
        if self.pi_exponent < 0:
            raise ValueError("pi_exponent must be nonnegative")
        if coeff == 0 and self.pi_exponent != 0:
            object.__setattr__(self, "pi_exponent", 0)

    def __add__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        if self.coefficient == 0:
            return other
        if other.coefficient == 0:
            return self
        if self.pi_exponent != other.pi_exponent:
            raise PiPowerMismatchError(
                f"cannot add pi^-{self.pi_exponent} and pi^-{other.pi_exponent} terms exactly"
            )
        return PiValue(self.coefficient + other.coefficient, self.pi_exponent)

    def __neg__(self) -> "PiValue":
        return PiValue(-self.coefficient, self.pi_exponent)

    def __sub__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "PiValue":
        if isinstance(scalar, (int, Fraction)):
            return PiValue(self.coefficient * scalar, self.pi_exponent)
        return NotImplemented

    __rmul__ = __mul__

    def exact_str(self) -> str:
        """Lossless ASCII rendering, e.g. ``-67/160 * pi^-2``."""
        if self.pi_exponent == 0:
            return str(self.coefficient)
        return f"{self.coefficient} * pi^-{self.pi_exponent}"

    @classmethod
    def parse(cls, text: str) -> "PiValue":
        """Inverse of :meth:`exact_str`."""
        m = _PI_VALUE_RE.match(text)
        if m is None:
            raise ValueError(f"not a PiValue string: {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        exp = -int(m.group(3)) if m.group(3) else 0
        if m.group(3) and int(m.group(3)) > 0:
            raise ValueError(f"positive pi powers are not representable: {text!r}")
        return cls(Fraction(num, den), exp)

    def _magnitude(self, bits: int) -> tuple[int, int]:
        """|value| as a fraction p/q of positive ints, at `bits` working bits.

        A rational is rounded as mpmath rounds it: the numerator to `bits`
        bits, then the quotient, each to nearest with ties to even, so the
        result is exactly mpmath's binary value.  A pi power is irrational
        and is carried to within about 2**-bits relative instead.
        """
        num, den = abs(self.coefficient.numerator), self.coefficient.denominator
        e = self.pi_exponent
        if e == 0:
            m, shift = _round_to_bits(num, 1, bits)
            m, shift = _round_to_bits(m << max(shift, 0), den << max(-shift, 0), bits)
            return (m << shift, 1) if shift >= 0 else (m, 1 << -shift)
        # pi_w^e = (pi 2^w)^e to a relative e 2^-w, so w covers e's bits too
        w = bits + e.bit_length() + 8
        return num << (w * e), den * _pi_power(w, e)

    def __float__(self) -> float:
        """The nearest float to the value at 50-digit working precision."""
        if not self.coefficient:
            return 0.0
        p, q = self._magnitude(_working_bits(50))
        # 64 bits and a sticky last bit round to 53 as the whole value would
        shift = 64 - _bit_top(p, q)
        quot, rem = _divmod_scaled(p, q, shift)
        try:
            value = math.ldexp(float(quot | (rem != 0)), -shift)
        except OverflowError:
            value = math.inf
        return value if self.coefficient > 0 else -value

    def render_float(self, digits: int = 6) -> str:
        """Decimal string with `digits` significant digits, as mpmath's nstr.

        The value is taken at `digits` + 15 (at least 50) decimal digits of
        working precision and rendered by the rules of mpmath 1.3's
        ``libmpf.to_str``: the digits are truncated, then rounded half up on
        the next digit; fixed notation when the leading digit's exponent
        lies strictly between min(-(digits // 3), -5) and `digits`,
        ``e+N``/``e-N`` otherwise; trailing zeros stripped down to ``.0``.
        Integer arithmetic throughout: only about `digits` + 6 digits are
        ever converted to a string, however long the coefficient is.
        """
        if digits < 1:
            raise ValueError("digits must be positive")
        if not self.coefficient:
            return "0.0"
        p, q = self._magnitude(_working_bits(max(digits + 15, 50)))
        head, exponent = _leading_digits(p, q, digits)
        # round half up on the next digit: trailing 9s carry, into a new
        # leading digit when all of them are 9s
        if len(head) > digits and head[digits] >= "5":
            kept = head[:digits].rstrip("9")
            if kept:
                head = kept[:-1] + str(int(kept[-1]) + 1) + "0" * (digits - len(kept))
            else:
                head, exponent = "1" + "0" * (digits - 1), exponent + 1
        else:
            head = head[:digits]
        split = 1
        if min(-(digits // 3), -5) < exponent < digits:
            if exponent < 0:
                head = "0" * -exponent + head
            else:
                split = exponent + 1
            exponent = 0
        text = (head[:split] + "." + head[split:]).rstrip("0")
        if text.endswith("."):
            text += "0"
        if exponent:
            text += f"e{exponent:+d}"
        return text if self.coefficient > 0 else "-" + text

    def __str__(self) -> str:
        return self.exact_str()


# --- Float rendering in integer arithmetic -----------------------------------

# mpmath sizes its digit strings with this float; an equal float keeps every
# int() taken of it equal too
_LOG2_10 = math.log(10, 2)


def _working_bits(dps: int) -> int:
    # the binary precision mpmath works at for dps decimal digits (dps_to_prec)
    return max(1, int(round((dps + 1) * 3.3219280948873626)))


@functools.lru_cache(maxsize=16)
def _pi_fixed(bits: int) -> int:
    """pi * 2**bits to within one unit, from Machin's pi = 16 atan(1/5) - 4 atan(1/239)."""
    # fewer than bits/3 series terms, each truncated once: the guard bits
    # hold their errors below one unit
    guard = bits.bit_length() + 8
    one = 1 << (bits + guard)

    def atan_inv(x: int) -> int:
        # atan(1/x) * one = sum (-1)^k one / ((2k + 1) x^(2k + 1))
        total = power = one // x
        x2, k, sign = x * x, 3, -1
        while power:
            power //= x2
            total += sign * (power // k)
            k, sign = k + 2, -sign
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> guard


@functools.lru_cache(maxsize=256)  # e <= MAX_DIMENSION / 2 at a float's and a rendering's bits
def _pi_power(bits: int, e: int) -> int:
    return _pi_fixed(bits) ** e


def _bit_top(p: int, q: int) -> int:
    """floor(log2(p/q)) + 1 for positive ints p and q."""
    d = p.bit_length() - q.bit_length()
    # p/q lies in (2^(d-1), 2^(d+1))
    return d + 1 if (p >> d if d >= 0 else p << -d) >= q else d


def _divmod_scaled(p: int, q: int, shift: int) -> tuple[int, int]:
    # divmod(p * 2**shift, q), shifting whichever side keeps it an integer
    return divmod(p << shift, q) if shift >= 0 else divmod(p, q << -shift)


def _round_to_bits(p: int, q: int, bits: int) -> tuple[int, int]:
    """(m, s) with m * 2**s = p/q rounded to `bits` bits, ties to even."""
    shift = bits - _bit_top(p, q)
    m, rem = _divmod_scaled(p, q, shift)
    half = rem << 1
    divisor = q << max(-shift, 0)
    if half > divisor or (half == divisor and m & 1):
        m += 1
    return m, -shift


def _at_least_power_of_ten(p: int, q: int, k: int) -> bool:
    return p >= q * 10**k if k >= 0 else p * 10**-k >= q


# str() refuses an int past Python's digit limit (4300 by default), so a
# longer digit string is converted in pieces of _PIECE_DIGITS digits
_PIECE_DIGITS = 1000
_PIECE = 10**_PIECE_DIGITS


def _decimal(n: int) -> str:
    """str(n) for an int n >= 0 of any length."""
    pieces = []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(str(low).zfill(_PIECE_DIGITS))
    pieces.append(str(n))
    return "".join(reversed(pieces))


def _leading_digits(p: int, q: int, dps: int) -> tuple[str, int]:
    """The leading digits of p/q > 0 and its decimal exponent, as mpmath's
    ``to_digits_exp(x, dps + 3)`` gives them for the binary value x = p/q.

    mpmath truncates x to a fixed point of `bitprec` significant bits, or
    to an integer from 2**bitprec on, then takes its decimal digits,
    truncated; at least dps + 1 digits come back.  Past 2**3500 either way
    mpmath first divides by a rounded power of ten, which this does not
    copy: there, as from 2**bitprec on, the digits are the exact leading
    digits of p/q, truncated, which differ from mpmath's only if the digits
    after the first dps + 1 start with a long run of zeros or nines.
    """
    top = _bit_top(p, q)
    bitprec = int((dps + 3) * _LOG2_10) + 10
    fixprec = bitprec - top
    if fixprec > 0 and abs(top) <= 3500:
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        # about dps + 6 digits, however large p and q are
        digits = _decimal(((p << fixprec) // q * 10**fixdps) >> fixprec)
        return digits, len(digits) - fixdps - 1
    # 10^exponent <= p/q < 10^(exponent + 1); the float guess is off by at most one
    exponent = math.floor((top - 1) * math.log10(2))
    while _at_least_power_of_ten(p, q, exponent + 1):
        exponent += 1
    while not _at_least_power_of_ten(p, q, exponent):
        exponent -= 1
    lead = p * 10 ** max(dps - exponent, 0) // (q * 10 ** max(exponent - dps, 0))
    return _decimal(lead), exponent
