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

    def to_mpf(self, dps: int = 50) -> mpmath.mpf:
        """Value as an mpmath float computed with at least 50 digits of pi."""
        import mpmath  # here, so a process that renders nothing never loads it

        with mpmath.workdps(max(dps, 50)):
            num = mpmath.mpf(self.coefficient.numerator)
            val = num / self.coefficient.denominator
            if self.pi_exponent:
                val /= mpmath.pi ** self.pi_exponent
            return +val

    def __float__(self) -> float:
        return float(self.to_mpf())

    def render_float(self, digits: int = 6) -> str:
        """Decimal string with `digits` significant digits, correctly rounded.

        Works at `digits` + 15 decimal places internally so the requested
        digits are exact for any value the tables produce.
        """
        if digits < 1:
            raise ValueError("digits must be positive")
        import mpmath

        with mpmath.workdps(max(digits + 15, 50)):
            val = self.to_mpf(dps=max(digits + 15, 50))
            return mpmath.nstr(val, digits)

    def __str__(self) -> str:
        return self.exact_str()
