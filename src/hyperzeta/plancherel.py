"""Plancherel density for p-form fields on real hyperbolic space H^(2k).

For even dimension n = 2k the spherical Plancherel measure attached to the
p-form principal series is

    mu_p(r) = pi / (2^(4k-4) Gamma(k)^2) * C(2k-1, p) * r * P_p(r) * tanh(pi r)

where P_p is an even polynomial of degree 2(k-1),

    P_p(r) = prod_{l=2}^{p+1} [r^2 + (k - l + 3/2)^2]
           * prod_{l=p+2}^{k}  [r^2 + (k - l + 1/2)^2],

valid for 0 <= p <= k-1 and extended to k <= p <= 2k-1 through the duality
p <-> 2k-1-p.  The expansion coefficients of P_p in powers of r^2 are the
only input the anomaly formula needs.

The roots are the half-odd numbers m/2 with m odd in 1..2k-1, except
m = 2(k-p)-1, so P_p = 4^-(k-1) * prod (4 r^2 + m^2): the product over
every odd m, expanded over integers once per k (0.5 MB for all k to the
cap), divided by the one missing factor.  ``integer_coefficients`` is the
quotient, which the exact core reads, and ``miatello_coefficients`` its
Fraction view over 4^(k-1) for the numeric routes.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

from .exact import MAX_DIMENSION, Rational, binomial, check_dimension, half_gamma

__all__ = [
    "integer_coefficients",
    "miatello_coefficients",
    "plancherel_density",
    "tanh_pi",
]


@functools.lru_cache(maxsize=MAX_DIMENSION // 2)
def _full_product(k: int) -> tuple[int, ...]:
    """F_k(x) = prod (4x + m^2), odd m in 1..2k-1: F_(k-1) times one factor."""
    ints = _full_product(k - 1) if k > 1 else (1,)
    m2 = (2 * k - 1) ** 2
    return tuple(m2 * lo + 4 * hi for lo, hi in zip(ints + (0,), (0,) + ints))


def integer_coefficients(k: int, p: int) -> tuple[int, ...]:
    """miatello_coefficients(k, p) times 4^(k-1), as integers c_0..c_(k-1).

    F_k divided by the factor P_p lacks, m = 2(k-p)-1.  Checked: each step
    leaves remainder 0; k quotients, all positive, the last 4^(k-1).  The
    form order p runs over 0..2k-1 and is folded by the duality.
    """
    check_dimension(2 * k)
    if not 0 <= p <= 2 * k - 1:
        raise ValueError(f"form order p={p} outside 0..{2 * k - 1} for n={2 * k}")
    p = min(p, 2 * k - 1 - p)
    m2, quotient, rems = (2 * (k - p) - 1) ** 2, [0], 0
    for f in reversed(_full_product(k)):  # synthetic division from the top
        q, rem = divmod(f - m2 * quotient[-1], 4)
        quotient.append(q)
        rems |= rem
    ints = tuple(quotient[-2:0:-1])  # quotient[-1] is the remainder over 4
    if rems or quotient[-1] or len(ints) != k or ints[-1] != 4 ** (k - 1) or min(ints) <= 0:
        raise RuntimeError(f"Plancherel polynomial invariant violated for k={k}, p={p}")
    return ints


def miatello_coefficients(k: int, p: int) -> tuple[Rational, ...]:
    """Coefficients a_0, a_2, ..., a_{2(k-1)} of P_p in powers of r^2.

    The Fraction view of integer_coefficients, each integer over 4^(k-1):
    monic in r^2 with strictly positive coefficients, both checked on the
    integers because downstream sign bookkeeping relies on them.  The form
    order p runs over 0..2k-1 and is folded by the duality.
    """
    ints = integer_coefficients(k, p)
    return tuple(Fraction(c, ints[-1]) for c in ints)


def tanh_pi(r: float) -> float:
    """tanh(pi*r) computed as 1 - 2/(1 + e^(2*pi*r)) for |2 pi r| >= 1.

    plancherel_snapshot.json pins these bits.  Below, where the subtraction
    cancels and loses digits like 1/(2 pi r), math.tanh is used.
    """
    x = 2.0 * math.pi * r
    if abs(x) < 1.0:
        return math.tanh(0.5 * x)
    if x >= 0.0:
        if x > 709.0:
            return 1.0
        return 1.0 - 2.0 / (1.0 + math.exp(x))
    if x < -709.0:
        return -1.0
    return -(1.0 - 2.0 / (1.0 + math.exp(-x)))


def plancherel_density(k: int, p: int, r: float) -> float:
    """Plancherel density mu_p(r) at a real spectral parameter r, 0 <= p <= 2k-1.

    The float Horner loop is used wherever the normalisation (below n = 152)
    and every partial product stay normal doubles.  Elsewhere the product is
    formed exactly and rounded once; a density outside the normal floats
    raises ValueError, and r = 0 gives 0.0.
    """
    check_dimension(2 * k)
    if not math.isfinite(r):
        raise ValueError("r must be finite")
    try:
        norm = math.pi / (2.0 ** (4 * k - 4) * float(half_gamma(2 * k)) ** 2)
    except OverflowError:
        norm = 0.0
    chi = binomial(2 * k - 1, p)  # symmetric in p <-> 2k-1-p already
    coeffs = miatello_coefficients(k, p)
    if r == 0.0:
        return 0.0
    if norm >= sys.float_info.min:
        r2 = r * r
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * r2 + float(c)
        head = norm * float(chi) * r
        body = head * acc
        value = body * tanh_pi(r)
        if all(sys.float_info.min <= abs(x) <= sys.float_info.max for x in (head, body, value)):
            return value
    return _density_rounded_once(k, r, chi, coeffs)


def _density_rounded_once(k: int, r: float, chi: Fraction, coeffs) -> float:
    # r P_p(r^2) C(2k-1, p) tanh(pi r) / (2^(4k-4) Gamma(k)^2) exactly, then
    # times pi with the binary exponent split off, so nothing overflows
    x = Fraction(r)
    x2 = x * x
    poly = Fraction(0)
    for c in reversed(coeffs):
        poly = poly * x2 + c
    exact = x * poly * chi * Fraction(tanh_pi(r)) / (2 ** (4 * k - 4) * half_gamma(2 * k) ** 2)
    e = exact.numerator.bit_length() - exact.denominator.bit_length()
    try:
        value = math.ldexp(float(exact * Fraction(2) ** -e) * math.pi, e)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= abs(value) <= sys.float_info.max:
        raise ValueError(
            f"Plancherel density at r={r!r} (n={2 * k}) is outside the float range"
        )
    return value
