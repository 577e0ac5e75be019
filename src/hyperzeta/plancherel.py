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
m = 2(k-p)-1, so P_p = 4^-(k-1) * prod (4 r^2 + m^2): the product is
expanded over integers and scaled by 4^-(k-1) once.  Expansions are
memoised per (k, folded p) in a bounded cache; EvenPolynomial and its
multiplication stay available but are not used to expand P_p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Rational, binomial, half_gamma

__all__ = [
    "EvenPolynomial",
    "plancherel_polynomial",
    "miatello_coefficients",
    "plancherel_density",
    "tanh_pi",
]


@dataclass(frozen=True)
class EvenPolynomial:
    """Polynomial in r^2 with exact coefficients.

    ``coefficients[i]`` multiplies ``r^(2i)``.  Trailing zeros are trimmed
    at construction so equality is structural; the zero polynomial is
    ``(0,)``.
    """

    coefficients: tuple[Rational, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if not coeffs:
            coeffs = (Fraction(0),)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def one(cls) -> "EvenPolynomial":
        return cls((Fraction(1),))

    @property
    def degree_in_r2(self) -> int:
        """Degree as a polynomial in r^2 (zero polynomial reports 0)."""
        return len(self.coefficients) - 1

    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    def __mul__(self, other: "EvenPolynomial") -> "EvenPolynomial":
        if not isinstance(other, EvenPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return EvenPolynomial(tuple(out))

    def eval_at_r2(self, r2):
        """Horner evaluation at a given r^2; exact for Fraction input."""
        acc = r2 * 0  # matches the numeric type of the argument
        for c in reversed(self.coefficients):
            if isinstance(r2, float):
                acc = acc * r2 + float(c)
            else:
                acc = acc * r2 + c
        return acc

    def __call__(self, r):
        return self.eval_at_r2(r * r)


def _fold_form_degree(k: int, p: int) -> int:
    """Reduce p to the range 0..k-1 using the p <-> 2k-1-p duality."""
    if k < 1:
        raise ValueError("k must be at least 1 (dimension n = 2k)")
    if not 0 <= p <= 2 * k - 1:
        raise ValueError(f"form degree p={p} outside 0..{2 * k - 1} for n={2 * k}")
    return p if p <= k - 1 else 2 * k - 1 - p


# Must hold the k sectors of one table row at anomaly.MAX_DIMENSION, so a
# row expands each sector once (checked in the tests).
@functools.lru_cache(maxsize=128)
def _expand(k: int, p: int) -> EvenPolynomial:
    # p is already folded; see the module docstring for the integer product
    ints = [1]
    for m in range(1, 2 * k, 2):
        if m == 2 * (k - p) - 1:
            continue
        m2 = m * m
        ints = [m2 * lo + 4 * hi for lo, hi in zip(ints + [0], [0] + ints)]
    scale = 4 ** (k - 1)
    poly = EvenPolynomial(tuple(Fraction(c, scale) for c in ints))
    if not poly.is_monic() or any(c <= 0 for c in poly.coefficients):
        raise RuntimeError(f"Plancherel polynomial invariant violated for k={k}, p={p}")
    if poly.degree_in_r2 != k - 1:
        raise RuntimeError(f"Plancherel polynomial degree {poly.degree_in_r2} != {k - 1}")
    return poly


def plancherel_polynomial(k: int, p: int) -> EvenPolynomial:
    """Even polynomial P_p(r) of the p-form Plancherel density on H^(2k).

    Monic in r^2 with strictly positive coefficients; both properties are
    enforced after expansion because downstream sign bookkeeping relies on
    them.  Expansions are memoised per (k, folded p).
    """
    return _expand(k, _fold_form_degree(k, p))


def miatello_coefficients(k: int, p: int) -> tuple[Rational, ...]:
    """Coefficients a_0, a_2, ..., a_{2(k-1)} of P_p in powers of r^2.

    ``p = -1`` is accepted and yields all zeros: the anomaly formula's
    inner sum touches the (p-j-1)-form coefficients and the convention
    kills those terms at j = p.
    """
    if p == -1:
        return (Fraction(0),) * k
    coeffs = plancherel_polynomial(k, p).coefficients
    assert len(coeffs) == k
    return coeffs


def tanh_pi(r: float) -> float:
    """tanh(pi*r) computed as 1 - 2/(1 + e^(2*pi*r)).

    This exact arrangement (not math.tanh) is the one the Plancherel
    quadrature kernel uses, so density and integrand agree to the bit.
    """
    x = 2.0 * math.pi * r
    if x >= 0.0:
        if x > 709.0:
            return 1.0
        return 1.0 - 2.0 / (1.0 + math.exp(x))
    if x < -709.0:
        return -1.0
    return -(1.0 - 2.0 / (1.0 + math.exp(-x)))


def plancherel_density(k: int, p: int, r: float) -> float:
    """Plancherel density mu_p(r) at a real spectral parameter r."""
    if k < 1:
        raise ValueError("k must be at least 1 (dimension n = 2k)")
    if not math.isfinite(r):
        raise ValueError("spectral parameter r must be finite")
    norm = math.pi / (2.0 ** (4 * k - 4) * float(half_gamma(2 * k)) ** 2)
    chi = float(binomial(2 * k - 1, p))  # symmetric in p <-> 2k-1-p already
    poly = plancherel_polynomial(k, p)
    return norm * chi * r * poly.eval_at_r2(r * r) * tanh_pi(r)
