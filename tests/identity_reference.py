"""The per-(j, l) route to the identity-sector zeta(0): a test reference.

The package computes the anomaly from one memoised moment per sector and a
prefix sum over j (``anomaly.zeta_identity_zero_total``).  This module
builds the same number term by term, from the Fraction Plancherel
coefficients, so the tests can hold the package's route, and the
``breakdown_sha256`` digests of ``data/exact_snapshot.json``, against a
route that shares no arithmetic with it.
"""

import math
from fractions import Fraction

from hyperzeta.anomaly import _bern_weight
from hyperzeta.plancherel import miatello_coefficients


def reference_identity_terms(n: int, p: int, j: int, alpha: Fraction) -> tuple[Fraction, ...]:
    """Per-l exact terms of the j-th identity-sector contribution to zeta(0).

    Term l carries the (-1)^j sign, the binomial factor C(n-1, p-j), the
    weight (-1)^(l+1)/(l+1), and the two-sector bracket: the (p-j)-sector
    coefficients at shift alpha-j plus (p-j)/(n-p) times the (p-j-1)-sector
    coefficients at shift alpha-j-1.  The j = p term has sector 0 alone.
    Each Fraction coefficient is multiplied through its reduced denominator
    one by one.
    """
    k = n // 2
    alpha = Fraction(alpha)
    d = alpha.denominator
    x_main = alpha.numerator - j * d
    x_side = x_main - d
    a_main = miatello_coefficients(k, p - j)
    a_side = miatello_coefficients(k, p - j - 1) if j < p else None
    side_num, side_den = p - j, n - p
    signed_chi = (-1) ** j * math.comb(n - 1, p - j)
    pow_d = pow_main = pow_side = 1
    terms = []
    for ell in range(k):
        pow_d *= d
        pow_main *= x_main
        pow_side *= x_side
        bern = _bern_weight(ell)
        bn, bd = bern.numerator, bern.denominator
        main = a_main[ell]
        num = main.numerator * (bn * pow_d + bd * pow_main)
        den = main.denominator
        if a_side is not None:
            side = a_side[ell]
            num = num * side.denominator * side_den + (
                den * side_num * side.numerator * (bn * pow_d + bd * pow_side)
            )
            den *= side.denominator * side_den
        num *= signed_chi if ell % 2 else -signed_chi
        terms.append(Fraction(num, den * bd * pow_d * (ell + 1)))
    return tuple(terms)


def reference_breakdown(n: int, p: int, alpha: Fraction) -> tuple[tuple[int, int, Fraction], ...]:
    """Every (j, l, term) of the cell, j = 0..p and l = 0..n/2-1 in order."""
    return tuple(
        (j, ell, term)
        for j in range(p + 1)
        for ell, term in enumerate(reference_identity_terms(n, p, j, alpha))
    )
