"""The tanh-moment series against 101-, 58- and 36-digit quadrature: a test reference.

The odd moments of tanh(pi r) against e^(-t r^2) have a divergent
asymptotic series in t, summed exactly from the Bernoulli numbers to its
smallest term (``tanh_moment_series_exact``).  ``tanh_series_pairs`` sets
it against ``mpmath.quad`` at t = 1/20, 1/10 and 1/5 for ell = 0..3, and
``check_tanh_series`` grades the twelve pairs: each must lie within the
series' first omitted term, with a quadrature error estimate below
QUAD_ERROR_GATE of it.  This was ``verify``'s ``tanh-series`` line; it
runs in the test suite (``test_acceptance.py`` criterion 4,
``test_verify.py``), so the package itself needs no mpmath.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath

from hyperzeta.exact import bernoulli
from hyperzeta.verify import CheckResult


_MAX_SERIES_TERMS = 400


def _series_terms(ell: int, t: Fraction) -> Iterator[tuple[int, int]]:
    # term k = 0, 1, ... as an unreduced integer pair (numerator, denominator
    # > 0): (-1)^l (1 - 2^-e) B t^k / (k! (l+k+1)) with e = 2l+2k+1, where
    # the numerator of t^k and the denominator of t^k times k! run along
    t_num, t_den = 1, 1
    for k in itertools.count():
        two_e = 1 << (2 * ell + 2 * k + 1)
        bern = bernoulli(2 * (ell + k + 1))
        num = (two_e - 1) * bern.numerator * t_num
        yield -num if ell % 2 else num, two_e * bern.denominator * t_den * (ell + k + 1)
        t_num *= t.numerator
        t_den *= t.denominator * (k + 1)


def tanh_moment_series_exact(ell: int, t: Fraction) -> tuple[Fraction, Fraction, int]:
    """Exact-core evaluation of the odd tanh moment's asymptotic expansion.

    integral over R of r^(2l+1) e^(-t r^2) tanh(pi r) dr
        ~  l! t^(-l-1)  -  sum_k (-1)^l (1 - 2^(-2l-2k-1)) B_{2(l+k+1)} t^k / (k! (l+k+1))

    The series diverges for every t (Bernoulli numbers grow factorially),
    so it is summed to the smallest-magnitude term.  Terms alternate in
    sign, and the remainder after a truncation inside the decreasing range
    is bounded by the first omitted term.

    Returns (value, |first omitted term|, last index summed), all exact.
    The optimal-index scan is capped at 400 terms, which covers every
    t >= 0.025 (the optimal index grows like pi^2/t); beyond the cap the
    remainder bound is still valid, merely not the sharpest available.
    The terms stay unreduced integer pairs: the scan compares magnitudes
    by cross-multiplication, and the kept terms and the leading term are
    summed over one common denominator and reduced once.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")

    terms = _series_terms(ell, t)
    kept = [next(terms)]
    for num, den in itertools.islice(terms, _MAX_SERIES_TERMS + 1):
        if abs(num) * kept[-1][1] >= abs(kept[-1][0]) * den:
            break
        kept.append((num, den))
    else:  # the cap: term 401 is the bound
        num, den = kept.pop()
    common = math.lcm(*(d for _, d in kept))
    total = sum(n * (common // d) for n, d in kept)
    # l! t^(-l-1) - total / common, over the denominator t_num^(l+1) common
    lead_num, lead_den = t.denominator ** (ell + 1), t.numerator ** (ell + 1)
    value = Fraction(math.factorial(ell) * lead_num * common - total * lead_den, lead_den * common)
    return value, Fraction(abs(num), den), len(kept) - 1


# The tanh-series comparison: every t pairs with ell = 0..3.
TANH_TIMES = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))
TANH_ELLS = range(4)
# Digits carried beyond the widest value/bound ratio at one t.
TANH_GUARD_DIGITS = 15
# Largest quadrature error estimate accepted, as a fraction of the bound.
QUAD_ERROR_GATE = 1e-6


@dataclass(frozen=True)
class TanhPair:
    """One (ell, t) comparison of the tanh-moment series with quadrature.

    ``quad`` is the integral over R by ``mpmath.quad``; ``err`` is its
    distance from the truncated series, ``bound`` the series' first omitted
    term, ``quad_error`` the quadrature's own error estimate and ``dps``
    the working precision, all at that precision.
    """

    ell: int
    t: Fraction
    quad: mpmath.mpf
    err: mpmath.mpf
    bound: mpmath.mpf
    quad_error: mpmath.mpf
    dps: int


def tanh_series_pairs(t: Fraction) -> list[TanhPair]:
    """Compare the exact tanh-moment series at t with quadrature, ell = 0..3.

    The working precision is the digit count of the largest
    |series value| / bound over the four ell, plus TANH_GUARD_DIGITS, so
    the quadrature resolves every bound with digits to spare.  The four
    integrands differ only by r^(2 ell + 1), and the four quadratures visit
    the same nodes.  Each node, keyed by its ``_mpf_`` tuple, holds one
    running moment r^power e^(-t r^2) tanh(pi r) with its power: the next
    ell advances it by r^2, so the transcendentals are paid once per node.
    A moment already past the asked power starts again from r^1.
    """

    def mpf(q: Fraction) -> mpmath.mpf:
        return mpmath.mpf(q.numerator) / q.denominator

    series = [tanh_moment_series_exact(ell, t) for ell in TANH_ELLS]
    ratio = max(abs(value) / omitted for value, omitted, _ in series)
    dps = len(str(int(ratio))) + TANH_GUARD_DIGITS
    pairs = []
    with mpmath.workdps(dps):
        tm = mpf(t)
        moments = {}

        def moment(r, power):
            # r^power e^(-t r^2) tanh(pi r), from this node's running moment:
            # it is advanced by r^2, or restarted from r^1 if it is past power
            # (as a new node is)
            done, value = moments.get(r._mpf_, (power + 1, None))
            if done > power:
                done, value = 1, r * (mpmath.exp(-tm * r * r) * mpmath.tanh(mpmath.pi * r))
            if done < power:
                r2 = r * r
                while done < power:
                    done, value = done + 2, value * r2
            moments[r._mpf_] = done, value
            return value

        for ell, (value, omitted, _) in zip(TANH_ELLS, series):
            power = 2 * ell + 1
            half, half_error = mpmath.quad(
                lambda r: moment(r, power), [0, 8, mpmath.inf], error=True
            )
            quad = 2 * half
            pairs.append(TanhPair(
                ell, t, quad, abs(quad - mpf(value)), mpf(omitted), 2 * half_error, dps,
            ))
    return pairs


def check_tanh_series() -> CheckResult:
    by_time = [tanh_series_pairs(t) for t in TANH_TIMES]
    pairs = [pair for at_t in by_time for pair in at_t]
    for pair in pairs:
        label = f"ell={pair.ell} t={pair.t}"
        if pair.err > pair.bound:
            return CheckResult(
                "tanh-series", False,
                f"{label}: err {mpmath.nstr(pair.err, 3)} > bound {mpmath.nstr(pair.bound, 3)}",
            )
        if pair.quad_error > QUAD_ERROR_GATE * pair.bound:
            return CheckResult(
                "tanh-series", False,
                f"{label}: quadrature error estimate {mpmath.nstr(pair.quad_error, 3)}"
                f" > {QUAD_ERROR_GATE:g} x bound {mpmath.nstr(pair.bound, 3)}",
            )
    worst = max(float(pair.err / pair.bound) for pair in pairs)
    dps = "/".join(str(at_t[0].dps) for at_t in by_time)
    return CheckResult(
        "tanh-series", True,
        f"series within first-omitted bound, worst err/bound {worst:.2e}, dps {dps}",
    )
