"""The exact anomalies against the sphere: a reference that shares no code with the package.

The local heat coefficients of H^n and S^n are one polynomial in the
curvature, so the anomaly density on H^n is (-1)^(n/2) times the one on
S^n, where the spectrum is explicit.  The co-exact q-form spectrum of
S^(2k) is nu^2 - (rho0 - q)^2 at nu = rho0 + l, l >= 1, with degeneracy
D_q(nu) / (q! (2k-1-q)!), where D_q(nu) = 2 nu prod (nu^2 - m^2/4) over
odd m <= 2k-1 but m = 2(k-q)-1 (Ikeda & Taniguchi, Osaka J. Math. 15
(1978) 515-546).  D_q is the continuation of the H^n Plancherel density
(Camporesi & Higuchi, J. Geom. Phys. 15 (1994) 57-94), and the zeta(0) of
sum over nu = rho0 + l, l >= 0, of D_q(nu) (nu^2 - beta)^(-s) is

    S_q(beta) = sum_m e_m zeta_H(-m, rho0) + sum_(j>=1) beta^j e_(2j-1) / (2j)

with D_q = sum_m e_m nu^m and zeta_H(-m, a) = -B_(m+1)(a)/(m+1).  Then

    (-1)^k zeta_moment_sum(k, q, beta) = S_q(beta) + D_q(rho0 - q)

for q >= 1, and S_0(beta) for q = 0: D_q(rho0 - q) is the l = -q mode,
the one half-integer below rho0 where D_q does not vanish.

This module builds D_q as a product of Fraction factors, and its Bernoulli
numbers by the Akiyama-Tanigawa algorithm and its Bernoulli polynomials by
the binomial sum: nothing from ``exact`` or ``plancherel``.  It asserts
exact equality on Tables 1 and 2, on the published conformal-scalar
values written as literals, and on every sector with k <= 25.
"""

import functools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperzeta import verify
from hyperzeta.anomaly import (
    TABLE1_DIMS,
    alpha_default,
    conformal_scalar_anomaly,
    generate_table,
    zeta_moment_sum,
)

MAX_K = 25

# zeta(0) of the conformal scalar on the unit S^n, n = 2, 4, .., 10 (for
# example Cappelli & D'Appollonio, Phys. Lett. B 487 (2000) 87-95); at
# n = 2 it is chi(S^2)/6
LITERATURE = {
    2: Fraction(1, 3),
    4: Fraction(-1, 90),
    6: Fraction(1, 756),
    8: Fraction(-23, 113400),
    10: Fraction(263, 7484400),
}


@functools.lru_cache(maxsize=None)
def bernoulli_numbers(count: int) -> tuple[Fraction, ...]:
    """B_0 .. B_(count-1) by the Akiyama-Tanigawa algorithm, with B_1 = -1/2."""
    row, out = [], []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if count > 1:
        out[1] = -out[1]  # the algorithm gives B_1 = +1/2
    return tuple(out)


@functools.lru_cache(maxsize=None)
def hurwitz_at_rho0(k: int) -> tuple[Fraction, ...]:
    """zeta_H(-m, rho0) = -B_(m+1)(rho0)/(m+1), m = 0 .. 2k-1, rho0 = k - 1/2."""
    b = bernoulli_numbers(2 * k + 1)
    rho0 = Fraction(2 * k - 1, 2)
    out = []
    for m in range(2 * k):
        poly = sum(math.comb(m + 1, j) * b[j] * rho0 ** (m + 1 - j) for j in range(m + 2))
        out.append(-poly / (m + 1))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def degeneracy(k: int, q: int) -> tuple[Fraction, ...]:
    """e_0 .. e_(2k-1) of D_q(nu) = 2 nu prod (nu^2 - m^2/4), m odd <= 2k-1, m != 2(k-q)-1."""
    coeffs = [Fraction(0), Fraction(2)]
    for m in range(1, 2 * k, 2):
        if m == 2 * (k - q) - 1:
            continue
        shifted = [Fraction(0), Fraction(0), *coeffs]
        coeffs = [hi - Fraction(m * m, 4) * lo for hi, lo in zip(shifted, coeffs + [0, 0])]
    return tuple(coeffs)


def evaluate(coeffs, x: Fraction) -> Fraction:
    return sum(c * x**m for m, c in enumerate(coeffs))


def sphere_moment(k: int, q: int, beta: Fraction) -> Fraction:
    """S_q(beta) + D_q(rho0 - q), the offset taken for q >= 1 only."""
    e = degeneracy(k, q)
    total = sum(c * h for c, h in zip(e, hurwitz_at_rho0(k)))
    total += sum(beta**j * e[2 * j - 1] / (2 * j) for j in range(1, k + 1))
    if q:
        total += evaluate(e, Fraction(2 * k - 1, 2) - q)
    return total


def sphere_scalar(n: int) -> Fraction:
    """zeta(0) of the conformal scalar on the unit S^n: beta = 1/4, D_0 / (n-1)!."""
    return sphere_moment(n // 2, 0, Fraction(1, 4)) / math.factorial(n - 1)


def sphere_volume_over_pi(n: int) -> Fraction:
    """Vol(S^n) / pi^(n/2) = 2^(k+1) / (2k-1)!!, n = 2k."""
    k = n // 2
    return Fraction(2 ** (k + 1), math.prod(range(1, 2 * k, 2)))


def test_bernoulli_numbers():
    assert bernoulli_numbers(13) == (
        1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42), 0,
        Fraction(-1, 30), 0, Fraction(5, 66), 0, Fraction(-691, 2730),
    )


def test_degeneracy_is_the_factorial_count():
    # D_q(rho0 + l) / (q! (n-1-q)!) is the number of co-exact q-form modes at
    # level l >= 1: (2l+n-1) (l+n-1)! / (q! (n-1-q)! (l-1)! (l+q) (l+n-1-q)),
    # and one constant mode at l = 0 for q = 0
    for n in range(2, 15, 2):
        k, rho0 = n // 2, Fraction(n - 1, 2)
        for q in range(k):
            norm = math.factorial(q) * math.factorial(n - 1 - q)
            assert evaluate(degeneracy(k, q), rho0) / norm == (q == 0)
            for l in range(1, 8):
                want = Fraction((2 * l + n - 1) * math.factorial(l + n - 1),
                                norm * math.factorial(l - 1) * (l + q) * (l + n - 1 - q))
                assert evaluate(degeneracy(k, q), rho0 + l) / norm == want, (n, q, l)


def test_literature_values():
    for n, want in LITERATURE.items():
        assert sphere_scalar(n) == want, n
        anomaly = conformal_scalar_anomaly(n)
        assert anomaly.pi_exponent == n // 2
        assert (-1) ** (n // 2) * anomaly.coefficient * sphere_volume_over_pi(n) == want, n


def test_table1_times_the_sphere_volume():
    for n in TABLE1_DIMS:
        anomaly = conformal_scalar_anomaly(n).coefficient
        assert (-1) ** (n // 2) * anomaly * sphere_volume_over_pi(n) == sphere_scalar(n), n


def test_table2_from_sphere_moments():
    # the cell as its sector sum: sector q at shift alpha - p + q, with its
    # side bracket q - 1 at its own shift, over 4^k (k-1)!
    for cell in generate_table("table2"):
        if cell.excluded:
            continue
        n, p = cell.dimension, cell.form_order
        k, c = n // 2, alpha_default(n, p) - p
        moment = [(-1) ** k * sphere_moment(k, q, c + q) for q in range(p + 1)]
        total = sum(
            (-1) ** (p - q) * math.comb(n - 1, q)
            * (moment[q] + (Fraction(q, n - p) * moment[q - 1] if q else 0))
            for q in range(p + 1)
        )
        assert cell.result.pi_exponent == k
        assert cell.result.coefficient == total / (4**k * math.factorial(k - 1)), (n, p)


def test_every_sector_to_k_25():
    for k in range(1, MAX_K + 1):
        rho0_sq = Fraction(2 * k - 1, 2) ** 2
        for q in range(k):
            for beta in (Fraction(0), Fraction(7, 3), q + rho0_sq):
                want = (-1) ** k * zeta_moment_sum(k, q, beta)
                assert sphere_moment(k, q, beta) == want, (k, q, beta)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, k - 1),
                        st.fractions(min_value=0, max_value=50, max_denominator=1000))
))
def test_sector_identity_at_random_rational_shifts(case):
    k, q, beta = case
    assert sphere_moment(k, q, beta) == (-1) ** k * zeta_moment_sum(k, q, beta)


def test_verify_sphere_moment_matches_the_reference():
    # the package's own sphere line: its integer degeneracy and its Bernoulli
    # polynomials stepped up from exact.bernoulli
    for k in (1, 2, 5, 13, 25):
        for q in sorted({0, k // 2, k - 1}):
            for beta in (Fraction(1, 4), Fraction(7, 3)):
                assert verify._sphere_moment(k, q, beta) == sphere_moment(k, q, beta), (k, q)
