"""Exact conformal anomaly of co-exact p-form fields on H^n quotients.

The anomaly is the s = 0 value of the co-exact zeta function divided by
the volume factor, zeta(0) = anomaly * Vol * R^n * chi(1); only the
identity sector contributes (the hyperbolic sector vanishes linearly in
s, which the numeric suite checks).  The result is always a rational
multiple of pi^(-n/2):

    <T> = 1/((4 pi)^(n/2) Gamma(n/2) R^n) * sum_{j=0}^{p} (contribution of
          the j-shifted sector pair),

with the sum over j from memoised prefix sums (one moment per sector) and
the prefactor multiplied into their unreduced integers: one Fraction per
value, at every shift.  All of it is exact arithmetic on exact and
plancherel alone; floats appear only in rendering.

The spectral shift alpha is a policy choice: p + rho0^2 for the p-form
tables, 1/4 for the conformally coupled scalar, rho0^2 + m^2 R^2 for a
minimally coupled massive scalar.  Policies are explicit and never
defaulted across use cases.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    MAX_DIMENSION,
    PiValue,
    Rational,
    bernoulli,
    check_dimension,
)
from .plancherel import integer_coefficients, miatello_coefficients

__all__ = [
    "AnomalySpec",
    "alpha_default",
    "alpha_conformal_scalar",
    "alpha_massive_scalar",
    "conformal_anomaly",
    "conformal_scalar_anomaly",
    "generate_table",
    "TableCell",
    "TABLE1_DIMS",
    "TABLE2_DIMS",
    "MAX_DIMENSION",
    "zeta_identity_zero_total",
    "zeta_moment_sum",
]

TABLE1_DIMS = tuple(range(2, 15, 2))
TABLE2_DIMS = tuple(range(2, 11, 2))
_TABLE2_MAX_FORM = 4


def alpha_default(n: int, p: int) -> Fraction:
    """Spectral shift of the co-exact p-form sector: p + ((n-1)/2)^2."""
    check_dimension(n)
    return Fraction(4 * p + (n - 1) ** 2, 4)


def alpha_conformal_scalar(n: int) -> Fraction:
    """Shift for the conformally coupled scalar: rho0^2 + xi_n * R_scal.

    xi_n = (n-2)/(4(n-1)) and the scalar curvature at unit radius is
    -n(n-1); the combination collapses to 1/4 in every even dimension.
    The value is computed from the formula and checked against 1/4 rather
    than hard-coded, so a regression in either ingredient is caught here.
    """
    check_dimension(n)
    rho0_sq = Fraction(n - 1, 2) ** 2
    coupling = Fraction(n - 2, 4 * (n - 1))
    scalar_curvature = Fraction(-n * (n - 1))
    alpha = rho0_sq + coupling * scalar_curvature
    if alpha != Fraction(1, 4):
        raise AssertionError(f"conformal shift simplification failed: {alpha}")
    return alpha


def alpha_massive_scalar(n: int, mass_sq_R_sq: Rational) -> Fraction:
    """Shift for a minimally coupled massive scalar: rho0^2 + m^2 R^2."""
    check_dimension(n)
    mass_sq_R_sq = Fraction(mass_sq_R_sq)
    if mass_sq_R_sq < 0:
        raise ValueError("mass_sq_R_sq must be nonnegative")
    return Fraction(n - 1, 2) ** 2 + mass_sq_R_sq


# Must cover ell = 0..k-1 at exact.MAX_DIMENSION (checked in the tests).
@functools.lru_cache(maxsize=128)
def _bern_weight(ell: int) -> Fraction:
    return (1 - Fraction(1, 2 ** (2 * ell + 1))) * bernoulli(2 * (ell + 1))


def _check_form(n: int, p: int) -> int:
    # k = n/2, once n is a checked dimension and p a co-exact form order
    k = check_dimension(n) // 2
    if not 0 <= p <= k - 1:
        raise ValueError(
            f"form order must satisfy 0 <= p <= n/2 - 1 "
            f"(middle degree excluded); got p={p}, n={n}"
        )
    return k


# One entry per k to the cap, shared by the k sectors of a row: the weights of
# _moment_parts over lcm_l((l+1) bd_l) and over lcm(1..k)
@functools.lru_cache(maxsize=MAX_DIMENSION // 2)
def _row_weights(k: int) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
    berns = [_bern_weight(ell) for ell in range(k)]
    bern_den = math.lcm(*(b.denominator * (ell + 1) for ell, b in enumerate(berns)))
    pow_den = math.lcm(*range(1, k + 1))
    bern_w = tuple(b.numerator * (bern_den // (b.denominator * (ell + 1)))
                   for ell, b in enumerate(berns))
    return bern_w, bern_den, tuple(pow_den // (ell + 1) for ell in range(k)), pow_den


def _moment_parts(k: int, q: int, x: int, d: int) -> tuple[int, int]:
    """zeta_moment_sum at beta = x/d in lowest terms, as an unreduced
    (numerator, denominator).

    Each part is one integer dot product over one common denominator:
    with a_{2l} = c_l / 4^(k-1) (integer_coefficients, no Fraction per
    coefficient), the Bernoulli part sits over lcm_l((l+1) bd_l) and the
    power part over lcm(1..k) d^k, its powers grown by Horner's rule.  The
    denominator depends on k and d only, so moments of one k whose shifts
    share d add as integers; _prefix_sums memoises them per sector.
    """
    bern_w, bern_den, pow_w, pow_den = _row_weights(k)
    # (-1)^(l+1) c_l, the coefficient over the expansion's 4^(k-1)
    coeffs = [c if ell % 2 else -c for ell, c in enumerate(integer_coefficients(k, q))]
    bern_num = sum(c * w for c, w in zip(coeffs, bern_w))
    # sum over l of c_l lcm/(l+1) x^(l+1) d^(k-1-l), by Horner's rule in x
    pow_num, d_pow = 0, 1
    for c, w in zip(reversed(coeffs), reversed(pow_w)):
        pow_num = pow_num * x + c * w * d_pow
        d_pow *= d
    pow_den *= d_pow
    return bern_num * pow_den + pow_num * x * bern_den, bern_den * pow_den * 4 ** (k - 1)


def zeta_identity_zero_total(n: int, p: int, alpha: Rational) -> Fraction:
    """Sum over j = 0..p of the identity-sector zeta(0) contributions.

    With c = alpha - p, term j is sector q = p - j at shift c + q, and its
    side bracket is sector q - 1 at that sector's own shift.  So with M(q)
    the memoised moment and M(-1) = 0 the sum is A_p + B_p/(n-p), where
    A_p = C(n-1, p) M(p) - A_(p-1) and B_p = p C(n-1, p) M(p-1) - B_(p-1)
    run over integer numerators (docs/numerics.md).
    """
    _check_form(n, p)
    return Fraction(*_identity_zero_parts(n, p, Fraction(alpha)))


def _identity_zero_parts(n: int, p: int, alpha: Fraction) -> tuple[int, int]:
    # zeta_identity_zero_total as an unreduced (numerator, denominator)
    d = alpha.denominator
    a, b, _, den = _prefix_sums(n // 2, p, alpha.numerator - p * d, d)  # at c = alpha - p
    return a * (n - p) + b, den * (n - p)


@functools.lru_cache(maxsize=(MAX_DIMENSION // 2) * (MAX_DIMENSION // 2 + 1) // 2)
def _prefix_sums(k: int, q: int, x: int, d: int) -> tuple[int, int, int, int]:
    # (A_q, B_q, M(q), its denominator) at c = x/d from sector q - 1's: one
    # entry per sector (k, q) to the cap, so a sweep evicts none, in any row order
    a, b, side = _prefix_sums(k, q - 1, x, d)[:3] if q else (0, 0, 0)
    chi = math.comb(2 * k - 1, q)
    main, den = _moment_parts(k, q, x + q * d, d)
    return chi * main - a, q * chi * side - b, main, den


def zeta_moment_sum(k: int, q: int, beta: Rational) -> Fraction:
    """Exact s=0 value of the continued sector moment functional.

    sum over l of a_{2l}^{(q)} (-1)^(l+1)/(l+1) [(1-2^(-2l-1)) B_{2(l+1)} + beta^(l+1)],
    the analytic continuation to s = 0 of
    2 integral_0^inf r P_q(r^2) tanh(pi r) (r^2 + beta)^(-s) dr.
    It is the single building block every identity-sector term reduces to.
    """
    beta = Fraction(beta)
    return Fraction(*_moment_parts(k, q, beta.numerator, beta.denominator))


@dataclass(frozen=True)
class AnomalySpec:
    """Input to the anomaly formula.

    ``radius_power_scale`` is the exact value of R^n (storing the power
    keeps irrational radii expressible while the arithmetic stays
    rational).  ``alpha`` must be chosen explicitly via one of the
    policy helpers or supplied directly.
    """

    dimension: int
    form_order: int
    alpha: Fraction
    radius_power_scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        _check_form(self.dimension, self.form_order)
        for name in ("alpha", "radius_power_scale"):
            if not isinstance(value := getattr(self, name), Fraction):
                object.__setattr__(self, name, Fraction(value))
        if self.radius_power_scale <= 0:
            raise ValueError("radius power scale must be positive")


def conformal_anomaly(spec: AnomalySpec) -> PiValue:
    """Exact anomaly for the given spec; pi exponent is always n/2.

    zeta_identity_zero_total's integers times 1/(4^k (k-1)! R^n), reduced
    once as one Fraction, for every alpha.
    """
    n, k, scale = spec.dimension, spec.dimension // 2, spec.radius_power_scale
    num, den = _identity_zero_parts(n, spec.form_order, spec.alpha)
    den *= 4**k * math.factorial(k - 1) * scale.numerator
    return PiValue(Fraction(num * scale.denominator, den), k)


def conformal_scalar_anomaly(n: int) -> PiValue:
    """Anomaly of the conformally invariant scalar field in dimension n.

    Independent closed form: the shift 1/4 turns the power bracket into
    2^(-2l-2), giving

        1/((4 pi)^(n/2) Gamma(n/2)) * sum_l (-1)^(l+1)/(l+1) a_{2l}
            [2^(-2l-2) + (1 - 2^(-2l-1)) B_{2(l+1)}]

    with a_{2l} the 0-form coefficients.  Each term is one integer pair,
    (-1)^(l+1) a_l [bd + 2 (2^(2l+1) - 1) bn] over (l+1) 2^(2l+2) bd with
    B_{2(l+1)} = bn/bd, and the terms add over the lcm of their denominators,
    reduced once with the prefactor.  Deliberately not implemented by
    calling conformal_anomaly, so the equality of the two routes is a real
    regression check (see the specialization test).
    """
    check_dimension(n)
    k = n // 2
    terms = []
    for ell, a in enumerate(miatello_coefficients(k, 0)):
        b = bernoulli(2 * (ell + 1))
        num = a.numerator * (b.denominator + 2 * (2 ** (2 * ell + 1) - 1) * b.numerator)
        terms.append((-num if ell % 2 == 0 else num,
                      (ell + 1) * a.denominator * 2 ** (2 * ell + 2) * b.denominator))
    den = math.lcm(*(d for _, d in terms))
    total = sum(num * (den // d) for num, d in terms)
    # 1 / ((4 pi)^(n/2) Gamma(n/2)), with the pi part carried separately
    return PiValue(Fraction(total, den * 4**k * math.factorial(k - 1)), k)


@dataclass(frozen=True)
class TableCell:
    """One table slot: a populated result or an explicit exclusion marker."""

    dimension: int
    form_order: int
    result: PiValue | None

    @property
    def excluded(self) -> bool:
        return self.result is None


def _pform_cell(n: int, p: int) -> TableCell:
    if 0 <= p <= n // 2 - 1:
        spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
        return TableCell(n, p, conformal_anomaly(spec))
    return TableCell(n, p, None)


def generate_table(
    kind: str,
    dims: list | None = None,
    forms: list | None = None,
) -> list[TableCell]:
    """Grid of anomaly values in row-major (dimension, form) order.

    kind 'table1': the conformal scalar, one cell per dimension n = 2..14.
    kind 'table2': dims 2..10 and forms 0..4, the triangular shape of the
    p-form table (15 populated cells, the rest explicit exclusion markers).
    kind 'custom': p-form cells over dims (at least one) and forms, both
    required.  The fixed kinds take neither: a ValueError names the first
    of dims and forms given.
    """
    if kind in ("table1", "table2"):
        for name, grid in (("dims", dims), ("forms", forms)):
            if grid is not None:
                raise ValueError(f"{name} applies only to custom tables, not {kind!r}")
        if kind == "table1":
            return [TableCell(n, 0, conformal_scalar_anomaly(n)) for n in TABLE1_DIMS]
        dims, forms = TABLE2_DIMS, range(_TABLE2_MAX_FORM + 1)
    elif kind != "custom":
        raise ValueError(f"unknown table kind {kind!r}")
    elif not dims:
        raise ValueError("dims must list at least one dimension for custom tables")
    elif forms is None:
        raise ValueError("forms are required for custom tables")
    # every dimension is checked before any cell is computed, so an
    # out-of-range one fails at once rather than after the cells before it
    dims = [check_dimension(int(d)) for d in dims]
    forms = [int(p) for p in forms]
    return [_pform_cell(n, p) for n in dims for p in forms]
