"""Exact conformal anomaly of co-exact p-form fields on H^n quotients.

The anomaly is the s = 0 value of the co-exact zeta function divided by
the volume factor; only the identity sector contributes (the hyperbolic
sector vanishes linearly in s, which the numeric suite checks).  The
result is always a rational multiple of pi^(-n/2):

    <T> = 1/((4 pi)^(n/2) Gamma(n/2) R^n) * sum_{j=0}^{p} (contribution of
          the j-shifted sector pair),

with the sum over j supplied exactly by zeta_identity_zero_total below, one
memoised moment per sector and a prefix sum over j, at every shift.  All
of it is exact arithmetic on exact and plancherel alone; floats appear
only in rendering.

The spectral shift alpha is a policy choice: p + rho0^2 for the p-form
tables, 1/4 for the conformally coupled scalar, rho0^2 + m^2 R^2 for a
minimally coupled massive scalar.  Policies are explicit and never
defaulted across use cases.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .exact import (
    MAX_DIMENSION,
    PiValue,
    Rational,
    bernoulli,
    check_dimension,
    half_gamma,
)
from .plancherel import integer_coefficients, miatello_coefficients

__all__ = [
    "AnomalySpec",
    "AnomalyResult",
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
    "zeta_identity_terms",
    "zeta_identity_at_zero",
    "zeta_identity_zero_total",
    "zeta_moment_sum",
    "zeta_moment_parts",
]

TABLE1_DIMS = tuple(range(2, 15, 2))
TABLE2_DIMS = tuple(range(2, 11, 2))
_TABLE2_MAX_FORM = 4


def alpha_default(n: int, p: int) -> Fraction:
    """Spectral shift of the co-exact p-form sector: p + ((n-1)/2)^2."""
    check_dimension(n)
    return p + Fraction(n - 1, 2) ** 2


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
        raise ValueError("mass squared must be nonnegative")
    return Fraction(n - 1, 2) ** 2 + mass_sq_R_sq


# Must cover ell = 0..k-1 at exact.MAX_DIMENSION (checked in the tests).
@functools.lru_cache(maxsize=128)
def _bern_weight(ell: int) -> Fraction:
    return (1 - Fraction(1, 2 ** (2 * ell + 1))) * bernoulli(2 * (ell + 1))


def _check_form(n: int, p: int) -> int:
    # k = n/2, once n is a checked dimension and p a co-exact form order
    k = check_dimension(n) // 2
    if not 0 <= p <= k - 1:
        raise ValueError(f"form order p={p} outside 0..{k - 1}")
    return k


def zeta_identity_terms(n: int, p: int, j: int, alpha: Rational) -> tuple[Fraction, ...]:
    """Per-l exact terms of the j-th identity-sector contribution to zeta(0).

    Term l carries the (-1)^j sign, the binomial factor C(n-1, p-j), the
    weight (-1)^(l+1)/(l+1), and the two-sector bracket: the (p-j)-sector
    coefficients at shift alpha-j plus (p-j)/(n-p) times the (p-j-1)-sector
    coefficients at shift alpha-j-1.  The j = p term has sector 0 alone:
    the formula's (-1)-sector is zero, and so is its side weight.

    Each term is one integer numerator over one integer denominator,
    reduced once: every bracket sits over 4^(k-1)(n-p), and the powers
    (alpha-j)^(l+1) and (alpha-j-1)^(l+1) are kept over the common
    denominator of alpha and grown by one factor per l.
    """
    k = _check_form(n, p)
    if not 0 <= j <= p:
        raise ValueError(f"shift index j={j} outside 0..{p}")
    alpha = Fraction(alpha)
    d = alpha.denominator
    x_main = alpha.numerator - j * d  # alpha - j = x_main / d
    x_side = x_main - d  # alpha - j - 1 = x_side / d
    c_main = integer_coefficients(k, p - j)
    c_side = integer_coefficients(k, p - j - 1) if j < p else (0,) * k
    signed_chi = (-1) ** j * math.comb(n - 1, p - j)
    den = 4 ** (k - 1) * (n - p)
    pow_d = pow_main = pow_side = 1
    terms = []
    for ell in range(k):
        pow_d *= d
        pow_main *= x_main
        pow_side *= x_side
        bern = _bern_weight(ell)
        bn, bd = bern.numerator, bern.denominator
        # bern + (alpha - j)^(l+1) = (bn d^(l+1) + bd x^(l+1)) / (bd d^(l+1))
        num = c_main[ell] * (n - p) * (bn * pow_d + bd * pow_main)
        num += (p - j) * c_side[ell] * (bn * pow_d + bd * pow_side)
        num *= signed_chi if ell % 2 else -signed_chi
        terms.append(Fraction(num, den * bd * pow_d * (ell + 1)))
    return tuple(terms)


def zeta_identity_at_zero(n: int, p: int, j: int, alpha: Rational) -> Fraction:
    """Exact j-th identity-sector contribution to zeta(0); see zeta_identity_terms."""
    return sum(zeta_identity_terms(n, p, j, alpha), Fraction(0))


# One entry for every sector (k, q) to the cap, so a sweep at one shift offset
# evicts nothing whatever its row order (about 2.4 MB at the default shift).
# The shift is two integers: a Fraction key, hashed in Python, is 3x slower.
@functools.lru_cache(maxsize=(MAX_DIMENSION // 2) * (MAX_DIMENSION // 2 + 1) // 2)
def _moment_parts(k: int, q: int, x: int, d: int) -> tuple[int, int]:
    # zeta_moment_parts at beta = x/d in lowest terms; see its docstring
    coeffs = integer_coefficients(k, q)
    berns = [_bern_weight(ell) for ell in range(k)]
    bern_den = math.lcm(*(b.denominator * (ell + 1) for ell, b in enumerate(berns)))
    pow_den = math.lcm(*range(1, k + 1))
    bern_num = pow_num = 0
    pow_x = 1
    for ell, (c, b) in enumerate(zip(coeffs, berns)):
        # (-1)^(l+1) c_l, the coefficient over the expansion's 4^(k-1)
        c = c if ell % 2 else -c
        bern_num += c * b.numerator * (bern_den // (b.denominator * (ell + 1)))
        pow_x *= x
        # sum over l of c_l lcm/(l+1) x^(l+1) d^(k-1-l)
        pow_num = pow_num * d + c * (pow_den // (ell + 1)) * pow_x
    pow_den *= d**k
    return bern_num * pow_den + pow_num * bern_den, bern_den * pow_den * 4 ** (k - 1)


def zeta_identity_zero_total(n: int, p: int, alpha: Rational) -> Fraction:
    """Sum over j = 0..p of the identity-sector zeta(0) contributions.

    With c = alpha - p, term j is sector q = p - j at shift c + q, and its
    side bracket is sector q - 1 at that sector's own shift.  So with M(q)
    the memoised moment and M(-1) = 0 the sum is A_p + B_p/(n-p), where
    A_p = C(n-1, p) M(p) - A_(p-1) and B_p = p C(n-1, p) M(p-1) - B_(p-1)
    run over integer numerators (docs/numerics.md).  zeta_identity_terms is
    the independent per-(j, l) route to the same value.
    """
    k = _check_form(n, p)
    alpha = Fraction(alpha)
    d = alpha.denominator
    x = alpha.numerator - p * d  # c = x / d
    a = b = side = 0
    for q in range(p + 1):
        chi = math.comb(n - 1, q)
        main, den = _moment_parts(k, q, x + q * d, d)
        a = chi * main - a
        b = q * chi * side - b
        side = main
    return Fraction(a * (n - p) + b, den * (n - p))


def zeta_moment_sum(k: int, q: int, beta: Rational) -> Fraction:
    """Exact s=0 value of the continued sector moment functional.

    sum over l of a_{2l}^{(q)} (-1)^(l+1)/(l+1) [(1-2^(-2l-1)) B_{2(l+1)} + beta^(l+1)],
    the analytic continuation to s = 0 of
    2 integral_0^inf r P_q(r^2) tanh(pi r) (r^2 + beta)^(-s) dr.
    It is the single building block every zeta_identity term reduces to.
    """
    return Fraction(*zeta_moment_parts(k, q, beta))


def zeta_moment_parts(k: int, q: int, beta: Rational) -> tuple[int, int]:
    """zeta_moment_sum(k, q, beta) as an unreduced (numerator, denominator).

    Each part is one integer dot product over one common denominator:
    with a_{2l} = c_l / 4^(k-1) (integer_coefficients, no Fraction per
    coefficient) and beta = x / d, the Bernoulli part sits over
    lcm_l((l+1) bd_l) and the power part over lcm(1..k) d^k, its powers
    grown by Horner's rule.  The denominator depends on k and d only, so
    moments of one k whose shifts share d add as integers.  The pair is
    memoised on (k, q, x, d), the memo zeta_identity_zero_total reads.
    """
    beta = Fraction(beta)
    return _moment_parts(k, q, beta.numerator, beta.denominator)


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
        n = check_dimension(self.dimension)
        if not 0 <= self.form_order <= n // 2 - 1:
            raise ValueError(
                f"form order must satisfy 0 <= p <= n/2 - 1 "
                f"(middle degree excluded); got p={self.form_order}, n={n}"
            )
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        scale = Fraction(self.radius_power_scale)
        if scale <= 0:
            raise ValueError("radius power scale must be positive")
        object.__setattr__(self, "radius_power_scale", scale)


@dataclass(frozen=True)
class AnomalyResult:
    """Exact anomaly value with its per-(j, l) term breakdown.

    ``value`` is the anomaly itself; ``zeta_zero`` is the zeta value at 0
    (anomaly times volume times R^n, times the bundle multiplier).  Each
    breakdown entry is (j, l, term) with the terms summing, under the
    global prefactor, back to ``value`` exactly.  The breakdown is built
    by ``terms`` the first time it is read; the value never needs it.
    """

    value: PiValue
    zeta_zero: PiValue
    terms: Callable[[], tuple[tuple[int, int, Fraction], ...]] = field(
        repr=False, compare=False
    )

    @functools.cached_property
    def breakdown(self) -> tuple[tuple[int, int, Fraction], ...]:
        return self.terms()


def _prefactor(n: int, radius_power_scale: Fraction) -> Fraction:
    # 1 / ((4 pi)^(n/2) Gamma(n/2) R^n), with the pi part carried separately
    k = n // 2
    return Fraction(1, 4**k) / half_gamma(n) / radius_power_scale


def _pform_breakdown(n: int, p: int, alpha: Fraction) -> tuple[tuple[int, int, Fraction], ...]:
    return tuple(
        (j, ell, term)
        for j in range(p + 1)
        for ell, term in enumerate(zeta_identity_terms(n, p, j, alpha))
    )


def conformal_anomaly(
    spec: AnomalySpec,
    volume: Rational | None = None,
    chi_one: Rational = 1,
) -> AnomalyResult:
    """Exact anomaly for the given spec; pi exponent is always n/2.

    When ``volume`` is given, zeta_zero is the anomaly scaled back to the
    zeta value (times volume, R^n, and the bundle multiplier chi_one);
    otherwise unit volume is assumed.

    The value comes from zeta_identity_zero_total (one memoised moment per
    sector and a prefix sum over j) for every alpha.  The breakdown is
    built from the per-(j, l) terms, and only when it is read.
    """
    n = spec.dimension
    p = spec.form_order
    total = zeta_identity_zero_total(n, p, spec.alpha)
    terms = functools.partial(_pform_breakdown, n, p, spec.alpha)
    value = PiValue(_prefactor(n, spec.radius_power_scale) * total, n // 2)
    vol = Fraction(volume) if volume is not None else Fraction(1)
    zeta_zero = value * (vol * spec.radius_power_scale * Fraction(chi_one))
    return AnomalyResult(value=value, zeta_zero=zeta_zero, terms=terms)


def conformal_scalar_anomaly(n: int) -> AnomalyResult:
    """Anomaly of the conformally invariant scalar field in dimension n.

    Independent closed form: the shift 1/4 turns the power bracket into
    2^(-2l-2), giving

        1/((4 pi)^(n/2) Gamma(n/2)) * sum_l (-1)^(l+1)/(l+1) a_{2l}
            [2^(-2l-2) + (1 - 2^(-2l-1)) B_{2(l+1)}]

    with a_{2l} the 0-form coefficients.  Deliberately not implemented by
    calling conformal_anomaly, so the equality of the two routes is a real
    regression check (see the specialization test).
    """
    check_dimension(n)
    k = n // 2
    coeffs = miatello_coefficients(k, 0)
    breakdown = []
    for ell in range(k):
        w = Fraction((-1) ** (ell + 1), ell + 1)
        bern = (1 - Fraction(1, 2 ** (2 * ell + 1))) * bernoulli(2 * (ell + 1))
        term = w * coeffs[ell] * (Fraction(1, 2 ** (2 * ell + 2)) + bern)
        breakdown.append((0, ell, term))
    pref = _prefactor(n, Fraction(1))
    total = sum((term for _, _, term in breakdown), Fraction(0))
    value = PiValue(pref * total, k)
    return AnomalyResult(
        value=value, zeta_zero=value, terms=functools.partial(tuple, breakdown)
    )


@dataclass(frozen=True)
class TableCell:
    """One table slot: a populated result or an explicit exclusion marker."""

    dimension: int
    form_order: int
    result: AnomalyResult | None
    note: str = ""

    @property
    def excluded(self) -> bool:
        return self.result is None


def _pform_cell(n: int, p: int) -> TableCell:
    if 0 <= p <= n // 2 - 1:
        spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
        return TableCell(n, p, conformal_anomaly(spec))
    return TableCell(n, p, None, note="excluded: middle degree or out of range")


def generate_table(
    kind: str,
    dims: list | None = None,
    forms: list | None = None,
) -> list[TableCell]:
    """Grid of anomaly values in row-major (dimension, form) order.

    kind 'scalar_table': conformal scalar, one cell per dimension (default
    n = 2..14).  kind 'pform_table': default dims 2..10 and forms 0..4,
    the triangular shape of the p-form table (15 populated cells, the
    rest explicit exclusion markers).  kind 'custom': both lists required.
    """
    # every dimension is checked before any cell is computed, so an
    # out-of-range one fails at once rather than after the cells before it
    if dims:
        dims = [check_dimension(int(d)) for d in dims]
    if kind == "scalar_table":
        use_dims = dims or list(TABLE1_DIMS)
        cells = []
        for n in use_dims:
            cells.append(TableCell(n, 0, conformal_scalar_anomaly(n)))
        return cells
    if kind == "pform_table":
        use_dims = dims or list(TABLE2_DIMS)
        use_forms = [int(p) for p in forms] if forms else list(range(_TABLE2_MAX_FORM + 1))
    elif kind == "custom":
        if not dims or forms is None:
            raise ValueError("custom tables need explicit dims and forms")
        use_dims = dims
        use_forms = [int(p) for p in forms]
    else:
        raise ValueError(f"unknown table kind {kind!r}")
    return [_pform_cell(n, p) for n in use_dims for p in use_forms]
