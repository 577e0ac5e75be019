"""Heat-kernel traces and zeta-function machinery on hyperbolic quotients.

Two independent computational routes are maintained throughout and are
cross-checked in the verification suite:

  * exact: Bernoulli/tanh moment identities give closed rational values
    for the identity-sector zeta function at s = 0;
  * numeric: double-exponential quadrature of the orbital integrals, plus
    Bessel-K closed/Mellin forms for the hyperbolic sector.

Conventions.  n = 2k is the (even) dimension, rho0 = (n-1)/2, and the
spectral shift of the p-sector is alpha = p + rho0^2.  Every sector
function takes a form order p in 0..n-1 and rejects any other p before
it computes anything.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from ._kernels import fallback as quadrature
from .exact import MAX_DIMENSION, Rational, bernoulli, binomial, check_dimension
from .manifold import ManifoldData
from .plancherel import integer_coefficients, miatello_coefficients

__all__ = [
    "QuadratureError",
    "EmptySpectrumWarning",
    "HeatTraceBreakdown",
    "TanhMomentResult",
    "identity_heat_term",
    "tanh_moment_series",
    "tanh_moment_series_exact",
    "hyperbolic_heat_term",
    "hyperbolic_tail_bound",
    "coexact_trace",
    "mellin_hyperbolic",
    "mellin_hyperbolic_quadrature",
    "bessel_k",
    "MAX_BESSEL_ORDER",
    "zeta_identity_at_zero",
    "zeta_identity_terms",
    "zeta_identity_zero_total",
    "zeta_moment_sum",
    "zeta_moment_parts",
    "zeta_moment_continued",
    "identity_zeta_term",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the achieved estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


class EmptySpectrumWarning(UserWarning):
    """A geodesic sum was requested on a manifold with no length spectrum."""


def _sector(manifold: ManifoldData, p: int) -> tuple[int, float]:
    # the dimension n and the shift p + rho0^2 of the p-sector, once p is
    # checked to be a form order of the manifold
    n = manifold.dimension
    if not 0 <= p <= n - 1:
        raise ValueError(f"form order p={p} outside 0..{n - 1}")
    return n, float(p + Fraction(n - 1, 2) ** 2)


def _plancherel_norm(k: int) -> float:
    # pi / (2^(4k-4) Gamma(k)^2) leaves the normal floats from n = 2k = 152 on
    try:
        norm = math.pi / (2.0 ** (4 * k - 4) * math.factorial(k - 1) ** 2)
    except OverflowError:
        norm = 0.0
    if not norm >= sys.float_info.min:
        raise ValueError(f"Plancherel normalisation for n={2 * k} is outside the float range")
    return norm


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"heat time t must be positive and finite, got {t!r}")


# --- identity sector ---------------------------------------------------------


def _identity_norm(manifold: ManifoldData, p: int) -> float:
    # chi(1) Vol / (4 pi) times the Plancherel normalisation and C(n-1, p)
    n = manifold.dimension
    chi_p = float(binomial(n - 1, p))
    return _plancherel_norm(n // 2) * chi_p * manifold.chi_one * manifold.volume / (4.0 * math.pi)


def _identity_term(
    norm: float, n: int, p: int, shift: float, t: float, integral
) -> float:
    # the one assembly of an identity term from its kernel result:
    # identity_heat_term and coexact_trace both call it, so they agree to the bit
    value, delta, _, ok = integral
    if not ok:
        raise QuadratureError(
            f"identity heat term did not converge (n={n}, p={p}, t={t})", delta
        )
    return norm * 2.0 * math.exp(-t * shift) * value


def identity_heat_term(manifold: ManifoldData, p: int, t: float) -> float:
    """Identity orbital integral of the p-sector at heat time t.

    chi(1) Vol/(4 pi) * integral over R of mu_p(r) e^{-t(r^2 + p + rho0^2)} dr,
    computed as twice the half-line integral (the integrand is even).
    """
    _check_time(t)
    n, shift = _sector(manifold, p)
    norm = _identity_norm(manifold, p)
    coeffs = miatello_coefficients(n // 2, p)
    integral = quadrature.plancherel_integral(coeffs, float(t))
    return _identity_term(norm, n, p, shift, t, integral)


# --- tanh moment series ------------------------------------------------------


class TanhMomentResult(NamedTuple):
    value: float
    first_omitted: float
    order_used: int


_MAX_SERIES_TERMS = 400


def _series_term(ell: int, k: int, t: Fraction) -> Fraction:
    # (-1)^l (1 - 2^-e) B t^k / (k! (l+k+1)) with e = 2l+2k+1, built as one
    # integer numerator over one denominator and reduced once
    two_e = 1 << (2 * ell + 2 * k + 1)
    bern = bernoulli(2 * (ell + k + 1))
    num = (two_e - 1) * bern.numerator * t.numerator**k
    den = two_e * bern.denominator * t.denominator**k * math.factorial(k) * (ell + k + 1)
    return Fraction(-num if ell % 2 else num, den)


def tanh_moment_series_exact(
    ell: int, t: Rational, order: int | None = None
) -> tuple[Fraction, Fraction, int]:
    """Exact-core evaluation of the odd tanh moment's asymptotic expansion.

    integral over R of r^(2l+1) e^(-t r^2) tanh(pi r) dr
        ~  l! t^(-l-1)  -  sum_k (-1)^l (1 - 2^(-2l-2k-1)) B_{2(l+k+1)} t^k / (k! (l+k+1))

    The series diverges for every t (Bernoulli numbers grow factorially),
    so it is summed at most to the smallest-magnitude term; requesting a
    higher order silently truncates there instead.  Terms alternate in
    sign, and the remainder after a truncation inside the decreasing range
    is bounded by the first omitted term.

    Returns (value, |first omitted term|, order actually used), all exact.
    The optimal-index scan is capped at 400 terms, which covers every
    t >= 0.025 (the optimal index grows like pi^2/t); beyond the cap the
    remainder bound is still valid, merely not the sharpest available.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    if order is not None and order < 0:
        raise ValueError("order must be nonnegative")

    terms = [_series_term(ell, 0, t)]
    optimal = _MAX_SERIES_TERMS
    for k in range(1, _MAX_SERIES_TERMS + 2):
        terms.append(_series_term(ell, k, t))
        if abs(terms[k]) >= abs(terms[k - 1]):
            optimal = k - 1
            break
        if order is not None and k > order:
            break

    used = optimal if order is None else min(order, optimal)
    leading = Fraction(math.factorial(ell)) / t ** (ell + 1)
    value = leading - sum(terms[: used + 1])
    return value, abs(terms[used + 1]), used


def tanh_moment_series(ell: int, t: float, order: int | None = None) -> TanhMomentResult:
    """Float front end of tanh_moment_series_exact; see that docstring.

    The float t is converted to its exact binary rational, so the series
    is evaluated at precisely the number the caller holds.  first_omitted
    may underflow to 0.0 near the optimal index for small t; use the
    exact variant when the bound itself is the object of interest.
    """
    value, first_omitted, used = tanh_moment_series_exact(ell, Fraction(float(t)), order)
    return TanhMomentResult(float(value), float(first_omitted), used)


# --- hyperbolic sector -------------------------------------------------------


def _geodesic_amplitudes(manifold: ManifoldData, p: int) -> tuple[list, list]:
    # the lengths and the p-sector amplitudes a_p = chi / j * t * C * chi_p(m),
    # multiplied left to right.  Every trivial-holonomy class has the same
    # float character C(n-1, p), read once; an explicit holonomy is looked
    # up (and checked) per class.  An empty spectrum warns once here, and
    # every geodesic sum over it is 0.0.
    n = manifold.dimension
    geos = manifold.geodesics
    if not geos:
        warnings.warn("geodesic sum over empty spectrum is 0", EmptySpectrumWarning)
    lengths = [g.length for g in geos]
    trivial = next((g for g in geos if g.holonomy is None), None)
    chi_p = None if trivial is None else trivial.character(n, p)
    amps = [
        g.chi / g.power * g.length * g.c_factor(n)
        * (chi_p if g.holonomy is None else g.character(n, p))
        for g in geos
    ]
    return lengths, amps


def _hyperbolic_sum(lengths: list, amps: list, shift: float, t: float) -> float:
    # the one expression for the geodesic sum of a sector: hyperbolic_heat_term
    # and coexact_trace both call it, so they agree to the bit
    exp = math.exp
    decay = -t * shift
    four_t = 4.0 * t
    vals = [a * exp(decay - l * l / four_t) for l, a in zip(lengths, amps)]
    return quadrature.pairwise_sum(vals) / math.sqrt(4.0 * math.pi * t)


def hyperbolic_heat_term(manifold: ManifoldData, p: int, t: float) -> float:
    """Hyperbolic orbital sum of the p-sector at heat time t.

    (4 pi t)^(-1/2) sum over classes of (chi/j) t_gamma C(gamma) chi_p(m)
    exp(-t(rho0^2+p) - t_gamma^2/(4t)).  Summation uses a fixed pairwise
    tree over the length-sorted spectrum, so results are reproducible to
    the bit for a given manifold.
    """
    _check_time(t)
    _, shift = _sector(manifold, p)
    lengths, amps = _geodesic_amplitudes(manifold, p)
    return _hyperbolic_sum(lengths, amps, shift, t)


def hyperbolic_tail_bound(manifold: ManifoldData, p: int, t: float) -> float:
    """Gaussian decay indicator for the truncated part of the geodesic sum.

    exp(-t_max^2/(4t)) scaled by the prefactors of a unit-weight class at
    the largest included length.  This makes the truncation error visible;
    it is an indicator, not a rigorous bound, since bounding the unseen
    spectrum needs growth assumptions the data file cannot supply.
    """
    _check_time(t)
    n, shift = _sector(manifold, p)
    t_max = manifold.max_length
    if t_max is None:
        return 0.0
    chi_p = float(binomial(n - 1, p))
    return (
        chi_p
        * math.exp(-t * shift - t_max * t_max / (4.0 * t))
        / math.sqrt(4.0 * math.pi * t)
    )


@dataclass(frozen=True)
class HeatTraceBreakdown:
    """Identity/hyperbolic/Betti split of a (co-exact) heat trace value."""

    t: float
    identity_part: float
    hyperbolic_part: float
    betti_part: float

    @property
    def total(self) -> float:
        return self.identity_part + self.hyperbolic_part - self.betti_part


def coexact_trace(
    manifold: ManifoldData, p: int, times: Sequence[float]
) -> list[HeatTraceBreakdown]:
    """Heat trace of the Laplacian restricted to co-exact p-forms, at each t.

    The trace formula gives it as the alternating sum over j = 0..p of the
    full (p-j)-form traces minus the Betti numbers b_{p-j}.  Its orbital
    terms telescope to the p-sector alone (docs/numerics.md), so the
    identity and hyperbolic parts are identity_heat_term and
    hyperbolic_heat_term of sector p, to the bit, and the Betti part is
    b_p - b_{p-1} + ... +- b_0.

    Returns one breakdown per entry of ``times``, in order.  Every t is
    checked before any quadrature runs.  The geodesic amplitudes and the
    t-free Plancherel node values are computed once per call and shared
    by every t.
    """
    n, shift = _sector(manifold, p)
    times = list(times)
    for t in times:
        _check_time(t)
    if not times:
        return []  # nothing to evaluate, so no normalisation check either
    betti = 0.0
    for j in range(p + 1):
        betti += (-1.0 if j % 2 else 1.0) * manifold.betti[p - j]
    norm = _identity_norm(manifold, p)
    identity_integral = quadrature.plancherel_integrals(miatello_coefficients(n // 2, p))
    lengths, amps = _geodesic_amplitudes(manifold, p)
    return [
        HeatTraceBreakdown(
            t=t,
            identity_part=_identity_term(norm, n, p, shift, t, identity_integral(float(t))),
            hyperbolic_part=_hyperbolic_sum(lengths, amps, shift, t),
            betti_part=betti,
        )
        for t in times
    ]


# --- Bessel-K and the Mellin route -------------------------------------------


# The largest |order| at which _bessel_k_family gives finite floats on the
# z range bessel_k documents, [1e-3, 700]: from order 66 on, K at z = 1e-3
# is past the float range on both the closed-form and the recurrence
# branch.  Far above it the family fails outright (docs/numerics.md).
MAX_BESSEL_ORDER = 65.0


def _bessel_k_family(orders: Sequence[float]):
    """K_nu(z) for every nu in ``orders``, as one function of z.

    Half-integer |nu| uses the finite closed form.  Any other order starts
    from mu = |nu| - round(|nu|), |mu| <= 1/2, by the trapezoid rule on
    e^z K_mu(z) = int_0^inf e^(-z(cosh u - 1)) cosh(mu u) du; for
    |nu| > 1/2 mu + 1 is summed on the same nodes and the pair recurs
    upward.  For each z the nodes u, z(cosh u - 1), e^(-z(cosh u - 1)) and
    e^-z are computed once; each trapezoid sum adds its own cosh terms up
    to its own stop.
    """
    # The integrand is analytic in |Im u| < pi/2, so the error of step h
    # falls like e^(-pi^2/h) (Trefethen & Weideman, SIAM Rev. 56 (2014));
    # h <= 0.7/sqrt(z) resolves the e^(-z u^2/2) peak for large z.  The
    # exponent z(cosh u - 1) - top u is convex and starts at 0, so once it
    # passes 40 every later node is below e^-40 of the u = 0 node.  A sum
    # stops there, with top = |mu| alone or |mu| + 1 for the pair.
    plans = []  # per order: (closed-form terms or None, first sum, mu, m)
    coefs = []  # the cosh(c u) coefficient of each trapezoid sum
    tops = []  # the stop slope of each trapezoid sum
    for order in orders:
        nu = abs(float(order))
        half = nu - 0.5
        if half == int(half) and half >= 0:
            m = int(half)
            terms = [
                math.factorial(m + i) / (math.factorial(i) * math.factorial(m - i))
                for i in range(m + 1)
            ]
            plans.append((terms, 0, 0.0, m))
            continue
        m = round(nu)
        mu = nu - m
        plans.append((None, len(coefs), mu, m))
        if m == 0:
            coefs.append(mu)
            tops.append(abs(mu))
        else:
            coefs += [mu, mu + 1.0]
            tops += [abs(mu) + 1.0] * 2
    # a sum with a lower top stops no later, so the nodes end where the
    # highest top stops
    top_max = max(tops, default=0.0)

    def values(z: float) -> list[float]:
        if not (math.isfinite(z) and z > 0):
            raise ValueError(f"z must be positive and finite, got {z!r}")
        exp, cosh, sinh = math.exp, math.cosh, math.sinh
        h = min(0.25, 0.7 / math.sqrt(z))
        nodes = []  # (u, z(cosh u - 1), e^-(z(cosh u - 1))) for u = h, 2h, ...
        j = 1
        while coefs:
            u = j * h
            half_sinh = sinh(0.5 * u)
            x = 2.0 * z * half_sinh * half_sinh  # z(cosh u - 1) without cancellation
            if x - top_max * u > 40.0:
                break
            nodes.append((u, x, exp(-x)))
            j += 1
        scaled = []
        for c, top in zip(coefs, tops):
            acc = 0.5  # the halved u = 0 node
            for u, x, w in nodes:
                if x - top * u > 40.0:
                    break
                acc += w * cosh(c * u)
            scaled.append(h * acc)
        ez = exp(-z)
        out = []
        for terms, first, mu, m in plans:
            if terms is not None:
                acc = 0.0
                for i, term in enumerate(terms):
                    acc += term / (2.0 * z) ** i
                out.append(math.sqrt(math.pi / (2.0 * z)) * ez * acc)
                continue
            # m = 0 reads K_mu; otherwise K_(mu+1), recurred up to K_(mu+m)
            prev, cur = scaled[first], scaled[first + min(m, 1)]
            for i in range(1, m):
                prev, cur = cur, prev + 2.0 * (mu + i) / z * cur
            out.append(ez * cur)
        return out

    return values


def bessel_k(order: float, z: float) -> float:
    """Modified Bessel function of the second kind, K_order(z), z > 0.

    K is even in its order, so the sign of the order is folded first.
    Half-integer orders use the finite closed form.  Orders up to 1/2 are
    the trapezoid rule on K_nu(z) = int_0^inf e^(-z cosh u) cosh(nu u) du
    (DLMF 10.32.9); larger orders start from mu = nu - round(nu) and mu + 1
    and recur upward with K_(m+1) = K_(m-1) + (2m/z) K_m, which is stable
    for K.  Accurate to about 1e-13 relative for z in [1e-3, 700] and
    orders up to 20.  mellin_hyperbolic evaluates many orders at one z on
    the same code (_bessel_k_family), to the same bits.
    """
    return _bessel_k_family((order,))(z)[0]


def _check_mellin_s(s_values: Sequence[float]) -> list[float]:
    # the s values as floats, once each is finite with a Bessel order
    # |1/2 - s| that the Bessel family evaluates (MAX_BESSEL_ORDER)
    out = [float(s) for s in s_values]
    for s in out:
        if not (math.isfinite(s) and abs(0.5 - s) <= MAX_BESSEL_ORDER):
            raise ValueError(
                f"s must be finite with Bessel order |1/2 - s| <= {MAX_BESSEL_ORDER:g}, "
                f"got {s!r}"
            )
    return out


def _out_of_range(route: str, s: float) -> ValueError:
    return ValueError(f"{route} Mellin value at s={s!r} is outside the float range")


def mellin_hyperbolic(
    manifold: ManifoldData, p: int, s_values: Sequence[float]
) -> list[float]:
    """Mellin transform at each s of the p-sector hyperbolic heat term, Bessel form.

    sum over classes of (chi/(sqrt(pi) j)) t_gamma C(gamma) chi_p(m)
    (2 sqrt(alpha)/t_gamma)^(1/2-s) K_{1/2-s}(t_gamma sqrt(alpha)),
    with alpha = p + rho0^2 appearing in both the power prefactor and the
    Bessel argument (the two slots carry the same sector shift; the
    time-quadrature route is the arbiter and confirms this reading).

    Returns one value per entry of ``s_values``, in order.  Every s must be
    finite with |1/2 - s| <= MAX_BESSEL_ORDER, checked before any work; a
    value outside the float range raises ValueError.  The amplitude table
    is built once per call, and each geodesic's Bessel nodes are shared by
    all s.
    """
    _, alpha = _sector(manifold, p)
    s_values = _check_mellin_s(s_values)
    nus = [0.5 - s for s in s_values]
    sqrt_alpha = math.sqrt(alpha)
    root_pi = math.sqrt(math.pi)
    bessel = _bessel_k_family(nus)
    lengths, amps = _geodesic_amplitudes(manifold, p)
    columns = [[] for _ in nus]
    for l, a in zip(lengths, amps):
        scaled = a / root_pi
        ratio = 2.0 * sqrt_alpha / l
        ks = bessel(l * sqrt_alpha)
        try:
            for column, nu, k in zip(columns, nus, ks):
                column.append(scaled * ratio**nu * k)
        except OverflowError:
            # float ** raises where its result leaves the float range
            raise ValueError(
                f"Bessel prefactor (2 sqrt(alpha)/t)^(1/2-s) overflows at length t={l!r}"
            ) from None
    out = []
    for s, column in zip(s_values, columns):
        value = quadrature.pairwise_sum(column)
        if not math.isfinite(value):
            raise _out_of_range("Bessel-route", s)
        out.append(value)
    return out


def mellin_hyperbolic_quadrature(
    manifold: ManifoldData, p: int, s_values: Sequence[float]
) -> list[float]:
    """Direct t-quadrature of integral_0^inf t^(s-1) H_p(t) dt at each s.

    Independent check of mellin_hyperbolic: no Bessel functions, just the
    log-substitution t = e^u and the double-exponential trapezoid engine.
    Returns one value per entry of ``s_values``, in order, after the same
    s check as mellin_hyperbolic.  The amplitudes and the s-free node
    values are computed once per call and shared by every s, and each s
    gets the bits of a call of its own.  A value outside the float range
    raises ValueError, and a quadrature that does not converge
    QuadratureError.
    """
    _, alpha = _sector(manifold, p)
    s_values = _check_mellin_s(s_values)
    lengths, amps = _geodesic_amplitudes(manifold, p)
    integral = quadrature.mellin_time_integrals(lengths, amps, alpha)
    out = []
    for s in s_values:
        value, delta, _, ok = integral(s)
        if not math.isfinite(value):
            raise _out_of_range("time-route", s)
        if not ok:
            raise QuadratureError(
                f"hyperbolic Mellin quadrature did not converge (p={p}, s={s})", delta
            )
        out.append(value / math.sqrt(4.0 * math.pi))
    return out


# --- identity-sector zeta values ----------------------------------------------


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


def zeta_moment_continued(k: int, q: int, beta: float, s: float = 0.0) -> float:
    """Numeric continuation of the sector moment functional near s = 0.

    Splits tanh(pi r) = 1 - 2/(1 + e^(2 pi r)).  The polynomial part
    continues in closed form through Gamma-ratio poles,

        sum_l a_{2l} beta^(l+1-s) l! / prod_{i=1..l+1} (s - i),

    and the Fermi-factor remainder decays like e^(-2 pi r), so it is an
    entire function of s evaluated by direct quadrature.  No Bernoulli
    numbers enter: this route is independent of zeta_moment_sum and the
    two must agree wherever both are defined (verified in the test suite).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not 0 <= s < 1:
        raise ValueError("s must lie in [0, 1)")
    coeffs = [float(c) for c in miatello_coefficients(k, q)]

    elementary = 0.0
    for ell, a in enumerate(coeffs):
        denom = 1.0
        for i in range(1, ell + 2):
            denom *= s - i
        elementary += a * beta ** (ell + 1 - s) * math.factorial(ell) / denom

    def node(u: float) -> float:
        x = (math.pi / 2.0) * math.sinh(u)
        if 2.0 * x > 700.0:
            return 0.0
        r = math.exp(x)
        two_pi_r = 2.0 * math.pi * r
        if two_pi_r - 2.0 * len(coeffs) * x - abs(u) > 720.0:
            return 0.0
        r2 = r * r
        p_val = 0.0
        for c in reversed(coeffs):
            p_val = p_val * r2 + c
        fermi = 1.0 / (1.0 + math.exp(two_pi_r)) if two_pi_r <= 709.0 else 0.0
        power = (r2 + beta) ** (-s) if s else 1.0
        return (math.pi / 2.0) * math.cosh(u) * r2 * p_val * power * fermi

    value, delta, _, ok = quadrature.de_integrate(node, 1e-13)
    if not ok:
        raise QuadratureError(f"moment continuation did not converge (k={k}, q={q})", delta)
    return elementary - 4.0 * value


def identity_zeta_term(manifold: ManifoldData, p: int) -> float:
    """Zeta value at s = 0 of the p-sector identity term.

    chi(1) Vol/(4 pi) times the Plancherel normalisation and C(n-1, p),
    times zeta_moment_continued of sector p at its shift p + rho0^2: the
    numeric route to the value the exact machinery gives.
    """
    n, alpha = _sector(manifold, p)
    return _identity_norm(manifold, p) * zeta_moment_continued(n // 2, p, alpha)
