"""Heat-kernel traces and zeta-function machinery on hyperbolic quotients.

The numeric half: double-exponential quadrature of the orbital integrals,
Bessel-K closed/Mellin forms for the hyperbolic sector and the numeric
moment continuation.  The verification suite checks them against the exact
half, whose moment routes live in ``anomaly``.

Conventions.  n = 2k is the (even) dimension, rho0 = (n-1)/2, and the
spectral shift of the p-sector is alpha = p + rho0^2.  Every sector
function takes a manifold at unit radius and a form order p in 0..n-1,
and rejects any other radius or p before it computes anything.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from ._kernels import fallback as quadrature
from .exact import binomial
from .manifold import ManifoldData, _trivial_weights
from .plancherel import miatello_coefficients

__all__ = [
    "QuadratureError",
    "EmptySpectrumWarning",
    "HeatTraceBreakdown",
    "identity_heat_term",
    "hyperbolic_heat_term",
    "coexact_trace",
    "mellin_hyperbolic",
    "mellin_hyperbolic_quadrature",
    "bessel_k",
    "MAX_BESSEL_ORDER",
    "zeta_moment_continued",
    "identity_zeta_term",
    "ZetaCheck",
    "zeta_check",
]


class QuadratureError(ValueError):
    """Adaptive quadrature failed to converge; carries the achieved estimate.

    A ValueError: the input is one on which the quadrature cannot reach its
    tolerance, so the CLI reports it as it reports any other bad input."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


class EmptySpectrumWarning(UserWarning):
    """A geodesic sum was requested on a manifold with no length spectrum."""


def _check_form_order(n: int, p: int) -> None:
    # the p-form sectors of an n-manifold are p = 0..n-1
    if not 0 <= p <= n - 1:
        raise ValueError(f"form order p={p} outside 0..{n - 1}")


def _sector(manifold: ManifoldData, p: int) -> tuple[int, float]:
    # the dimension n and the shift p + rho0^2 of the p-sector, once the
    # manifold is checked to be at unit radius (no term here scales with R)
    # and p to be one of its form orders
    if manifold.radius != 1.0:
        raise ValueError(
            f"radius must be 1: the heat and zeta terms work at unit radius, "
            f"got {manifold.radius!r}"
        )
    n = manifold.dimension
    _check_form_order(n, p)
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
        raise ValueError(f"t must be positive and finite, got {t!r}")


def _finite(what: str, value: float) -> float:
    # value, once it is inside the float range; ``what`` names it in the error
    if not math.isfinite(value):
        raise ValueError(f"{what} is outside the float range")
    return value


def _normal_sum(what: str, value: float, amps: list) -> float:
    # a sum over the geodesic amplitudes (a hyperbolic heat term or Mellin
    # value), or a multiple of chi(1), once it is a normal float, or 0.0
    # when every amplitude is: a sum that underflowed would print a
    # subnormal or a false 0, or be graded as 0 against 0
    if any(amps) and not sys.float_info.min <= abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} is outside the float range")
    return value


def _plain_sum(values) -> float:
    # left to right from 0.0, as the builtin sum adds floats up to Python
    # 3.11.  From 3.12 on the builtin compensates, so a cut partial summed
    # by it could stop a geodesic sum a block apart, and move printed bits,
    # from one interpreter to the next
    acc = 0.0
    for v in values:
        acc += v
    return acc


# --- identity sector ---------------------------------------------------------


def _identity_term(manifold: ManifoldData, p: int, shift: float, t: float, integral) -> float:
    # the one assembly of an identity term, so identity_heat_term and
    # coexact_trace agree to the bit: one exp of the sum of the logs of chi(1)
    # Vol/(4 pi), C(n-1, p), pi/(2^(4k-4) Gamma(k)^2), 2 e^(-t shift) and the
    # integral, times 1 + what rounding the sum left off.  Outside the normal
    # floats it raises, converged or not
    mantissa, delta, _, ok, scale = integral
    chi, n = manifold.chi_one, manifold.dimension
    if not chi:
        return 0.0
    den = 2 ** (2 * n - 3) * math.factorial(n // 2 - 1) ** 2  # the pi's cancel: an exact integer
    logs = (math.log(math.comb(n - 1, p)), -math.log(den), math.log(abs(chi)),
            math.log(manifold.volume), -t * shift, scale, math.log(mantissa))
    log_value, magnitude = math.fsum(logs), math.inf
    if math.log(sys.float_info.min) <= log_value <= math.log(sys.float_info.max):
        magnitude = math.exp(log_value) * (1.0 + math.fsum(logs + (-log_value,)))
    if not sys.float_info.min <= magnitude <= sys.float_info.max:
        return _finite(f"heat trace identity at t={t!r}", math.inf)
    if not ok:
        raise QuadratureError(f"identity heat term did not converge (n={n}, p={p}, t={t})", delta)
    return math.copysign(magnitude, chi)


def identity_heat_term(manifold: ManifoldData, p: int, t: float) -> float:
    """Identity orbital integral of the p-sector at heat time t.

    chi(1) Vol/(4 pi) * integral over R of mu_p(r) e^{-t(r^2 + p + rho0^2)} dr,
    computed as twice the half-line integral (the integrand is even), in
    logs.  A value outside the normal floats raises ValueError, as in
    coexact_trace, and chi(1) = 0 gives 0.0.
    """
    _check_time(t)
    n, shift = _sector(manifold, p)
    integral = quadrature.plancherel_integral(miatello_coefficients(n // 2, p), float(t))
    return _identity_term(manifold, p, shift, t, integral)


# --- hyperbolic sector -------------------------------------------------------


def _geodesic_amplitudes(manifold: ManifoldData, p: int) -> tuple[list, list]:
    # the lengths and the p-sector amplitudes a_p = chi / j * t * C * chi_p(m),
    # multiplied left to right over the columns: C is the stored c, or the
    # trivial-holonomy weight of a class without one; chi_p(m) is C(n-1, p),
    # taken once, or the p-th value of a class's own holonomy.  No class is
    # built.  An empty spectrum warns once here, and every geodesic sum over
    # it is 0.0.
    n = manifold.dimension
    lengths, powers, c_values, chis, holonomy = manifold.columns
    if not lengths:
        warnings.warn("geodesic sum over empty spectrum is 0", EmptySpectrumWarning)
    if None in c_values:
        weights = iter(_trivial_weights(n, [t for t, c in zip(lengths, c_values) if c is None]))
        c_values = [next(weights) if c is None else c for c in c_values]
    trivial = float(binomial(n - 1, p))
    characters = itertools.repeat(trivial)
    if holonomy.count(None) != len(holonomy):
        characters = [trivial if h is None else h[p] for h in holonomy]
    columns = zip(lengths, powers, c_values, chis, characters)
    return list(lengths), [chi / j * t * c * chi_p for t, j, c, chi, chi_p in columns]


def _hyperbolic_sum(blocks: list, shift: float, t: float) -> tuple[float, float, int]:
    # the one expression for the geodesic sum of a sector: hyperbolic_heat_term
    # and coexact_trace both call it, so they agree to the bit.  ``blocks``
    # are _heat_blocks, walked until the stop rule (quadrature.stops) cuts
    # the rest, and the kept terms go through the pairwise tree.  A class's
    # factor e^(-t shift - l^2/4t) bounds that of every longer class.
    # Returns the sum, the bound on the tail it leaves out (0.0 when every
    # class is in) and the number of classes in it.
    exp = math.exp
    decay = -t * shift
    four_t = 4.0 * t
    norm = math.sqrt(4.0 * math.pi * t)
    vals = []
    partial = 0.0
    tail = 0.0
    for _, bound, squares, amps in blocks:
        cut = bound * exp(decay - squares[0] / four_t)
        if quadrature.stops(cut, partial):
            tail = cut
            break
        block = [a * exp(decay - l2 / four_t) for l2, a in zip(squares, amps)]
        vals += block
        partial += _plain_sum(block)
    return quadrature.pairwise_sum(vals) / norm, tail / norm, len(vals)


def _heat_blocks(lengths: list, amps: list) -> list:
    # the heat sum's blocks, built once per call and walked at every t:
    # l^2 and the amplitude of each class
    return quadrature.cut_blocks(amps, [l * l for l in lengths], amps)


def hyperbolic_heat_term(manifold: ManifoldData, p: int, t: float) -> float:
    """Hyperbolic orbital sum of the p-sector at heat time t.

    (4 pi t)^(-1/2) sum over classes of (chi/j) t_gamma C(gamma) chi_p(m)
    exp(-t(rho0^2+p) - t_gamma^2/(4t)).  The length-sorted classes are
    added in blocks until a bound computed from the file shows that the
    rest is below 2^-54 of the sum (docs/numerics.md); the kept terms go
    through a fixed pairwise tree, so results are reproducible to the bit
    for a given manifold.  A value outside the normal floats raises
    ValueError unless every amplitude is 0.0, as in coexact_trace.
    """
    _check_time(t)
    _, shift = _sector(manifold, p)
    lengths, amps = _geodesic_amplitudes(manifold, p)
    value = _hyperbolic_sum(_heat_blocks(lengths, amps), shift, t)[0]
    return _normal_sum(f"heat trace hyperbolic at t={t!r}", value, amps)


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
    checked before any quadrature runs; an identity or hyperbolic part
    outside the normal floats (but a hyperbolic 0.0 of all-zero
    amplitudes), or a total outside the float range, raises ValueError.
    The geodesic amplitudes in blocks with their suffix bounds (where each
    t's geodesic sum stops) and the t-free Plancherel node values are
    computed once per call and shared by every t.
    """
    n, shift = _sector(manifold, p)
    times = list(times)
    for t in times:
        _check_time(t)
    if not times:
        return []
    betti = 0.0
    for j in range(p + 1):
        betti += (-1.0 if j % 2 else 1.0) * manifold.betti[p - j]
    identity_integral = quadrature.plancherel_integrals(miatello_coefficients(n // 2, p))
    lengths, amps = _geodesic_amplitudes(manifold, p)
    blocks = _heat_blocks(lengths, amps)
    rows = []
    for t in times:
        row = HeatTraceBreakdown(
            t=t,
            identity_part=_identity_term(manifold, p, shift, t, identity_integral(float(t))),
            hyperbolic_part=_hyperbolic_sum(blocks, shift, t)[0],
            betti_part=betti,
        )
        _normal_sum(f"heat trace hyperbolic at t={t!r}", row.hyperbolic_part, amps)
        _finite(f"heat trace total at t={t!r}", row.total)
        rows.append(row)
    return rows


# --- Bessel-K and the Mellin route -------------------------------------------


# The largest |order| at which _bessel_k_family gives finite floats on the
# z range bessel_k documents, [1e-3, 700]: from order 66 on, K at z = 1e-3
# is past the float range on both the closed-form and the recurrence
# branch.  Far above it the family fails outright (docs/numerics.md).
MAX_BESSEL_ORDER = 65.0


def _bessel_k_family(orders: Sequence[float]):
    """K_nu(z) for every nu in ``orders``, on one node grid per z range.

    ``_bessel_k_family(orders)(z_lo, z_hi)`` builds a grid that serves
    every z in [z_lo, z_hi]; calling it at such a z gives the values.
    Half-integer |nu| uses the finite closed form.  Any other order starts
    from mu = |nu| - round(|nu|), |mu| <= 1/2, by the trapezoid rule on
    e^z K_mu(z) = int_0^inf e^(-z(cosh u - 1)) cosh(mu u) du; for
    |nu| > 1/2 mu + 1 is summed on the same nodes and the pair recurs
    upward.  The grid computes the nodes u, sinh(u/2) and cosh(c u) for
    every trapezoid coefficient c once; each z then pays one exp per node
    and one dot product per sum.
    """
    # The integrand is analytic in |Im u| < pi/2.  On the line Im u = a it
    # reaches e^(z (1 - cos a)) times its value at u = 0, so the relative
    # error of step h is about e^(z (1 - cos a) - 2 pi a / h) for any a up
    # to pi/2 (Trefethen & Weideman, SIAM Rev. 56 (2014)).  At a = pi/2
    # that is e^(z - pi^2/h), which h = pi^2/(z + 40) holds to e^-40.  For
    # large z a smaller a, sin a = 2 pi/(h z), gives a coarser step:
    # h = 0.7/sqrt(z) holds the bound below e^-40 from z = 100 on, and is
    # taken there (below z = 15 it does not: e^-13 at z = 1).  At fixed h
    # the bound falls with z, so the grid takes h at z_hi and no z in the
    # range is less accurate than on a grid of its own.  The
    # exponent z(cosh u - 1) - top u is convex, starts at 0 and grows with
    # z, so once it passes 40 at z_lo every later node is below e^-40 of
    # the u = 0 node for every z in the range and every sum.
    plans = []  # per order: (closed-form terms or None, first sum, mu, m)
    coefs = []  # the cosh(c u) coefficient of each trapezoid sum
    top_max = 0.0  # the largest stop slope: |mu|, or |mu| + 1 for a pair
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
            top_max = max(top_max, abs(mu))
        else:
            coefs += [mu, mu + 1.0]
            top_max = max(top_max, abs(mu) + 1.0)
    # when every order is one trapezoid sum (m = 0), the sums times e^-z
    # are the values, in order
    direct = all(terms is None and m == 0 for terms, _, _, m in plans)

    def grid(z_lo: float, z_hi: float):
        for z in (z_lo, z_hi):
            if not (math.isfinite(z) and z > 0):
                raise ValueError(f"z must be positive and finite, got {z!r}")
        exp = math.exp
        h = math.pi**2 / (z_hi + 40.0) if z_hi < 100.0 else 0.7 / math.sqrt(z_hi)
        us = []  # u = h, 2h, ... out to where z_lo stops
        half_sinhs = []  # sinh(u/2), so that z(cosh u - 1) = 2z sinh(u/2)^2
        j = 1
        while coefs:
            u = j * h
            half_sinh = math.sinh(0.5 * u)
            if 2.0 * z_lo * half_sinh * half_sinh - top_max * u > 40.0:
                break
            us.append(u)
            half_sinhs.append(half_sinh)
            j += 1
        rows = [[math.cosh(c * u) for u in us] for c in coefs]

        def values(z: float) -> list[float]:
            two_z = 2.0 * z
            neg_two_z = -two_z  # (-2z s) s rounds as -((2z s) s)
            ws = [exp(neg_two_z * s * s) for s in half_sinhs]
            ez = exp(-z)
            scaled = []
            for row in rows:
                acc = 0.5  # the halved u = 0 node
                for w, cosh_cu in zip(ws, row):
                    acc += w * cosh_cu
                scaled.append(ez * (h * acc) if direct else h * acc)
            if direct:
                return scaled
            out = []
            for terms, first, mu, m in plans:
                if terms is not None:
                    # a power past the float range is inf, so its term is 0.0
                    acc = 0.0
                    for i, term in enumerate(terms):
                        acc += term / _power_bound(two_z, i)
                    out.append(math.sqrt(math.pi / two_z) * ez * acc)
                    continue
                # m = 0 reads K_mu; otherwise K_(mu+1), recurred up to K_(mu+m)
                prev, cur = scaled[first], scaled[first + min(m, 1)]
                for i in range(1, m):
                    prev, cur = cur, prev + 2.0 * (mu + i) / z * cur
                out.append(ez * cur)
            return out

        return values

    return grid


def bessel_k(order: float, z: float) -> float:
    """Modified Bessel function of the second kind, K_order(z), z > 0.

    K is even in its order, so the sign of the order is folded first.
    Half-integer orders use the finite closed form.  Orders up to 1/2 are
    the trapezoid rule on K_nu(z) = int_0^inf e^(-z cosh u) cosh(nu u) du
    (DLMF 10.32.9); larger orders start from mu = nu - round(nu) and mu + 1
    and recur upward with K_(m+1) = K_(m-1) + (2m/z) K_m, which is stable
    for K.  Accurate to about 2e-15 relative for z in [1e-3, 700] and
    orders up to 65.  It is _bessel_k_family on a grid of one z;
    mellin_hyperbolic evaluates many orders on one grid per run of
    classes, so its values can differ from this in the last bits.
    """
    return _bessel_k_family((order,))(z, z)(z)[0]


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
    is built once per call, and one Bessel node grid serves every s and a
    run of up to CUT_BLOCK length-sorted classes, so a class's K values
    can differ from bessel_k's in the last bits; like bessel_k's, they are
    within about 2e-15 relative of mpmath.besselk at orders up to 65.  The
    classes are summed
    until a bound computed from the file shows the rest below 2^-54 of the
    sum for every s; the classes past that point are never evaluated
    (docs/numerics.md).
    """
    _, alpha = _sector(manifold, p)
    s_values = _check_mellin_s(s_values)
    lengths, amps = _geodesic_amplitudes(manifold, p)
    values, _, _ = _bessel_sums(lengths, amps, alpha, [0.5 - s for s in s_values])
    for s, value in zip(s_values, values):
        _normal_sum(f"Bessel-route Mellin value at s={s!r}", value, amps)
    return values


def _power_bound(ratio: float, nu: float) -> float:
    # ratio**nu, or inf where it leaves the float range: a bound that
    # overflows only keeps a sum going, it raises nothing
    try:
        return ratio**nu
    except OverflowError:
        return math.inf


def _run_grids(family, zs: list):
    # for each z of a length-sorted list, the values function of the family
    # grid that serves it.  One grid serves a run of classes: a run starts at every
    # CUT_BLOCK boundary, so that a block the cut skips builds no grid, and
    # at the first class whose z passes 4x the run's first z, so that no
    # grid spans a wide z range (its step is set by its largest z, its
    # extent by its smallest).
    block = quadrature.CUT_BLOCK
    i = 0
    while i < len(zs):
        end = min(i - i % block + block, len(zs))
        j = i + 1
        while j < end and zs[j] <= 4.0 * zs[i]:
            j += 1
        values = family(zs[i], zs[j - 1])
        for _ in range(i, j):
            yield values
        i = j


def _bessel_sums(
    lengths: list, amps: list, alpha: float, nus: list
) -> tuple[list, list, int]:
    # the Bessel-route sums, one per order nu; the bound on the tail each
    # leaves out (0.0 when every class is in); and the number of classes in
    # them.  Before the block that starts at class K, K_nu(l_K sqrt(alpha))
    # from K's own family values bounds K_nu at every longer length (K
    # decreases in z), and the prefactor (2 sqrt(alpha)/l)^nu is largest at
    # l_K for nu >= 0 and at the longest length for nu < 0.  A class is
    # skipped only when every order passes.
    sqrt_alpha = math.sqrt(alpha)
    root_pi = math.sqrt(math.pi)
    zs = [l * sqrt_alpha for l in lengths]
    grids = _run_grids(_bessel_k_family(nus), zs)
    far = [_power_bound(2.0 * sqrt_alpha / lengths[-1], nu) if lengths else 0.0 for nu in nus]
    columns = [[] for _ in nus]
    partials = [0.0] * len(nus)
    tails = [0.0] * len(nus)
    for _, bound, block_ls, block_amps, block_zs in quadrature.cut_blocks(amps, lengths, amps, zs):
        kss = [next(grids)(block_zs[0])]  # class K's values, for its check and its terms
        ratio = 2.0 * sqrt_alpha / block_ls[0]
        factors = [
            k * (_power_bound(ratio, nu) if nu >= 0 else top) / root_pi
            for nu, k, top in zip(nus, kss[0], far)
        ]
        cut = quadrature.tail_bounds(bound, factors, partials)
        if cut is not None:
            tails = cut
            break
        terms = [[] for _ in nus]
        for l, a, z in zip(block_ls, block_amps, block_zs):
            ks = kss.pop() if kss else next(grids)(z)
            ratio = 2.0 * sqrt_alpha / l
            scaled = a / root_pi
            try:
                for column, nu, k in zip(terms, nus, ks):
                    column.append(scaled * ratio**nu * k)
            except OverflowError:
                # float ** raises where its result leaves the float range
                raise ValueError(
                    f"Bessel prefactor (2 sqrt(alpha)/t)^(1/2-s) overflows at length t={l!r}"
                ) from None
        partials = [partial + _plain_sum(block) for partial, block in zip(partials, terms)]
        for column, block in zip(columns, terms):
            column += block
    kept = len(columns[0]) if columns else 0
    return [quadrature.pairwise_sum(column) for column in columns], tails, kept


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
    QuadratureError, whose estimate is in units of the kernel's mantissa.
    """
    _, alpha = _sector(manifold, p)
    s_values = _check_mellin_s(s_values)
    lengths, amps = _geodesic_amplitudes(manifold, p)
    integral = quadrature.mellin_time_integrals(lengths, amps, alpha)
    out = []
    for s in s_values:
        mantissa, delta, _, ok, scale = integral(s)
        value = mantissa * quadrature._exp(scale) / math.sqrt(4.0 * math.pi)
        _normal_sum(f"time-route Mellin value at s={s!r}", value, amps)
        if not ok:
            raise QuadratureError(
                f"hyperbolic Mellin quadrature did not converge (p={p}, s={s})", delta
            )
        out.append(value)
    return out


# --- identity-sector zeta values and the zeta check ---------------------------


def zeta_moment_continued(k: int, q: int, beta: float) -> float:
    """Numeric continuation of the sector moment functional to s = 0.

    Splits tanh(pi r) = 1 - 2/(1 + e^(2 pi r)).  The polynomial part
    continues in closed form through Gamma-ratio poles to the exact
    rational E = sum_l (-1)^(l+1) a_l beta^(l+1) / (l+1) at s = 0.  The
    Fermi-factor remainder F (quadrature.fermi_integral) decays like
    e^(-2 pi r), so it is an entire function of s, taken at s = 0 by
    quadrature.  Returns E - 4F rounded once; one outside the float range
    raises ValueError.  No Bernoulli numbers enter: this route is
    independent of zeta_moment_sum and the two must agree wherever both
    are defined (verified in the test suite).
    """
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    coeffs = miatello_coefficients(k, q)
    elementary = sum(Fraction(a) * (-beta) ** (l + 1) / (l + 1) for l, a in enumerate(coeffs))
    mantissa, delta, _, ok, scale = quadrature.fermi_integral(coeffs)
    if not ok:
        raise QuadratureError(f"moment continuation did not converge (k={k}, q={q})", delta)
    try:
        return float(elementary - 4 * Fraction(mantissa * math.exp(scale)))
    except OverflowError:
        raise ValueError(f"moment continuation (k={k}, q={q}) is outside the float range") from None


def identity_zeta_term(manifold: ManifoldData, p: int) -> float:
    """Zeta value at s = 0 of the p-sector identity term.

    chi(1) Vol/(4 pi) times the Plancherel normalisation and C(n-1, p),
    times zeta_moment_continued of sector p at its shift p + rho0^2: the
    numeric route to the value the exact machinery gives.  A value outside
    the normal floats raises ValueError, and chi(1) = 0 gives 0.0.
    """
    n, alpha = _sector(manifold, p)
    if not manifold.chi_one:
        return 0.0
    norm = _plancherel_norm(n // 2) * float(binomial(n - 1, p)) * manifold.chi_one
    value = norm * manifold.volume / (4.0 * math.pi) * zeta_moment_continued(n // 2, p, alpha)
    return _normal_sum("identity zeta value at s=0", value, [manifold.chi_one])


class ZetaCheck(NamedTuple):
    identity: float
    bessel: list[float]
    quadrature: list[float]
    gaps: list[float]
    f_2: float
    f_3: float


def zeta_check(manifold: ManifoldData, p: int, s_values: Sequence[float]) -> ZetaCheck:
    """Identity-sector zeta(0), then the Bessel and time Mellin routes at each s.

    The identity term comes first, so one outside the float range fails
    before any Mellin work.  gaps are |bessel - time| / |time| per s.  The
    Bessel pass also gives f = M/Gamma at s = 1e-2 and 1e-3 (f_2, f_3),
    whose ratio is 10 when the geodesic sector vanishes linearly at s = 0.
    Only this function is shared; the two routes stay independent.
    """
    s_values = _check_mellin_s(s_values)
    identity = identity_zeta_term(manifold, p)
    *bessel, at_2, at_3 = mellin_hyperbolic(manifold, p, [*s_values, 1e-2, 1e-3])
    quads = mellin_hyperbolic_quadrature(manifold, p, s_values)
    gaps = [abs(b - q) / max(abs(q), 1e-300) for b, q in zip(bessel, quads)]
    f_2, f_3 = at_2 / math.gamma(1e-2), at_3 / math.gamma(1e-3)
    return ZetaCheck(identity, bessel, quads, gaps, f_2, f_3)
