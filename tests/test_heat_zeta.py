"""Heat-trace and zeta machinery: identity/hyperbolic sectors, series,
Bessel transforms, and the exact identity-sector zeta values."""

import dataclasses
import itertools
import math
import random
import re
import sys
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import tanh_reference
from identity_reference import reference_identity_terms
from tanh_reference import TANH_TIMES, tanh_moment_series_exact
from test_heat_trace_snapshot import mpmath_identity

from hyperzeta import heat_zeta, manifold
from hyperzeta.anomaly import (
    _bern_weight,
    _moment_parts,
    zeta_identity_zero_total,
    zeta_moment_sum,
)
from hyperzeta.exact import MAX_DIMENSION, bernoulli, binomial
from hyperzeta.heat_zeta import (
    EmptySpectrumWarning,
    HeatTraceBreakdown,
    QuadratureError,
    bessel_k,
    coexact_trace,
    hyperbolic_heat_term,
    identity_heat_term,
    identity_zeta_term,
    mellin_hyperbolic,
    mellin_hyperbolic_quadrature,
    zeta_moment_continued,
)
from hyperzeta.manifold import GeodesicClass, ManifoldData, synth_spectrum, trivial_holonomy_c
from hyperzeta.plancherel import miatello_coefficients


class TestIdentityHeatTerm:
    def test_n2_against_mpmath(self):
        # Vol = 4 pi cancels the prefactor: the term is the bare integral
        # over R of mu_0(r) e^{-t(r^2 + 1/4)}, with mu_0(r) = pi r tanh(pi r)
        data = ManifoldData(dimension=2, volume=4.0 * math.pi, betti=(1, 0, 1))
        got = identity_heat_term(data, 0, 1.0)
        pi = mpmath.pi
        with mpmath.workdps(30):
            want = mpmath.quad(
                lambda r: 2 * pi * r * mpmath.tanh(pi * r) * mpmath.exp(-(r * r + 0.25)),
                [0, 1, mpmath.inf],
            )
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_n130_not_a_silent_zero(self):
        # norm * 2 * e^(-t shift), 1.34e-256 * 2 * 4.58e-91, underflowed to
        # 0.0 before the integral (1.77e194) applied, and 0 was printed.
        # Reference: with tanh(pi r) = 1 the integral over r > 0 is the sum
        # of a_j j! / (2 t^(j+1)); tanh's 2 / (1 + e^(2 pi r)) part is below
        # `bound`, from the integral of r^(2j+1) e^(-2 pi r)
        n, p, t = 130, 0, 0.05
        k = n // 2
        data = ManifoldData(dimension=n, volume=1.0, betti=(1,) + (0,) * (n - 1) + (1,))
        got = identity_heat_term(data, p, t)
        coeffs = miatello_coefficients(k, p)
        assert min(coeffs) > 0
        with mpmath.workdps(40):
            tt = mpmath.mpf(t)
            a = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]
            half = sum(c * mpmath.factorial(j) / (2 * tt ** (j + 1)) for j, c in enumerate(a))
            bound = sum(
                2 * c * mpmath.factorial(2 * j + 1) / (2 * mpmath.pi) ** (2 * j + 2)
                for j, c in enumerate(a)
            )
            norm = mpmath.pi / (mpmath.mpf(2) ** (4 * k - 4) * mpmath.factorial(k - 1) ** 2)
            shift = p + mpmath.mpf(n - 1) ** 2 / 4
            want = norm * math.comb(n - 1, p) * 2 * half * mpmath.exp(-tt * shift)
            want /= 4 * mpmath.pi
            assert bound < 1e-18 * half
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("mantissa,scale,shift", [
        (1.5, 700.0, 800.0),  # e^(-t shift) alone is 0.0
        (1.25, 1400.0, 1500.0),  # the integral alone is inf too
        (0.75, -300.0, -200.0),  # the integral alone is a subnormal
    ])
    def test_assembly_in_logs(self, mantissa, scale, shift):
        # n = 4, p = 0, unit chi(1) and volume: the term is e^(-shift) / 32
        # times the integral, mantissa e^scale, a normal float in each case
        data = ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1))
        got = heat_zeta._identity_term(data, 0, shift, 1.0, (mantissa, 0.0, 5, True, scale))
        with mpmath.workdps(30):
            want = mpmath.exp(scale - shift) * mantissa / 32
            assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("n,times", [(6, (0.05, 1.0)), (130, (0.05, 0.07))])
    def test_sign_of_chi_one(self, n, times):
        # at n = 130 a chi(1) <= 0 once raised "math domain error" from the
        # log of a non-positive normalisation
        def term(chi_one, t):
            data = ManifoldData(dimension=n, volume=1.0, chi_one=chi_one,
                                betti=(1,) + (0,) * (n - 1) + (1,))
            return identity_heat_term(data, 0, t)

        for t in times:
            for chi in (1.0, 2.5, 1e-3):
                assert term(-chi, t).hex() == (-term(chi, t)).hex(), (chi, t)
            assert repr(term(0.0, t)) == "0.0"

    def test_monotone_decay_in_t(self, small_spectrum):
        values = [identity_heat_term(small_spectrum, 1, t) for t in (1.0, 1.5, 2.0, 3.0)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_positive_across_sectors(self, small_spectrum):
        for p in range(4):
            for t in (0.1, 1.0, 5.0):
                assert identity_heat_term(small_spectrum, p, t) > 0

    @pytest.mark.parametrize("n", [152, 160, MAX_DIMENSION])
    def test_normalisation_outside_float_range_rejected(self, n, monkeypatch):
        # pi / (2^(2n-4) Gamma(n/2)^2) underflows from n = 152 on and its
        # denominator overflows at n = 200; identity_zeta_term raises before
        # any quadrature.  The heat term takes it in logs (TestHighDimension)
        monkeypatch.setattr(heat_zeta.quadrature, "log_integrate", None)
        data = ManifoldData(dimension=n, volume=1.0, betti=(1,) + (0,) * (n - 1) + (1,))
        with pytest.raises(ValueError, match=f"n={n} "):
            identity_zeta_term(data, 0)
        assert heat_zeta._plancherel_norm(75) > 0

    def test_volume_linearity(self):
        a = ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1))
        b = ManifoldData(dimension=4, volume=3.0, betti=(1, 0, 0, 0, 1))
        assert math.isclose(
            3.0 * identity_heat_term(a, 0, 0.5),
            identity_heat_term(b, 0, 0.5),
            rel_tol=1e-15,
        )


def high_n_identity_reference(n: int, p: int, t: float, dps: int = 50):
    """identity_heat_term at unit chi(1) and volume, from its definition in mpmath.

    The integral over r > 0 of r P_p(r^2) tanh(pi r) e^(-t r^2), split at
    0, 1 and 1/2, 1, 2 and 4 times sqrt(k/t), times chi(1) Vol/(4 pi),
    C(n-1, p), pi/(2^(4k-4) Gamma(k)^2) and 2 e^(-t (p + rho0^2)).
    """
    k = n // 2
    with mpmath.workdps(dps):
        tt = mpmath.mpf(t)
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in miatello_coefficients(k, p)]
        peak = mpmath.sqrt(k / tt)
        integral = mpmath.quad(
            lambda r: r * mpmath.polyval(cs[::-1], r * r) * mpmath.tanh(mpmath.pi * r)
            * mpmath.exp(-tt * r * r),
            [0, 1, peak / 2, peak, 2 * peak, 4 * peak, mpmath.inf],
        )
        norm = mpmath.pi / (mpmath.mpf(2) ** (4 * k - 4) * mpmath.factorial(k - 1) ** 2)
        shift = p + mpmath.mpf(n - 1) ** 2 / 4
        return norm * math.comb(n - 1, p) * 2 * mpmath.exp(-tt * shift) * integral / (4 * mpmath.pi)


# (n, p, t) -> identity_heat_term at unit chi(1) and volume, made by
#   PYTHONPATH=src:tests python -c "from test_heat_zeta import *
#   for key in HIGH_N_IDENTITY: print(key, mpmath.nstr(high_n_identity_reference(*key), 20))"
# (at 40 digits every value agrees to 1e-40)
HIGH_N_IDENTITY = {
    (20, 0, 0.05): "3.9788427347695128477e-6",
    (20, 0, 1.0): "1.7559808137934257524e-51",
    (20, 0, 2.5): "2.1864876635479677744e-111",
    (20, 9, 0.05): "0.37174119180784399372",
    (20, 9, 1.0): "8.0811116572954154106e-49",
    (20, 9, 2.5): "3.6509563419562368451e-114",
    (60, 0, 0.05): "5.5626138919283178067e-42",
    (60, 0, 1.0): "1.0688824784719325882e-414",
    (60, 0, 2.5): "8.2205927151692242198e-983",
    (60, 29, 0.05): "2.5526113183696767602e-25",
    (60, 29, 1.0): "5.5271894067474101873e-408",
    (60, 29, 2.5): "1.5824999599128685113e-994",
    (100, 0, 0.05): "3.621508914962972197e-98",
    (100, 0, 1.0): "3.6152629206793356799e-1125",
    (100, 0, 2.5): "1.4093340650619961571e-2722",
    (100, 49, 0.05): "9.1520253498323633034e-70",
    (100, 49, 1.0): "9.0495493474892843134e-1115",
    (100, 49, 2.5): "1.2500605070182906877e-2743",
    (130, 0, 0.05): "2.1753120700925187566e-152",
    (130, 0, 1.0): "5.5630177975785880286e-1886",
    (130, 0, 2.5): "2.3167792937978155781e-4597",
    (130, 64, 0.05): "3.4565080497282065395e-115",
    (130, 64, 1.0): "6.7636346543416384803e-1873",
    (130, 64, 2.5): "1.6984785103880089162e-4625",
    (140, 0, 0.05): "1.0454264176631041625e-172",
    (140, 0, 1.0): "5.2091206140753169566e-2183",
    (140, 0, 2.5): "7.3954795634107719511e-5331",
    (140, 69, 0.05): "1.4167127489460142935e-132",
    (140, 69, 1.0): "4.8809399109905950135e-2169",
    (140, 69, 2.5): "2.3141598509711449907e-5361",
    (160, 0, 0.05): "1.1183433538968154659e-216",
    (160, 0, 1.0): "3.3212277562940680864e-2842",
    (160, 0, 2.5): "1.0544574322641229233e-6960",
    (160, 79, 0.05): "1.0950292165742584195e-170",
    (160, 79, 1.0): "1.8084389949779876285e-2826",
    (160, 79, 2.5): "5.8784282914213940637e-6996",
    (200, 0, 0.05): "7.2318753344445354327e-318",
    (200, 0, 1.0): "3.7260420055724504245e-4421",
    (200, 0, 2.5): "8.0981080599239898412e-10872",
    (200, 99, 0.05): "3.6080288817874209633e-260",
    (200, 99, 1.0): "6.4181789393348334626e-4402",
    (200, 99, 2.5): "1.3405115685344627288e-10916",
}


class TestHighDimension:
    @pytest.mark.parametrize("n", [20, 60, 100, 130, 140, 160, 200])
    def test_identity_heat_term_or_float_range(self, n):
        # at n = 140, t = 0.05 it raised "did not converge (nan)"; at n = 98
        # to 100, t = 1, "did not converge" for a value below the floats; at
        # n = 60, t = 1, it returned 0.0; from n = 152 the normalisation
        # raised for values that are normal floats
        data = ManifoldData(dimension=n, volume=1.0, betti=(1,) + (0,) * (n - 1) + (1,))
        for p in (0, n // 2 - 1):
            for t in (0.05, 1.0, 2.5):
                want = mpmath.mpf(HIGH_N_IDENTITY[n, p, t])
                if sys.float_info.min <= want <= sys.float_info.max:
                    got = identity_heat_term(data, p, t)
                    assert abs(got - want) <= 1e-12 * want, (n, p, t)
                else:
                    with pytest.raises(ValueError, match="outside the float range$") as err:
                        identity_heat_term(data, p, t)
                    assert not isinstance(err.value, QuadratureError)

    @pytest.mark.parametrize("n", [100, 140, 160])
    def test_hyperbolic_term_below_normal_floats_raises(self, n):
        # synth-spectrum --seed 5 --count 3 --max-power 1 --min-length 1: the
        # sum was the subnormal 7.90505e-322 (0.49% off 7.94396e-322) at
        # n = 100, and 0.0 at n = 140 and 160
        geos = synth_spectrum(seed=5, count=3, min_length=1.0, max_power=1, n=n)
        data = ManifoldData(dimension=n, volume=1.0, betti=(1,) + (0,) * (n - 1) + (1,),
                            geodesics=tuple(geos))
        needle = r"^heat trace hyperbolic at t=0\.05 is outside the float range$"
        with pytest.raises(ValueError, match=needle):
            hyperbolic_heat_term(data, 0, 0.05)
        with pytest.raises(ValueError, match=needle):
            coexact_trace(data, 0, [0.05])
        # every amplitude 0.0: the sum is 0.0, not outside the float range
        silent = dataclasses.replace(
            data, geodesics=tuple(dataclasses.replace(g, chi=0.0) for g in geos)
        )
        assert hyperbolic_heat_term(silent, 0, 0.05) == 0.0
        assert coexact_trace(silent, 0, [0.05])[0].hyperbolic_part == 0.0


def _tiny_t_identity(n, t):
    # identity_heat_term of sector 0 at chi(1) = Vol = 1, at 30 digits, with
    # tanh = 1 - 2/(1 + e^(2 pi r)): the polynomial part is the closed form
    # sum_l a_l l! / (2 t^(l+1)), and only the Fermi part is a quadrature,
    # which mpmath.quad resolves where the whole integrand spans 1e30 in r
    k = n // 2
    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in miatello_coefficients(k, 0)]
        poly = sum(a * mpmath.factorial(l) / (2 * t ** (l + 1)) for l, a in enumerate(coeffs))
        fermi = mpmath.quad(lambda r: r * mpmath.polyval(coeffs[::-1], r * r)
                            * mpmath.exp(-t * r * r) / (1 + mpmath.exp(2 * mpmath.pi * r)),
                            [0, 1, 5, mpmath.inf])
        norm = mpmath.pi / (mpmath.mpf(2) ** (4 * k - 4) * mpmath.factorial(k - 1) ** 2)
        shift = mpmath.mpf(n - 1) ** 2 / 4
        return norm / (2 * mpmath.pi) * mpmath.exp(-t * shift) * (poly - 2 * fermi)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the identity heat term does not converge at some tiny t "
                          "where its value is a normal float (CHANGES.md FOUND)")
def test_identity_heat_term_converges_at_tiny_t():
    # a geodesic-free n = 2 file prints t = 1e-300 and 1e-307 but exits 2
    # at 1e-305 with "identity heat term did not converge", and an n = 10
    # file does the same at 1e-60 (t = 1e-61 prints 1.59e298).  At n = 2
    # the term is e^(-t/4) (1/(4t) - 1/48) to O(t)
    cases = [
        (2, 1e-305, math.exp(-1e-305 / 4) * (1 / (4 * 1e-305) - 1 / 48)),
        (10, 1e-60, _tiny_t_identity(10, 1e-60)),
    ]
    failed = {}
    for n, t, want in cases:
        data = ManifoldData(dimension=n, volume=1.0, betti=(1,) + (0,) * (n - 1) + (1,))
        try:
            got = identity_heat_term(data, 0, t)
        except QuadratureError as err:
            failed[n, t] = str(err)
            continue
        if not abs(got - want) <= 1e-12 * want:
            failed[n, t] = f"{got!r} against {float(want)!r}"
    assert not failed, failed


def series_term(ell, k, t):
    # term k of the tanh series, from the one statement of it
    return Fraction(*next(itertools.islice(tanh_reference._series_terms(ell, t), k, None)))


def fraction_series(ell, t):
    # the series as it was summed before the integer-pair form: each term a
    # reduced Fraction, added one at a time
    def term(k):
        two_e = 1 << (2 * ell + 2 * k + 1)
        bern = bernoulli(2 * (ell + k + 1))
        num = (two_e - 1) * bern.numerator * t.numerator**k
        den = two_e * bern.denominator * t.denominator**k * math.factorial(k) * (ell + k + 1)
        return Fraction(-num if ell % 2 else num, den)

    terms = [term(0)]
    optimal = 400
    for k in range(1, 402):
        terms.append(term(k))
        if abs(terms[k]) >= abs(terms[k - 1]):
            optimal = k - 1
            break
    leading = Fraction(math.factorial(ell)) / t ** (ell + 1)
    return leading - sum(terms[: optimal + 1]), abs(terms[optimal + 1]), optimal


class TestTanhMomentSeries:
    def test_order_zero_closed_form(self):
        # l=0, k=0 term: (1 - 2^-1) B_2 / (0! * 1) = 1/12
        assert series_term(0, 0, Fraction(1)) == Fraction(1, 12)

    def test_optimal_vs_quadrature_t01(self):
        t = Fraction(0.1)  # the binary t a float caller holds
        value, omitted, _ = tanh_moment_series_exact(0, t)
        with mpmath.workdps(30):
            tm = mpmath.mpf(0.1)
            want = mpmath.quad(
                lambda r: 2 * r * mpmath.exp(-tm * r * r) * mpmath.tanh(mpmath.pi * r),
                [0, 1, mpmath.inf],
            )
            got = mpmath.mpf(value.numerator) / value.denominator
            assert abs(got - want) <= mpmath.mpf(omitted.numerator) / omitted.denominator

    def test_leading_term_dominates_small_t(self):
        value, _, _ = tanh_moment_series_exact(2, Fraction(1, 100))
        assert math.isclose(value, 2 * Fraction(1, 100) ** -3, rel_tol=1e-3)

    def test_omitted_magnitudes_shrink_up_to_optimal(self):
        t = Fraction(1, 10)
        _, om_opt, u0 = tanh_moment_series_exact(0, t)
        assert u0 > 5
        assert om_opt == abs(series_term(0, u0 + 1, t))
        # before the optimal index the term magnitudes decrease; crossing
        # it they turn around (that is what defines the optimum)
        om1 = abs(series_term(0, u0 - 1, t))
        om2 = abs(series_term(0, u0, t))
        assert om1 > om2
        assert om_opt >= om2

    def test_integer_pair_terms_equal_chained_formula(self):
        def chained(ell, k, t):
            weight = 1 - Fraction(1, 2 ** (2 * ell + 2 * k + 1))
            return (
                (-1) ** ell * weight * bernoulli(2 * (ell + k + 1)) * t**k
                / (math.factorial(k) * (ell + k + 1))
            )

        for t in TANH_TIMES:
            for ell in range(4):
                _, _, optimal = tanh_moment_series_exact(ell, t)
                terms = itertools.islice(tanh_reference._series_terms(ell, t), optimal + 2)
                for k, (num, den) in enumerate(terms):
                    assert den > 0
                    assert Fraction(num, den) == chained(ell, k, t), (ell, k, t)

    def test_one_denominator_sum_on_verify_pairs(self):
        # value, bound and index are all identical to the Fraction sum's
        for t in TANH_TIMES:
            for ell in range(4):
                assert tanh_moment_series_exact(ell, t) == fraction_series(ell, t), (ell, t)

    def test_one_denominator_sum_on_a_grid(self):
        # a fixed draw over ell 0..5 and t in [1/40, 4]: two rationals,
        # log-uniform, and two binary floats (the t a float caller holds)
        # per ell, plus the binary 0.1
        rng = random.Random(48)
        grid = [(0, Fraction(0.1))]
        for ell in range(6):
            grid += [(ell, Fraction(round(40 * 160 ** rng.random()), 1600)) for _ in range(2)]
            grid += [(ell, Fraction(rng.uniform(0.025, 4.0))) for _ in range(2)]
        for ell, t in grid:
            assert tanh_moment_series_exact(ell, t) == fraction_series(ell, t), (ell, t)

    def test_one_denominator_sum_at_the_cap(self):
        # at t = 1/50 the terms still shrink at k = 400: the scan stops at
        # the cap, and the bound is term 401
        t = Fraction(1, 50)
        got = tanh_moment_series_exact(0, t)
        assert got == fraction_series(0, t)
        assert got[1:] == (abs(series_term(0, 401, t)), 400)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tanh_moment_series_exact(-1, Fraction(1))
        with pytest.raises(ValueError):
            tanh_moment_series_exact(0, Fraction(0))


class TestHyperbolicHeatTerm:
    def test_single_geodesic_closed_form(self, flat_spectrum_2d):
        got = hyperbolic_heat_term(flat_spectrum_2d, 0, 1.0)
        want = (1.0 / math.sqrt(4.0 * math.pi)) * 0.5 * math.exp(-0.5)
        assert math.isclose(got, want, rel_tol=1e-15)
        assert abs(got - 0.08555) < 1e-5

    def test_chi_linearity(self):
        base = GeodesicClass(length=1.0, c_value=0.5)
        scaled = GeodesicClass(length=1.0, c_value=0.5, chi=3.0)
        m1 = ManifoldData(dimension=2, volume=1.0, betti=(1, 0, 1), geodesics=(base,))
        m2 = ManifoldData(dimension=2, volume=1.0, betti=(1, 0, 1), geodesics=(scaled,))
        assert math.isclose(
            3.0 * hyperbolic_heat_term(m1, 0, 0.8),
            hyperbolic_heat_term(m2, 0, 0.8),
            rel_tol=1e-15,
        )

    def test_empty_spectrum_warns(self):
        data = ManifoldData(dimension=2, volume=1.0, betti=(1, 0, 1))
        with pytest.warns(EmptySpectrumWarning):
            assert hyperbolic_heat_term(data, 0, 1.0) == 0.0


class TestGeodesicAmplitudes:
    @staticmethod
    def _mixed():
        # trivial classes with and without a stored c, beside explicit holonomies
        geos = synth_spectrum(seed=3, count=20, min_length=0.5, max_power=3, n=4)
        geos += [
            GeodesicClass(length=1.7, power=3, chi=0.3),
            GeodesicClass(length=1.2, c_value=0.3, holonomy=(1.0, -0.7, 2.5, 0.25)),
            GeodesicClass(length=3.1, c_value=0.01, chi=2.0, holonomy=(1.0, 3.0, 3.0, 1.0)),
        ]
        return ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1), geodesics=tuple(geos))

    @staticmethod
    def _synth(n, c_stored):
        # a synth_spectrum, as drawn or with every c removed
        geos = synth_spectrum(seed=3, count=20, min_length=0.5, max_power=3, n=n)
        if not c_stored:
            geos = [dataclasses.replace(g, c_value=None) for g in geos]
        betti = (1,) + (0,) * (n - 1) + (1,)
        return ManifoldData(dimension=n, volume=1.0, betti=betti, geodesics=tuple(geos))

    @pytest.mark.parametrize("spectrum", ["mixed", "c-stripped"])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_same_bits_as_per_class_characters(self, spectrum, p):
        data = self._mixed() if spectrum == "mixed" else self._synth(4, c_stored=False)
        lengths, amps = heat_zeta._geodesic_amplitudes(data, p)
        assert lengths == [g.length for g in data.geodesics]
        # C and the character from each class's own fields
        want = [
            g.chi / g.power * g.length
            * (trivial_holonomy_c(4, g.length) if g.c_value is None else g.c_value)
            * (float(binomial(3, p)) if g.holonomy is None else g.holonomy[p])
            for g in data.geodesics
        ]
        assert [a.hex() for a in amps] == [a.hex() for a in want]
        if spectrum == "c-stripped":
            # the weights synth_spectrum stores are the ones a c-less class gets
            _, stored = heat_zeta._geodesic_amplitudes(self._synth(4, c_stored=True), p)
            assert [a.hex() for a in amps] == [a.hex() for a in stored]

    def test_sums_build_no_class(self, monkeypatch):
        data = self._mixed()

        def build(*columns):
            raise AssertionError("a GeodesicClass was built")

        monkeypatch.setattr(manifold, "_build", build)
        coexact_trace(data, 2, [0.5, 1.0])
        heat_zeta.zeta_check(data, 1, [0.5])

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_trivial_amplitudes_symmetric_in_order(self, n):
        # C(n-1, p) = C(n-1, n-1-p), so sectors p and n-1-p weigh every class alike
        data = self._synth(n, c_stored=True)
        for p in range(n):
            amps = heat_zeta._geodesic_amplitudes(data, p)[1]
            mirror = heat_zeta._geodesic_amplitudes(data, n - 1 - p)[1]
            assert [a.hex() for a in amps] == [a.hex() for a in mirror]


class TestCoexactTrace:
    def test_p0_assembly(self, flat_spectrum_2d):
        (br,) = coexact_trace(flat_spectrum_2d, 0, [1.0])
        i0 = identity_heat_term(flat_spectrum_2d, 0, 1.0)
        h0 = hyperbolic_heat_term(flat_spectrum_2d, 0, 1.0)
        assert math.isclose(br.identity_part, i0, rel_tol=1e-15)
        assert math.isclose(br.hyperbolic_part, h0, rel_tol=1e-15)
        assert br.betti_part == 1.0  # b_0
        assert math.isclose(br.total, i0 + h0 - 1.0, rel_tol=1e-14)

    def test_p1_telescoping(self, small_spectrum):
        t = 0.9
        (br,) = coexact_trace(small_spectrum, 1, [t])
        i1 = identity_heat_term(small_spectrum, 1, t)
        i0 = identity_heat_term(small_spectrum, 0, t)
        h1 = hyperbolic_heat_term(small_spectrum, 1, t)
        h0 = hyperbolic_heat_term(small_spectrum, 0, t)
        # j=0: I1 + I0 + H1 + H0 - b1;  j=1: -(I0 + I(-1) + H0 + H(-1) - b0)
        want_total = (i1 + i0 + h1 + h0 - 0.0) - (i0 + h0 - 1.0)
        assert math.isclose(br.total, want_total, rel_tol=1e-13)
        assert math.isclose(br.identity_part, i1, rel_tol=1e-13)
        assert br.betti_part == -1.0  # b_1 - b_0

    def test_no_spectrum_identity_only(self):
        data = ManifoldData(dimension=4, volume=1.0, betti=(0, 0, 0, 0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySpectrumWarning)
            (br,) = coexact_trace(data, 1, [1.0])
            assert br.hyperbolic_part == 0.0
            assert br.betti_part == 0.0
            assert br.total == br.identity_part

    def test_breakdown_type(self, small_spectrum):
        (br,) = coexact_trace(small_spectrum, 0, [1.0])
        assert isinstance(br, HeatTraceBreakdown)
        assert br.t == 1.0

    def test_keeps_order_and_duplicates(self, small_spectrum):
        times = (2.0, 0.3, 2.0, 1.0, 0.3)
        got = coexact_trace(small_spectrum, 2, times)
        assert [br.t for br in got] == list(times)
        assert got[0] == got[2] and got[1] == got[4]
        assert got[0] != got[1]

    @pytest.mark.parametrize("chi_one,c_value,chi,part", [
        # chi(1) Vol past the float range; one amplitude past it; two finite
        # parts whose sum is past it.  Each printed inf with exit 0
        (-1e308, 1.0, 1.0, "identity"),
        (1.0, 10.0, 1e308, "hyperbolic"),
        (3e307, 1e154, 2e154, "total"),
    ])
    def test_part_outside_float_range_rejected(self, chi_one, c_value, chi, part):
        geodesic = GeodesicClass(length=0.5, c_value=c_value, chi=chi)
        data = ManifoldData(
            dimension=2, volume=1.0, chi_one=chi_one, betti=(1, 0, 1), geodesics=(geodesic,)
        )
        with pytest.raises(ValueError, match=rf"^heat trace {part} at t=0\.05 is outside"):
            coexact_trace(data, 0, [0.05, 1.0])

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_equals_per_sector_assembly(self, small_spectrum, p):
        # the orbital j-sum telescopes to sector p: its identity and geodesic
        # parts are the sector-p terms to the bit, and the Betti part is the
        # j-loop over b_(p-j)
        times = (0.05, 0.7, 2.5)
        betti = 0.0
        for j in range(p + 1):
            betti += (-1.0 if j % 2 else 1.0) * small_spectrum.betti[p - j]
        for t, br in zip(times, coexact_trace(small_spectrum, p, times)):
            assert br.identity_part.hex() == identity_heat_term(small_spectrum, p, t).hex()
            assert br.hyperbolic_part.hex() == hyperbolic_heat_term(small_spectrum, p, t).hex()
            assert br.betti_part.hex() == betti.hex(), (p, t)

    def test_identity_part_against_mpmath(self, small_spectrum):
        # sector 3 alone is 2.6e-18 off; the sum over sectors 0..3, whose
        # terms cancel, is 3.3e-13 off
        n, p, t = 4, 3, 2.5
        (br,) = coexact_trace(small_spectrum, p, [t])
        with mpmath.workdps(40):
            cs = [mpmath.mpf(c.numerator) / c.denominator for c in miatello_coefficients(2, p)]
            integral = mpmath.quad(
                lambda r: r * mpmath.polyval(cs[::-1], r * r) * mpmath.tanh(mpmath.pi * r)
                * mpmath.exp(-t * r * r),
                [0, 1, 4, mpmath.inf],
            )
            # pi / (2^(4k-4) Gamma(k)^2) * C(n-1, p) * chi(1) Vol / (4 pi), k = 2
            norm = mpmath.pi / 16 * 1 / (4 * mpmath.pi)
            want = norm * 2 * mpmath.exp(-t * (p + mpmath.mpf(n - 1) ** 2 / 4)) * integral
            assert abs((br.identity_part - want) / want) <= 1e-14

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_time_rejected_before_quadrature(self, small_spectrum, monkeypatch, bad):
        import hyperzeta.heat_zeta as hz

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before the times were checked")

        monkeypatch.setattr(hz.quadrature, "plancherel_integral", no_quadrature)
        monkeypatch.setattr(hz.quadrature, "plancherel_integrals", no_quadrature)
        with pytest.raises(ValueError, match="^t must be positive and finite, got "):
            coexact_trace(small_spectrum, 1, [1.0, 0.5, bad])

    def test_empty_spectrum_warns_once_per_call(self):
        data = ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = coexact_trace(data, 3, [0.5, 1.0, 2.0])
        assert [w.category for w in caught] == [EmptySpectrumWarning]
        assert all(br.hyperbolic_part == 0.0 for br in got)


# every function that evaluates one sector of a manifold, called at form order p
SECTOR_ENTRY_POINTS = {
    "identity_heat_term": lambda m, p: identity_heat_term(m, p, 0.7),
    "hyperbolic_heat_term": lambda m, p: hyperbolic_heat_term(m, p, 0.7),
    "coexact_trace": lambda m, p: coexact_trace(m, p, [0.7]),
    "mellin_hyperbolic": lambda m, p: mellin_hyperbolic(m, p, [0.3]),
    "mellin_hyperbolic_quadrature": lambda m, p: mellin_hyperbolic_quadrature(m, p, [0.3]),
    "identity_zeta_term": lambda m, p: identity_zeta_term(m, p),
}

# the geodesic sums over an empty spectrum, with the values they return
EMPTY_SPECTRUM_SUMS = {
    "hyperbolic_heat_term": (lambda m: hyperbolic_heat_term(m, 1, 0.7), 0.0),
    "coexact_trace": (
        lambda m: [br.hyperbolic_part for br in coexact_trace(m, 1, [0.5, 2.0])], [0.0, 0.0]
    ),
    "mellin_hyperbolic": (lambda m: mellin_hyperbolic(m, 1, [0.3, 0.5, 1e-3]), [0.0] * 3),
    "mellin_hyperbolic_quadrature": (
        lambda m: mellin_hyperbolic_quadrature(m, 1, [0.3, 0.5, 1e-3]), [0.0] * 3
    ),
}


def test_identity_heat_term_outside_float_range_rejected():
    # it returned -inf; coexact_trace rejected the same value per row
    data = ManifoldData(dimension=4, volume=1e10, chi_one=-1e308, betti=(1, 0, 0, 0, 1))
    with pytest.raises(
        ValueError, match=r"^heat trace identity at t=0\.5 is outside the float range$"
    ):
        identity_heat_term(data, 0, 0.5)
    # at volume 10 only chi(1) Vol is past the float range: the term, -8.4e307,
    # was rejected too while the product was taken in floats
    data = dataclasses.replace(data, volume=10.0)
    want = mpmath_identity(data, 0, 0.5)
    assert abs(identity_heat_term(data, 0, 0.5) - want) <= 1e-13 * abs(want)


def test_hyperbolic_heat_term_outside_float_range_rejected():
    # it returned inf; coexact_trace rejected the same value per row
    geo = GeodesicClass(length=1.0, c_value=10.0, chi=1e308)
    data = ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1), geodesics=(geo,))
    with pytest.raises(
        ValueError, match=r"^heat trace hyperbolic at t=0\.5 is outside the float range$"
    ):
        hyperbolic_heat_term(data, 0, 0.5)


@pytest.mark.parametrize("chi_one", [-1e308, 1e-310])
def test_identity_zeta_term_outside_float_range_rejected(chi_one):
    # chi(1) = 1e-310 gave the subnormal -8.3e-311; chi(1) = 0 gives 0.0,
    # not the -0.0 that zeta-check printed as -0
    data = ManifoldData(dimension=2, volume=10.0, chi_one=chi_one, betti=(1, 0, 1))
    with pytest.raises(ValueError, match=r"^identity zeta value at s=0 is outside the float range$"):
        identity_zeta_term(data, 0)
    assert repr(identity_zeta_term(dataclasses.replace(data, chi_one=0.0), 0)) == "0.0"


def _forbid_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the manifold and form order were checked")

    for attr in ("plancherel_integral", "plancherel_integrals", "mellin_time_integral",
                 "mellin_time_integrals", "log_integrate", "pairwise_sum"):
        monkeypatch.setattr(heat_zeta.quadrature, attr, no_work)
    for attr in ("_plancherel_norm", "_identity_term", "_geodesic_amplitudes",
                 "_bessel_k_family"):
        monkeypatch.setattr(heat_zeta, attr, no_work)


class TestSectorEntryPoints:
    @pytest.mark.parametrize("p", [-5, -1, 4, 99])
    @pytest.mark.parametrize("name", sorted(SECTOR_ENTRY_POINTS))
    def test_form_order_outside_range_rejected_first(self, small_spectrum, monkeypatch, name, p):
        # n = 4, so the form orders are 0..3
        _forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=rf"^form order p={p} outside 0\.\.3$"):
            SECTOR_ENTRY_POINTS[name](small_spectrum, p)

    @pytest.mark.parametrize("radius", [2.0, 0.5])
    @pytest.mark.parametrize("name", sorted(SECTOR_ENTRY_POINTS))
    def test_non_unit_radius_rejected_first(self, small_spectrum, monkeypatch, name, radius):
        # no term scales with R: each returned its unit-radius value
        _forbid_work(monkeypatch)
        data = dataclasses.replace(small_spectrum, radius=radius)
        with pytest.raises(ValueError, match=rf"^radius must be 1: .*, got {radius!r}$"):
            SECTOR_ENTRY_POINTS[name](data, 1)

    @pytest.mark.parametrize("name", sorted(EMPTY_SPECTRUM_SUMS))
    def test_empty_spectrum_sums_to_zero_with_one_warning_per_call(self, name):
        data = ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1))
        call, want = EMPTY_SPECTRUM_SUMS[name]
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = call(data)
            assert [w.category for w in caught] == [EmptySpectrumWarning]
            assert repr(got) == repr(want)  # positive zeros


class TestBesselK:
    def test_half_order_closed_form(self):
        got = bessel_k(0.5, 1.0)
        want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert math.isclose(got, want, rel_tol=1e-14)
        assert abs(got - 0.461068) < 1e-6

    def test_order_zero(self):
        assert abs(bessel_k(0.0, 1.0) - 0.421024) < 1e-6
        with mpmath.workdps(30):
            want = mpmath.besselk(0, 1)
            assert abs(bessel_k(0.0, 1.0) - want) <= 1e-13 * want

    def test_symmetry_in_order(self):
        for nu in (0.2, 0.5, 1.3, 2.5):
            for z in (0.6, 1.0, 3.0):
                assert math.isclose(bessel_k(-nu, z), bessel_k(nu, z), rel_tol=1e-11)

    def test_against_mpmath_coarse_grid(self):
        with mpmath.workdps(30):
            for nu in (-1.5, -0.5, -0.2, 0.0, 0.3, 0.5, 1.5, 2.5):
                for z in (0.3, 1.0, 2.0, 8.0):
                    want = mpmath.besselk(nu, z)
                    assert abs(bessel_k(nu, z) - want) <= 1e-12 * want, (nu, z)

    def test_nonpositive_z_rejected(self):
        with pytest.raises(ValueError):
            bessel_k(0.5, 0.0)

    def test_against_mpmath_grid(self):
        # large z is where a quadrature that misses the peak goes wrong
        bad = []
        with mpmath.workdps(30):
            for nu in (0.0, 0.2, -0.2, 0.49, -0.49, 0.5, -0.5, 1.0, 1.5, 2.3, -5.7, 6.0, 12.4):
                for z in (1e-3, 0.2, 1.0, 7.0, 30.0, 60.0, 100.0, 300.0, 700.0):
                    want = mpmath.besselk(nu, z)
                    rel = abs((bessel_k(nu, z) - want) / want)
                    if rel > 1e-12:
                        bad.append((nu, z, float(rel)))
        assert not bad


class TestMellinHyperbolic:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_bessel_vs_time_quadrature(self, small_spectrum, s):
        for p in (0, 1):
            [a] = mellin_hyperbolic(small_spectrum, p, [s])
            [b] = mellin_hyperbolic_quadrature(small_spectrum, p, [s])
            assert abs(a - b) <= 1e-8 * abs(b)

    def test_s_half_uses_order_zero(self, flat_spectrum_2d):
        # at s = 1/2 the Bessel order is 0
        [got] = mellin_hyperbolic(flat_spectrum_2d, 0, [0.5])
        alpha = 0.25
        amp = 0.5  # chi/j * t * C = 1 * 1 * 0.5
        with mpmath.workdps(30):
            want = amp / mpmath.sqrt(mpmath.pi) * mpmath.besselk(0, mpmath.sqrt(alpha))
            assert abs(got - want) <= 1e-13 * want

    def test_s_zero_closed_form(self, flat_spectrum_2d):
        [got] = mellin_hyperbolic(flat_spectrum_2d, 0, [0.0])
        alpha = 0.25
        z = math.sqrt(alpha)
        k_half = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
        want = 0.5 / math.sqrt(math.pi) * (2.0 * z) ** 0.5 * k_half
        assert math.isclose(got, want, rel_tol=1e-13)

    @pytest.mark.parametrize("s", [0.3, 0.5])
    def test_high_dimension_against_mpmath(self, s):
        # n = 20 with lengths from 4: Bessel arguments up to about 130
        geos = synth_spectrum(seed=5, count=20, min_length=4.0, max_power=1, n=20)
        data = ManifoldData(
            dimension=20, volume=1.0, betti=(1,) + (0,) * 19 + (1,), geodesics=tuple(geos)
        )
        lengths, amps = heat_zeta._geodesic_amplitudes(data, 0)
        nu = 0.5 - s
        with mpmath.workdps(30):
            sqrt_alpha = mpmath.mpf(19) / 2
            want = mpmath.fsum(
                a / mpmath.sqrt(mpmath.pi) * (2 * sqrt_alpha / l) ** nu
                * mpmath.besselk(nu, l * sqrt_alpha)
                for l, a in zip(lengths, amps)
            )
            [got] = mellin_hyperbolic(data, 0, [s])
            assert abs((got - want) / want) <= 1e-12

    def test_linear_vanishing_toward_s_zero(self, small_spectrum):
        s_values = (1e-2, 1e-3)
        f = {
            s: value / math.gamma(s)
            for s, value in zip(s_values, mellin_hyperbolic(small_spectrum, 0, s_values))
        }
        ratio = f[1e-2] / f[1e-3]
        assert 9.8 <= ratio <= 10.2

    @pytest.mark.parametrize("s", [0.3, 0.0, -1.5])
    def test_bessel_argument_overflow_rejected(self, s):
        # a finite length whose argument t * sqrt(alpha) overflows to inf
        data = ManifoldData(
            dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1),
            geodesics=(GeodesicClass(length=1.5e308, c_value=1.0),),
        )
        with pytest.raises(ValueError, match="z must be positive and finite"):
            mellin_hyperbolic(data, 0, [s])

    def test_prefactor_overflow_rejected(self):
        # order 64.5 is inside MAX_BESSEL_ORDER, but at n = 50 a length of
        # 5e-4 gives (2 sqrt(alpha)/t)^64.5 past the float range, where
        # float ** raised OverflowError
        n = 50
        data = ManifoldData(
            dimension=n, volume=1.0, betti=(1,) + (0,) * (n - 1) + (1,),
            geodesics=(GeodesicClass(length=5e-4), GeodesicClass(length=1.0)),
        )
        with pytest.raises(ValueError, match="prefactor .* overflows at length t=0.0005"):
            mellin_hyperbolic(data, 0, [-64.0])

    @pytest.mark.parametrize("route", [mellin_hyperbolic, mellin_hyperbolic_quadrature])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 65.6, -64.6, 1e6])
    def test_s_outside_bessel_order_bound_rejected_first(self, small_spectrum, monkeypatch,
                                                         route, bad):
        # nan raised a ValueError about integer conversion, +-inf an
        # OverflowError, and the time route reported a QuadratureError
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the s values were checked")

        for attr in ("_geodesic_amplitudes", "_bessel_k_family"):
            monkeypatch.setattr(heat_zeta, attr, no_work)
        monkeypatch.setattr(heat_zeta.quadrature, "mellin_time_integrals", no_work)
        with pytest.raises(ValueError, match=r"^s must be finite with Bessel order "
                           rf"\|1/2 - s\| <= 65, got {re.escape(repr(bad))}$"):
            route(small_spectrum, 1, [0.5, bad])

    @pytest.mark.parametrize("route,s", [
        (mellin_hyperbolic, -40.0),
        (mellin_hyperbolic, -64.0),
        (mellin_hyperbolic_quadrature, -40.0),
        (mellin_hyperbolic_quadrature, -64.0),
    ])
    def test_value_outside_float_range_rejected(self, route, s):
        # one geodesic of length 0.001 at n = 4: the Bessel route returned
        # inf, and the time route's node ended in an OverflowError
        data = ManifoldData(
            dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1),
            geodesics=(GeodesicClass(length=0.001, c_value=1.0),),
        )
        with pytest.raises(ValueError, match=rf"Mellin value at s={s!r} is outside the float"):
            route(data, 0, [0.3, s])

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.sampled_from([0, 1, 3]),
        s_values=st.lists(
            st.sampled_from([-1.5, -0.2, 0.1, 0.3, 0.5, 0.7, 0.9, 1e-3, 2.5]), max_size=6
        ),
    )
    def test_time_route_list_has_the_one_s_bits(self, small_spectrum, p, s_values):
        # a repeated s, and any order: the shared node table changes no bit
        together = mellin_hyperbolic_quadrature(small_spectrum, p, s_values)
        alone = [mellin_hyperbolic_quadrature(small_spectrum, p, [s])[0] for s in s_values]
        assert [v.hex() for v in together] == [v.hex() for v in alone]


def identity_term_sum(n, p, j, alpha):
    """The j-th identity-sector contribution to zeta(0), by the reference per-l route."""
    return sum(reference_identity_terms(n, p, j, alpha), Fraction(0))


class TestZetaIdentityExact:
    def test_n2_example(self):
        assert identity_term_sum(2, 0, 0, Fraction(1, 4)) == Fraction(-1, 3)

    def test_n4_scalar_example(self):
        assert identity_term_sum(4, 0, 0, Fraction(9, 4)) == Fraction(29, 15)

    def test_n4_p1_total(self):
        assert zeta_identity_zero_total(4, 1, Fraction(13, 4)) == Fraction(-67, 10)

    @pytest.mark.parametrize("n,p,alpha", [
        (4, 1, Fraction(13, 4)),
        (10, 4, Fraction(0)),
        (12, 3, Fraction(-17, 5)),
        (30, 14, Fraction(1, 4)),
        (44, 20, Fraction(2001, 97)),
    ])
    def test_total_is_the_sum_over_j(self, n, p, alpha):
        by_j = sum(
            (identity_term_sum(n, p, j, alpha) for j in range(p + 1)), Fraction(0)
        )
        assert zeta_identity_zero_total(n, p, alpha) == by_j

    def test_total_rejects_invalid_indices(self):
        with pytest.raises(ValueError):
            zeta_identity_zero_total(4, 2, Fraction(1))  # middle degree
        with pytest.raises(ValueError):
            zeta_identity_zero_total(4, -1, Fraction(1))
        with pytest.raises(ValueError):
            zeta_identity_zero_total(3, 0, Fraction(1))  # odd n


def fraction_loop_moment(k, q, beta):
    """zeta_moment_sum as a plain Fraction loop over l (the former implementation)."""
    beta = Fraction(beta)
    coeffs = miatello_coefficients(k, q)
    total = Fraction(0)
    for ell in range(k):
        w = Fraction((-1) ** (ell + 1), ell + 1)
        total += coeffs[ell] * w * (_bern_weight(ell) + beta ** (ell + 1))
    return total


@st.composite
def moment_cases(draw):
    k = draw(st.integers(min_value=1, max_value=30))
    q = draw(st.integers(min_value=0, max_value=k - 1))
    beta = draw(
        st.one_of(
            st.sampled_from([Fraction(29, 7), Fraction(-5, 3), Fraction(0)]),
            st.fractions(min_value=-50, max_value=500, max_denominator=99),
        )
    )
    return k, q, beta


class TestMomentSum:
    @settings(max_examples=150, deadline=None)
    @given(moment_cases())
    def test_equals_fraction_loop(self, case):
        assert zeta_moment_sum(*case) == fraction_loop_moment(*case)

    def test_equals_fraction_loop_at_the_cap(self):
        k = MAX_DIMENSION // 2
        for q, beta in ((0, Fraction(29, 7)), (k - 1, k - 1 + Fraction(2 * k - 1, 2) ** 2)):
            assert zeta_moment_sum(k, q, beta) == fraction_loop_moment(k, q, beta)

    def test_parts_share_a_denominator_per_shift_denominator(self):
        k = 9
        shifts = [q + Fraction(2 * k - 1, 2) ** 2 for q in range(k)]
        dens = {
            _moment_parts(k, q, shift.numerator, shift.denominator)[1]
            for q, shift in enumerate(shifts)
        }
        assert len(dens) == 1


class TestMomentBridge:
    CASES = [
        (1, 0, Fraction(1, 4)),
        (2, 0, Fraction(9, 4)),
        (2, 1, Fraction(13, 4)),
        (3, 2, Fraction(29, 4)),
        (5, 4, Fraction(97, 4)),
    ]

    @pytest.mark.parametrize("k,q,beta", CASES)
    def test_continuation_matches_exact_at_s0(self, k, q, beta):
        exact = float(zeta_moment_sum(k, q, beta))
        cont = zeta_moment_continued(k, q, float(beta))
        assert math.isclose(cont, exact, rel_tol=1e-9, abs_tol=1e-12)

    def test_identity_zeta_term_against_exact(self, small_spectrum):
        # volume 1, n=4, p=0: norm * moment functional == exact j=0 value
        # divided by the same normalization used in the exact route
        from hyperzeta.heat_zeta import _plancherel_norm

        got = identity_zeta_term(small_spectrum, 0)
        exact_moment = float(zeta_moment_sum(2, 0, Fraction(9, 4)))
        want = _plancherel_norm(2) * 1.0 * 1.0 / (4.0 * math.pi) * exact_moment
        assert math.isclose(got, want, rel_tol=1e-10)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            zeta_moment_continued(2, 0, 0.0)

    HIGH_K = [(k, q) for k in (5, 15, 27, 50, 75) for q in sorted({0, k // 2, k - 1})]

    @staticmethod
    def elementary(k, q, beta):
        # E = sum_l (-1)^(l+1) a_l beta^(l+1) / (l+1), exactly
        return sum(Fraction(a) * (-beta) ** (l + 1) / (l + 1)
                   for l, a in enumerate(miatello_coefficients(k, q)))

    @pytest.mark.parametrize("k,q", HIGH_K + [(100, 0), (100, 50), (100, 99)])
    def test_fermi_part_against_the_bernoulli_sum(self, k, q):
        # the continuation is E - 4F, and past k = 20 E alone matches the
        # moment sum to the float, so F is graded on its own: F = (E -
        # zeta_moment_sum) / 4 exactly.  Its float node drifted to 2.7e-6
        # at k = 50 and was nan at k = 75.  F is about e^715 at k = 100,
        # so the grade is in logs: |log F - log want| bounds the relative error
        from hyperzeta._kernels import fallback

        beta = q + Fraction(2 * k - 1, 2) ** 2
        want = (self.elementary(k, q, beta) - zeta_moment_sum(k, q, beta)) / 4
        mantissa, _, _, converged, scale = fallback.fermi_integral(miatello_coefficients(k, q))
        assert converged and want > 0
        with mpmath.workdps(30):
            log_want = mpmath.log(want.numerator) - mpmath.log(want.denominator)
            assert abs(mpmath.log(mantissa) + scale - log_want) <= 1e-12

    @pytest.mark.parametrize("k,q", HIGH_K)
    def test_continuation_at_high_k(self, k, q):
        # 3.0e-6 off at k = 25, and QuadratureError from k = 26 on
        beta = q + Fraction(2 * k - 1, 2) ** 2
        want = float(zeta_moment_sum(k, q, beta))
        assert abs(zeta_moment_continued(k, q, beta) - want) <= 1e-15 * abs(want)

    def test_continuation_outside_float_range(self):
        # at k = 100 E is near 1e400; converting a coefficient to float
        # raised OverflowError
        with pytest.raises(ValueError, match=r"^moment continuation \(k=100, q=0\) is outside "
                                             r"the float range$"):
            zeta_moment_continued(100, 0, Fraction(199, 2) ** 2)


class TestQuadratureErrorPath:
    def test_error_carries_estimate(self, small_spectrum, monkeypatch):
        import hyperzeta.heat_zeta as hz

        def fake_kernel(*args, **kwargs):
            return 1.0, 0.5, 12, False, 0.0

        monkeypatch.setattr(hz.quadrature, "plancherel_integral", fake_kernel)
        with pytest.raises(QuadratureError) as err:
            hz.identity_heat_term(small_spectrum, 0, 1.0)
        assert err.value.estimate == 0.5
        # a bad input, so the CLI's one ValueError handler reports it
        assert isinstance(err.value, ValueError)
