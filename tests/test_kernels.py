"""Quadrature kernels against library oracles."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperzeta._kernels import fallback


# one implementation; the "python" id keeps the test names stable
@pytest.fixture(params=[fallback], ids=["python"])
def kernels(request):
    return request.param


PLANCHEREL_CASES = [
    # (coeffs of P in powers of r^2, t) spanning k = 1..4 and a t range
    ((1.0,), 1.0),
    ((0.25, 1.0), 0.5),
    ((0.5625, 2.5, 1.0), 0.05),
    ((2.25, 1.0), 3.0),
    ((9.765625, 22.65625, 14.875, 1.0), 0.2),
]


class TestPlancherelIntegral:
    @pytest.mark.parametrize("coeffs,t", PLANCHEREL_CASES)
    def test_against_mpmath(self, kernels, coeffs, t):
        def integrand(r):
            poly = mpmath.polyval(list(reversed(coeffs)), r * r)
            return r * poly * mpmath.tanh(mpmath.pi * r) * mpmath.exp(-t * r * r)

        mantissa, delta, level, converged, scale = kernels.plancherel_integral(list(coeffs), t)
        assert converged
        with mpmath.workdps(30):
            want = mpmath.quad(integrand, [0, 1, mpmath.inf])
            assert abs(mantissa * math.exp(scale) - want) <= 1e-13 * abs(want)

    def test_reported_delta_is_small(self, kernels):
        mantissa, delta, level, converged, _ = kernels.plancherel_integral([0.25, 1.0], 0.7)
        assert converged and level >= 2
        assert delta <= 1e-14 * mantissa

    @pytest.mark.parametrize("p,t,want", [
        # log of the integral, 40-digit mpmath.quad split at 0, 1, and 1/2,
        # 1, 2 and 4 times sqrt(k/t)
        (0, 1.0, "715.2844918405262313675874"),
        (99, 0.05, "760.9612899493770200681653"),
    ])
    def test_k100_against_mpmath(self, p, t, want):
        # P's coefficients reach 1e315, so float(c) raised OverflowError
        from hyperzeta.plancherel import miatello_coefficients

        coeffs = miatello_coefficients(100, p)
        with pytest.raises(OverflowError):
            float(max(coeffs))
        mantissa, _, _, converged, scale = fallback.plancherel_integral(coeffs, t)
        assert converged
        assert abs(math.log(mantissa) + scale - float(want)) <= 1e-12  # relative, in the value


    @pytest.mark.parametrize("t", [1e-300, 1e-307, 1e-308])
    def test_peak_where_r_squared_nears_the_float_range(self, t):
        # with tanh(pi r) = 1 the integral of r e^(-t r^2) is 1/(2t); the
        # rest is -1/24.  From t = 1e-307 the peak's nodes have r^2 past the
        # float range; they were dropped, and t = 1e-308 came out 0.19 low
        # in the log, not converged
        mantissa, _, _, converged, scale = fallback.plancherel_integral([1.0], t)
        want = 0.5 / t - 1.0 / 24.0
        assert converged and abs(mantissa * math.exp(scale) - want) <= 1e-13 * want

    @pytest.mark.parametrize("t", [1e12, 1e40, 1e100])
    def test_large_t_against_the_small_r_series(self, t):
        # the mass sits at r ~ t^(-1/2), where the node takes log tanh(pi r)
        # from its series: the integral of r tanh(pi r) e^(-t r^2) is the
        # sum over j of tanh's Taylor coefficient c_j pi^j Gamma(j/2 + 1)
        # / (2 t^(j/2 + 1)), to 1e-40 at eight terms
        mantissa, _, _, converged, scale = fallback.plancherel_integral([1.0], t)
        assert converged
        with mpmath.workdps(40):
            tt = mpmath.mpf(t)
            half = [mpmath.mpf(j) / 2 + 1 for j in range(16)]
            want = mpmath.log(sum(
                c * mpmath.pi**j * mpmath.gamma(half[j]) / (2 * tt ** half[j])
                for j, c in enumerate(mpmath.taylor(mpmath.tanh, 0, 15)) if c
            ))
            assert abs(math.log(mantissa) + scale - want) <= 1e-13  # relative, in the value


def _reference_plancherel(coeffs, t):
    # plancherel_integral as one log-node function per call, with no node
    # table: the reference for the node values plancherel_integrals shares
    # across t.  Where r^2 overflows, t r^2 is e^(log t + 2x)
    log_cs = [math.log(c) if isinstance(c, float) else
              math.log(c.numerator) - math.log(c.denominator) for c in coeffs]
    half_pi = math.pi / 2.0

    def log_node(u):
        x = half_pi * math.sinh(u)
        logs = [log_c + 2.0 * l * x for l, log_c in enumerate(log_cs)]
        top = max(logs)
        p_top = math.fsum([math.exp(v - top) for v in logs])
        try:
            r2 = math.exp(x + x)
        except OverflowError:
            r2 = math.inf
        y = math.pi * math.sqrt(r2)
        weight = half_pi * math.cosh(u) * p_top
        if y < 1e-5:
            log_w = math.log(math.pi * weight) + 3.0 * x + top - y * y / 3.0
        else:
            tanh_weight = weight * -math.expm1(-2.0 * y) / (1.0 + math.exp(-2.0 * y))
            log_w = math.log(tanh_weight) + top + x + x
        if r2 < math.inf:
            return log_w - t * r2, 1.0
        try:
            return log_w - math.exp(math.log(t) + x + x), 1.0
        except OverflowError:
            return -math.inf, 1.0

    return fallback.log_integrate(log_node)


def _bits(result):
    # a kernel result with each float as its hex, so equal means same bits
    return tuple(x.hex() if isinstance(x, float) else x for x in result)


class TestPlancherelIntegrals:
    @settings(max_examples=60, deadline=None)
    @given(
        coeff_sets=st.lists(
            st.lists(st.floats(0.01, 30.0), min_size=1, max_size=5), min_size=1, max_size=3
        ),
        times=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4),
    )
    def test_same_bits_as_one_call_each(self, coeff_sets, times):
        for coeffs in coeff_sets:
            integral = fallback.plancherel_integrals(coeffs)
            for t in times:
                want = _bits(_reference_plancherel(coeffs, t))
                assert _bits(integral(t)) == want
                assert _bits(fallback.plancherel_integral(coeffs, t)) == want

    def test_windows_and_levels_differ_per_t(self, monkeypatch):
        # the Plancherel sets of n = 6, p = 0..2, each at t from 1e-300 to
        # 40, so each t has its own scale, window and level.  t = 1e-300,
        # whose integral is past the float range, converges at level 12
        # after about 8,200 new nodes; with the node table cut to 2,000
        # nodes, it and the t after it find the table full
        from hyperzeta.heat_zeta import identity_heat_term
        from hyperzeta.manifold import ManifoldData
        from hyperzeta.plancherel import miatello_coefficients

        coeff_sets = [miatello_coefficients(3, q) for q in range(3)]
        times = (0.05, 40.0, 1e-6, 0.7, 1e-300, 2.5, 0.05, 1e-98)
        windows = []
        integrate = fallback.de_integrate

        def recording(node):
            seen = []

            def wrapped(u):
                seen.append(u)
                return node(u)

            result = integrate(wrapped)
            windows.append((min(seen), max(seen)))
            return result

        monkeypatch.setattr(fallback, "de_integrate", recording)
        monkeypatch.setattr(fallback, "_NODE_TABLE_SIZE", 2000)
        got = []
        for coeffs in coeff_sets:
            integral = fallback.plancherel_integrals(coeffs)
            got.append([integral(t) for t in times])
        monkeypatch.undo()
        levels = set()
        for coeffs, row in zip(coeff_sets, got):
            for t, result in zip(times, row):
                assert _bits(result) == _bits(_reference_plancherel(coeffs, t)), t
                levels.add(result[2])
        assert len(set(windows)) >= 4 and len(levels) >= 4
        assert all(result[3] for row in got for result in row)
        assert min(row[4][4] for row in got) > 700.0
        data = ManifoldData(dimension=6, volume=1.0, betti=(1, 0, 0, 0, 0, 0, 1))
        for p in range(3):
            with pytest.raises(ValueError, match=r"t=1e-300 is outside the float range$"):
                identity_heat_term(data, p, 1e-300)


class TestLogIntegrate:
    @staticmethod
    def scan_and_result(log_node):
        # (the log-nodes of log_integrate's level-0 scan, its result): the
        # scan is every call before de_integrate starts
        calls, integrate = [], fallback.de_integrate

        def recorded(u):
            calls.append(u)
            return log_node(u)

        def marking(node):
            calls.append(None)
            return integrate(node)

        fallback.de_integrate = marking
        try:
            result = fallback.log_integrate(recorded)
        finally:
            fallback.de_integrate = integrate
        return calls[:calls.index(None)], result

    @pytest.mark.parametrize("c", [-2000.0, 0.0, 1500.0])
    def test_far_peak_at_any_scale(self, c):
        # e^(c - 3 (u - 7)^2): at c = -2000 every node is 0.0 as a float.
        # Up, the scan stops three nodes past the last one within 2^-54 of
        # the peak (u = 10.5); down, at once
        scan, (mantissa, _, _, converged, scale) = self.scan_and_result(
            lambda u: (c - 3.0 * (u - 7.0) ** 2, 1.0)
        )
        assert scan == [0.5 * j for j in range(25)] + [-0.5, -1.0, -1.5]
        assert converged and scale == c
        assert abs(math.log(mantissa) - 0.5 * math.log(math.pi / 3.0)) <= 1e-13

    def test_narrow_peak_past_two_low_nodes(self):
        # a spike at u = 0, two nodes below 2^-54 of it, then a peak e^800
        # higher at u = 1.5: a scan that stopped at two low nodes took the
        # spike as the scale, and the peak's nodes overflowed
        w = 4000.0

        def log_node(u):
            return max(-200.0 * u * u, 800.0 - w * (u - 1.5) ** 2), 1.0

        scan, (mantissa, _, _, converged, scale) = self.scan_and_result(log_node)
        assert scan[:4] == [0.0, 0.5, 1.0, 1.5] and scale == 800.0
        assert converged
        assert abs(math.log(mantissa) - 0.5 * math.log(math.pi / w)) <= 1e-13

    @pytest.mark.parametrize("c", [-1000.0, 0.0, 1000.0])
    def test_signed_nodes(self, c):
        # (u - 1) e^(c - u^2), whose integral is -sqrt(pi) e^c: the sign
        # rides beside the log, and the zero at u = 1 has log -inf.  A
        # log-node near 1000 carries an absolute rounding near 1e-13
        def log_node(u):
            return c - u * u + (math.log(abs(u - 1.0)) if u != 1.0 else -math.inf), \
                math.copysign(1.0, u - 1.0)

        mantissa, _, _, converged, scale = fallback.log_integrate(log_node)
        got = mantissa * math.exp(scale - c)
        assert converged and abs(got + math.sqrt(math.pi)) <= 1e-13 * math.sqrt(math.pi)


class TestDeIntegrate:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_estimate_stops_unconverged(self, bad):
        # one level-1 node is not finite; level 2 could only add to it
        seen = []

        def node(u):
            seen.append(u)
            return bad if u == 0.25 else math.exp(-u * u)

        value, delta, level, converged = fallback.de_integrate(node)
        assert not math.isfinite(value) and not converged and level == 1
        assert all((4 * u).is_integer() for u in seen)

    def test_non_finite_level_zero_stops_there(self):
        value, delta, level, converged = fallback.de_integrate(
            lambda u: math.inf if u == 0.0 else math.exp(-u * u)
        )
        assert (value, delta, level, converged) == (math.inf, math.inf, 0, False)

    def test_integrand_below_old_absolute_floor(self):
        # the scan once stopped at nodes below 1e-300 in absolute value, so
        # this returned 1.7354e-305 (2.1% low) as converged
        value, _, _, converged = fallback.de_integrate(lambda u: 1e-305 * math.exp(-u * u))
        want = 1e-305 * math.sqrt(math.pi)
        assert converged and abs(value - want) <= 1e-15 * want

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        c=st.floats(0.5, 2.0), b=st.floats(0.3, 4.0), m=st.floats(-2.0, 2.0),
        d=st.floats(0.0, 1.0), pick=st.floats(0.0, 1.0),
    )
    def test_power_of_two_scale_is_exact(self, c, b, m, d, pick):
        # the window is relative, so 2^k f has f's window, nodes and levels,
        # for every k that keeps the window's nodes normal
        def f(u):
            return c * (1.0 + d * u * u) * math.exp(-b * (u - m) ** 2)

        seen = []

        def recorded(u):
            v = f(u)
            seen.append((u, v))
            return v

        value, delta, level, converged = fallback.de_integrate(recorded)
        assert converged
        # deeper levels visit the odd multiples of 0.25 inside the window only
        deeper = [u for u, _ in seen if (2.0 * u) % 1.0]
        lo, hi = min(deeper) - 0.25, max(deeper) + 0.25
        window = [abs(v) for u, v in seen if lo <= u <= hi]
        assert min(window) > 0.0
        # every node and the sums of up to 2^16 of them stay normal
        k_lo = -1022 - math.frexp(min(window))[1] + 1
        k_hi = 1024 - 17 - math.frexp(max(window))[1]
        for k in (k_lo, k_hi, round(k_lo + pick * (k_hi - k_lo))):
            scale = math.ldexp(1.0, k)
            got = fallback.de_integrate(lambda u: scale * f(u))
            assert got == (scale * value, scale * delta, level, converged), k

    def test_scale_free(self):
        # the exp-sinh image of integral_0^inf e^-r dr = 1, times c: an
        # absolute tolerance once let c <= 1e-12 converge at level 1, at
        # 0.99999275 c
        def node(u):
            x = 0.5 * math.pi * math.sinh(u)
            if x > 700.0:
                return 0.0
            r = math.exp(x)
            return c * 0.5 * math.pi * math.cosh(u) * r * math.exp(-r)

        levels = set()
        for c in (1e-300, 1e-200, 1e-20, 1e-12, 1.0, 1e200):
            value, _, level, converged = fallback.de_integrate(node)
            assert converged and abs(value - c) <= 1e-15 * c, c
            levels.add(level)
        assert len(levels) == 1

    def test_plancherel_integral_past_the_float_range(self):
        # about 1e300 at n = 6, t = 1e-100: the float node overflowed, and it
        # returned (inf, inf, 5, True) while inf <= rel_tol * inf, then
        # (inf, inf, 5, False).  The reference: with tanh(pi r) = 1 the
        # integral is the sum of a_j j! / (2 t^(j+1)); the rest is minus
        # twice the integral of r P(r^2) e^(-t r^2) / (1 + e^(2 pi r)), in
        # which e^(-t r^2) is 1 to 1e-98
        from hyperzeta.plancherel import miatello_coefficients

        coeffs = miatello_coefficients(3, 0)
        t = 1e-100
        mantissa, delta, level, converged, scale = fallback.plancherel_integral(coeffs, t)
        assert converged
        with mpmath.workdps(40):
            a = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]
            tt = mpmath.mpf(t)
            tanh_one = sum(c * mpmath.factorial(j) / (2 * tt ** (j + 1)) for j, c in enumerate(a))
            rest = 2 * mpmath.quad(
                lambda r: r * mpmath.polyval(a[::-1], r * r) / (1 + mpmath.exp(2 * mpmath.pi * r)),
                [0, mpmath.inf],
            )
            want = mpmath.log(tanh_one - rest)
            assert 690 < want < 691
            assert abs(math.log(mantissa) + scale - want) <= 1e-12  # relative, in the value


class TestMellinTimeIntegral:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_single_length_against_mpmath(self, kernels, s):
        l, alpha, amp = 1.7, 2.25, 0.9

        def integrand(t):
            return amp * t ** (s - 1.5) * mpmath.exp(-alpha * t - l * l / (4 * t))

        value, delta, level, converged = kernels.mellin_time_integral([l], [amp], alpha, s)
        assert converged
        with mpmath.workdps(30):
            want = mpmath.quad(integrand, [0, 1, mpmath.inf])
            assert abs(value - want) <= 1e-13 * abs(want)

    def test_multiple_lengths_additive(self, kernels):
        ls = [1.0, 2.0, 3.5]
        amps = [0.5, -0.25, 1.5]
        total = kernels.mellin_time_integral(ls, amps, 2.25, 0.4)[0]
        parts = sum(
            kernels.mellin_time_integral([l], [a], 2.25, 0.4)[0]
            for l, a in zip(ls, amps)
        )
        assert math.isclose(total, parts, rel_tol=1e-12)

    def test_unsorted_lengths_rejected(self, kernels):
        # the geodesic loop stops at the first underflowing term, which is
        # only right when the lengths ascend
        with pytest.raises(ValueError):
            kernels.mellin_time_integral([2.0, 1.0], [1.0, 1.0], 2.25, 0.5)

    def test_empty_spectrum(self, kernels):
        value, delta, level, converged = kernels.mellin_time_integral([], [], 2.25, 0.5)
        assert value == 0.0 and converged

    def test_s_zero_closed_form(self, kernels):
        # s=0 reduces to the K_{1/2} Gaussian-type integral with the closed
        # form integral = 2 sqrt(pi) e^{-l sqrt(alpha)} / l
        l, alpha = 2.0, 4.0
        value = kernels.mellin_time_integral([l], [1.0], alpha, 0.0)[0]
        want = 2.0 * math.sqrt(math.pi) * math.exp(-l * math.sqrt(alpha)) / l
        assert math.isclose(value, want, rel_tol=1e-12)


MELLIN_S_GRID = (-1.5, -0.7, 0.1, 0.3, 0.5, 0.77, 0.9, 1.6, 2.5)
# integer s, where elementary_time_route is a reference that shares no
# code with the route
ELEMENTARY_S = (-3, -1, 0, 1, 2)


def _signed_spectrum(seed):
    rng = random.Random(seed)
    lengths = sorted(rng.uniform(0.5, 6.0) for _ in range(rng.randint(1, 40)))
    amps = [rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 2.0) for _ in lengths]
    return lengths, amps, rng.uniform(0.25, 30.0)


class TestMellinTimeIntegrals:
    def test_snapshot_spectra_against_the_elementary_sum(self):
        from hyperzeta import heat_zeta
        from test_mellin_time_snapshot import FORMS, _spectra, elementary_time_route

        for name, data in _spectra().items():
            for p in FORMS:
                _, alpha = heat_zeta._sector(data, p)
                lengths, amps = heat_zeta._geodesic_amplitudes(data, p)
                integral = fallback.mellin_time_integrals(lengths, amps, alpha)
                for s in ELEMENTARY_S:
                    value, _, _, converged = integral(s)
                    want = elementary_time_route(lengths, amps, alpha, s)
                    assert converged and abs(value - want) <= 1e-14 * abs(want), (name, p, s)

    @pytest.mark.parametrize("seed", range(8))
    def test_signed_amplitudes_against_the_elementary_sum(self, seed):
        from test_mellin_time_snapshot import elementary_time_route

        lengths, amps, alpha = _signed_spectrum(seed)
        integral = fallback.mellin_time_integrals(lengths, amps, alpha)
        for s in ELEMENTARY_S:
            value, _, _, converged = integral(s)
            want = elementary_time_route(lengths, amps, alpha, s)
            assert converged and abs(value - want) <= 1e-14 * abs(want), s

    def test_one_s_call_has_the_shared_bits(self):
        lengths, amps, alpha = _signed_spectrum(3)
        integral = fallback.mellin_time_integrals(lengths, amps, alpha)
        shared = [_bits(integral(s)) for s in MELLIN_S_GRID[::-1]][::-1]
        alone = [
            _bits(fallback.mellin_time_integral(lengths, amps, alpha, s)) for s in MELLIN_S_GRID
        ]
        assert shared == alone

    @pytest.mark.parametrize("n", [20, 40, 60, 100, 160, 200])
    def test_one_geodesic_at_high_n_against_mpmath(self, n):
        # the window starts at the integrand's peak, not at u = 0: at
        # n = 160 that is near u = -4.2, where u = 0, -0.5 and -1 are 0.0,
        # and the route once returned 0.0 as converged
        from test_mellin_time_snapshot import mpmath_time_route

        for length in (1.0, 4.0):
            for p in (0, n // 2 - 1):
                alpha = p + ((n - 1) / 2) ** 2
                for s in (0.5, -20.0, 30.0):
                    value, _, _, converged = fallback.mellin_time_integral(
                        [length], [1.0], alpha, s
                    )
                    want = mpmath_time_route([length], [1.0], alpha, s)
                    assert converged and abs(value - want) <= 1e-12 * abs(want), (length, p, s)

    @pytest.mark.parametrize("lengths,amps", [
        ([1.0, 20.0], [1e-20, 1.0]),
        ([0.5, 40.0], [1e-40, 1.0]),
        ([1.0, 5.0, 60.0], [1e-200, 1e-50, 1.0]),
        ([2.0, 25.0, 25.0, 25.0], [1e-15, 1.0, 2.0, 3.0]),
        ([1.0, 10.0], [0.0, 1.0]),
        ([0.1, 60.0], [0.0, 1.0]),
        ([0.1, 0.1, 3.0, 60.0], [0.0, 0.0, 0.0, 1.0]),
    ])
    def test_weight_on_long_classes_right_or_not_converged(self, lengths, amps):
        # the anchor is the peak of the shortest class of nonzero amplitude;
        # a spectrum whose weight sits on longer classes peaks further right.
        # Each value is within 1e-12 of mpmath, or reported as not converged
        # (mellin_hyperbolic_quadrature then raises); never a quiet 0.0
        from test_mellin_time_snapshot import mpmath_time_route

        checked = 0
        for alpha in (2.25, 90.25, 1600.0):
            integral = fallback.mellin_time_integrals(lengths, amps, alpha)
            for s in (0.5, -20.0, 30.0):
                value, _, _, converged = integral(s)
                want = mpmath_time_route(lengths, amps, alpha, s)
                if converged:
                    assert abs(value - want) <= 1e-12 * abs(want), (alpha, s, value, want)
                    checked += want != 0.0
        assert checked

    def test_amplitudes_below_old_absolute_floor(self):
        # every node is below 1e-300, which the scan once took as the end of
        # the window: 5.426e-303, not converged at level 12
        value, _, _, converged = fallback.mellin_time_integral(
            [1.0, 2.0], [1e-302, 2e-302], 2.25, 0.5
        )
        want = 1e-302 * 0.5665691428401685  # the same spectrum at unit amplitude
        assert converged and abs(value - want) <= 1e-15 * want

    def test_late_dominant_class_against_mpmath(self):
        # the anchor is the short class's peak; the long one's bump, about
        # 1e40 times higher at alpha 2.25, lies 6.4 (13 level-0 steps) to the
        # right.  The scan must not stop before it on the short class's tail
        from test_mellin_time_snapshot import mpmath_time_route

        lengths, amps = [0.1, 60.0], [1.0, 1e80]
        for alpha in (2.25, 90.25, 1600.0):
            integral = fallback.mellin_time_integrals(lengths, amps, alpha)
            for s in (0.5, -20.0, 30.0, 2.5, -1.5):
                value, _, _, converged = integral(s)
                want = mpmath_time_route(lengths, amps, alpha, s)
                assert converged and abs(value - want) <= 1e-12 * abs(want), (alpha, s)

    def test_anchor_amplitude_near_float_floor_against_mpmath(self):
        # the anchored short class's nodes, about 1e-44 x 1e-300, underflowed
        # to 0.0 as floats, so the window ended before the long class's
        # mass and the route returned 0.0 as converged
        from test_mellin_time_snapshot import mpmath_time_route

        lengths, amps, alpha, s = [0.1, 60.0], [1e-300, 1.0], 2.25, 30.0
        value, _, _, converged = fallback.mellin_time_integrals(lengths, amps, alpha)(s)
        want = mpmath_time_route(lengths, amps, alpha, s)  # about 6.106
        assert converged and abs(value - want) <= 1e-12 * abs(want), (value, want)

    @pytest.mark.parametrize("s", [-40.0, -64.0])
    def test_exponent_past_float_range_against_mpmath(self, s):
        # the geodesic's exponent peaks near 1,190 at s = -64, so its float
        # node overflowed (inf, not converged); the amplitude 1e-300 brings
        # the value back into the float range.  The log-nodes near 700
        # carry an absolute rounding near 1e-13
        from test_mellin_time_snapshot import mpmath_time_route

        value, _, _, converged = fallback.mellin_time_integral([0.001], [1e-300], 2.25, s)
        want = mpmath_time_route([0.001], [1e-300], 2.25, s)
        assert converged and abs(value - want) <= 5e-14 * want


class TestBesselKIntegral:
    @pytest.mark.parametrize(
        "nu,z",
        [(0.0, 1.0), (0.5, 1.0), (-0.3, 2.0), (0.2, 0.7), (1.5, 3.0), (0.49, 6.0)],
    )
    def test_against_mpmath_besselk(self, kernels, nu, z):
        value = kernels.bessel_k_integral(nu, z)[0]
        with mpmath.workdps(30):
            nu, z = mpmath.mpf(nu), mpmath.mpf(z)
            want = mpmath.besselk(nu, z) * 2 ** (nu + 1) * z ** (-nu)
            assert abs(value - want) <= 1e-12 * want

    @pytest.mark.parametrize("z", [30.0, 40.0, 100.0, 116.0, 200.0, 500.0])
    @pytest.mark.parametrize("nu", [0.2, 1.5])
    def test_large_z_against_mpmath_besselk(self, kernels, nu, z):
        # the value, about e^-z, was below the engine's former absolute
        # tolerance 1e-12, so level 1 counted as converged: up to 7.2e-2 off.
        # From z = 116 the scan from the peak-blind origin u = 0 saw only
        # 0.0 nodes and returned 0.0 as converged
        value, _, _, converged = kernels.bessel_k_integral(nu, z)
        with mpmath.workdps(30):
            nu, z = mpmath.mpf(nu), mpmath.mpf(z)
            want = mpmath.besselk(nu, z) * 2 ** (nu + 1) * z ** (-nu)
            assert converged and abs(value - want) <= 1e-14 * want

    def test_symmetry_through_scaling(self, kernels):
        # K_nu = K_{-nu}: the scale-free integrals differ by (z/2)^{2 nu}
        nu, z = 0.35, 1.4
        a = kernels.bessel_k_integral(nu, z)[0]
        b = kernels.bessel_k_integral(-nu, z)[0]
        assert math.isclose(a * (z / 2.0) ** (2 * nu), b, rel_tol=1e-12)


def _recursive_tree_sum(vals, lo, hi):
    # the tree as first written, recursively: the reference for pairwise_sum
    if hi - lo <= 8:
        acc = 0.0
        for i in range(lo, hi):
            acc += vals[i]
        return acc
    mid = (lo + hi) // 2
    return _recursive_tree_sum(vals, lo, mid) + _recursive_tree_sum(vals, mid, hi)


# Mixed signs at one scale per list, scales from 1e-300 to 1e300.  Within
# a list the magnitudes span four decades, so the grouping of the additions
# shows in the last bits; a few huge values would swamp every other term.
def _summands(scale):
    return st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** (scale + exponent),
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.999),
        st.integers(0, 3),
    )


def _seeded_summands(n, seed):
    rng = random.Random(seed)
    scale = rng.randint(-300, 296)
    return [
        rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 9.999) * 10.0 ** (scale + rng.randint(0, 3))
        for _ in range(n)
    ]


class TestPairwise:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.integers(-300, 296).flatmap(lambda scale: st.lists(_summands(scale), max_size=5000)),
        st.builds(_seeded_summands, st.sampled_from([1, 8, 9, 16, 17, 6000]),
                  st.integers(0, 2**32 - 1)),
    ))
    def test_same_bits_as_the_recursive_tree(self, vals):
        want = _recursive_tree_sum(vals, 0, len(vals))
        assert fallback.pairwise_sum(vals).hex() == want.hex()

    def test_every_length_up_to_2100(self):
        # each tree shape, including blocks of 8 beside 9s that split once more
        vals = _seeded_summands(2100, 3)
        for n in range(2101):
            got = fallback.pairwise_sum(vals[:n])
            assert got.hex() == _recursive_tree_sum(vals, 0, n).hex(), n


class TestWindowWork:
    """The relative window bounds the work of the kernels that run on it."""

    def test_time_route_geodesic_sums(self, monkeypatch):
        # the window once ran out to nodes 1e-300 below the peak: 111 sums
        # at p = 0 and 107 at p = 1; the relative window makes 69 of each
        from hyperzeta import heat_zeta
        from test_mellin_time_snapshot import _spectra

        data = _spectra()["synth_1500_n4"]
        calls = []
        geodesic_sum = fallback.geodesic_sum

        def counting(blocks, eb):
            calls.append(eb)
            return geodesic_sum(blocks, eb)

        monkeypatch.setattr(fallback, "geodesic_sum", counting)
        for p in (0, 1):
            calls.clear()
            heat_zeta.mellin_hyperbolic_quadrature(data, p, [0.3, 0.5, 0.7])
            assert len(calls) <= 75, (p, len(calls))

    def test_plancherel_nodes(self, monkeypatch):
        # a 10-t heat-trace call at n = 6, p = 2: 3,738 node visits with the
        # absolute window, 2,162 with the relative one
        from hyperzeta.plancherel import miatello_coefficients

        visits = []
        integrate = fallback.de_integrate

        def counting(node):
            def wrapped(u):
                visits.append(u)
                return node(u)

            return integrate(wrapped)

        monkeypatch.setattr(fallback, "de_integrate", counting)
        entries = []
        sinh = math.sinh
        monkeypatch.setattr(math, "sinh", lambda u: entries.append(u) or sinh(u))
        integral = fallback.plancherel_integrals(miatello_coefficients(3, 2))
        for i in range(10):
            assert integral(0.05 + i * (2.45 / 9))[3]
        assert len(visits) <= 2400
        # each node's t-free values are computed once and shared by every
        # t: 325 distinct nodes
        assert len(entries) == len(set(entries)) <= 400
