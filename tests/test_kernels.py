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

        value, delta, level, converged = kernels.plancherel_integral(list(coeffs), t)
        assert converged
        with mpmath.workdps(30):
            want = mpmath.quad(integrand, [0, 1, mpmath.inf])
            assert abs(value - want) <= 1e-13 * abs(want)

    def test_reported_delta_is_small(self, kernels):
        value, delta, level, converged = kernels.plancherel_integral([0.25, 1.0], 0.7)
        assert converged and level >= 2
        assert delta <= max(1e-12, 1e-14 * abs(value))


def _reference_plancherel(coeffs, t):
    # plancherel_integral as first written, one node function per call: the
    # reference for the node values plancherel_integrals shares across t
    cs = [float(c) for c in coeffs]
    ncoef = len(cs)
    half_pi = math.pi / 2.0

    def node(u):
        x = half_pi * math.sinh(u)
        two_x = 2.0 * x
        if two_x > 700.0:
            return 0.0
        r2 = math.exp(two_x)
        e_arg = t * r2
        if e_arg - 2.0 * ncoef * x - abs(u) > 720.0:
            return 0.0
        p_val = 0.0
        for c in reversed(cs):
            p_val = p_val * r2 + c
        r = math.exp(x)
        return half_pi * math.cosh(u) * r2 * p_val * fallback._tanh_pi_pos(r) * math.exp(-e_arg)

    return fallback.de_integrate(node)


def _bits(result):
    value, delta, level, converged = result
    return value.hex(), delta.hex(), level, converged


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
        # the Plancherel sets of n = 6, p = 0..2, each at t from 1e-98 to 40,
        # so each t has its own window and level; t = 1e-300 overflows
        # without converging, and t = 1e-98 converges at level 10 after
        # about 22,500 nodes, past the size of the node table
        from hyperzeta.plancherel import miatello_coefficients

        coeff_sets = [miatello_coefficients(3, q) for q in range(3)]
        times = (0.05, 40.0, 1e-6, 0.7, 1e-300, 2.5, 0.05, 1e-98)
        windows = []
        integrate = fallback.de_integrate

        def recording(node, *args):
            seen = []

            def wrapped(u):
                seen.append(u)
                return node(u)

            result = integrate(wrapped, *args)
            windows.append((min(seen), max(seen)))
            return result

        monkeypatch.setattr(fallback, "de_integrate", recording)
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
        assert not any(row[4][3] for row in got)


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

        value, delta, level, converged = fallback.de_integrate(recorded, 0.0)
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
            got = fallback.de_integrate(lambda u: scale * f(u), 0.0)
            assert got == (scale * value, scale * delta, level, converged), k

    def test_overflowing_plancherel_integral_not_converged(self):
        # it returned (inf, inf, 5, True): inf <= max(abs_tol, rel_tol * inf)
        from hyperzeta.plancherel import miatello_coefficients

        value, delta, level, converged = fallback.plancherel_integral(
            miatello_coefficients(3, 0), 1e-100
        )
        assert (value, level, converged) == (math.inf, 5, False)


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


def _reference_mellin_time(lengths, amps, alpha, s):
    # the time-route node as first written: every node sums every geodesic
    # term at its own exponent, for one s.  The reference for
    # mellin_time_integrals, which factors out the shortest geodesic's
    # exponent and shares the s-free sum across s.  It runs on the same
    # window, anchored at the peak of the shortest class of nonzero
    # amplitude, and converges on relative change alone, as that does
    quarters = [0.25 * l * l for l in lengths]
    su = s - 0.5
    k = next((i for i, a in enumerate(amps) if a), 0)
    u0 = math.log(0.5 * lengths[k] / math.sqrt(alpha))

    def node(v):
        u = v + u0
        if u > 690.0 or u < -690.0:
            return 0.0
        eb = math.exp(-u)
        base = su * u - alpha * math.exp(u)
        acc = 0.0
        for q, amp in zip(quarters, amps):
            e_arg = base - q * eb
            if e_arg <= -745.0:
                break
            acc += amp * math.exp(e_arg)
        return acc

    return fallback.de_integrate(node, 0.0)


MELLIN_S_GRID = (-1.5, -0.7, 0.1, 0.3, 0.5, 0.77, 0.9, 1.6, 2.5)


def _signed_spectrum(seed):
    rng = random.Random(seed)
    lengths = sorted(rng.uniform(0.5, 6.0) for _ in range(rng.randint(1, 40)))
    amps = [rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 2.0) for _ in lengths]
    return lengths, amps, rng.uniform(0.25, 30.0)


class TestMellinTimeIntegrals:
    def test_matches_per_term_loop_on_snapshot_spectra(self):
        from hyperzeta import heat_zeta
        from test_mellin_time_snapshot import FORMS, _spectra

        for name, data in _spectra().items():
            for p in FORMS:
                _, alpha = heat_zeta._sector(data, p)
                lengths, amps = heat_zeta._geodesic_amplitudes(data, p)
                integral = fallback.mellin_time_integrals(lengths, amps, alpha)
                for s in MELLIN_S_GRID:
                    got = integral(s)
                    want = _reference_mellin_time(lengths, amps, alpha, s)
                    assert got[3] and want[3], (name, p, s)
                    assert abs(got[0] - want[0]) <= 1e-14 * abs(want[0]), (name, p, s)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_term_loop_on_signed_amplitudes(self, seed):
        lengths, amps, alpha = _signed_spectrum(seed)
        integral = fallback.mellin_time_integrals(lengths, amps, alpha)
        for s in MELLIN_S_GRID:
            got = integral(s)
            want = _reference_mellin_time(lengths, amps, alpha, s)
            assert got[3] and want[3], s
            assert abs(got[0] - want[0]) <= 1e-14 * abs(want[0]), s

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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 19: the anchored short class's nodes, about 1e-44 x 1e-300, "
        "underflow to 0.0, so the window ends before the long class's mass and "
        "the route returns 0.0 as converged"
    ))
    def test_anchor_amplitude_near_float_floor_right_or_not_converged(self):
        from test_mellin_time_snapshot import mpmath_time_route

        lengths, amps, alpha, s = [0.1, 60.0], [1e-300, 1.0], 2.25, 30.0
        value, _, _, converged = fallback.mellin_time_integrals(lengths, amps, alpha)(s)
        want = mpmath_time_route(lengths, amps, alpha, s)  # about 6.106
        assert not converged or abs(value - want) <= 1e-12 * abs(want), (value, want)

    @pytest.mark.parametrize("s", [-40.0, -64.0])
    def test_exponent_past_float_range_not_converged(self, s):
        # the geodesic's exponent peaks near 1,190 at s = -64: the node is
        # inf instead of an OverflowError from math.exp.  The tiny amplitude
        # keeps every node whose exponent is in range far from overflow
        value, delta, level, converged = fallback.mellin_time_integral(
            [0.001], [1e-300], 2.25, s
        )
        assert value == math.inf and not converged


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

        def counting(node, *args):
            def wrapped(u):
                visits.append(u)
                return node(u)

            return integrate(wrapped, *args)

        monkeypatch.setattr(fallback, "de_integrate", counting)
        integral = fallback.plancherel_integrals(miatello_coefficients(3, 2))
        for i in range(10):
            assert integral(0.05 + i * (2.45 / 9))[3]
        assert len(visits) <= 2400
