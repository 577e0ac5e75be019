"""The stop rule of the geodesic sums, and the bound it reports.

The heat sum (``heat_zeta._hyperbolic_sum``), the Bessel route
(``heat_zeta._bessel_sums``) and the time route's node sum
(``fallback.geodesic_sum``) add the length-sorted classes in blocks of
``fallback.CUT_BLOCK``, which ``fallback.cut_blocks`` builds once per call.
Before a block they stop once S_K (the rounded-up
suffix sum of |amplitude|) times class K's own factor is at most 2^-54 of
the partial sum.  Each returns the sum, that bound (0.0 when every class
is in) and the number of classes in the sum.  For every cut sum checked
here:

* the kept terms are summed as before the cut existed: the pairwise tree
  for the heat and Bessel sums, in order for the node sum;
* the terms left out add up in magnitude to at most the reported bound;
* the kept terms, summed exactly, are within the bound plus 2 ulp of
  ``math.fsum`` over every term.

The node sum also keeps every bit of the in-order sum over all terms,
because each term it leaves out is below half an ulp of the sum.
"""

import functools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperzeta import heat_zeta
from hyperzeta._kernels import fallback
from hyperzeta.cli import main
from hyperzeta.heat_zeta import mellin_hyperbolic
from hyperzeta.manifold import GeodesicClass, ManifoldData, save_manifold, synth_spectrum

pytestmark = pytest.mark.filterwarnings("ignore:geodesic sum over empty spectrum")

# The bound holds for the exact terms; each float term and the float bound
# carry a few roundings of their own, far below this share of the bound.
_ROUNDING = 1e-12


def _manifold(n, geodesics):
    return ManifoldData(
        dimension=n, volume=1.0, betti=(1,) + (0,) * (n - 1) + (1,),
        geodesics=tuple(sorted(geodesics, key=lambda g: g.length)),
    )


def _bench_shaped(n):
    # the benchmark's spectra: 2000 primitives with 3 iterates each
    return _manifold(n, synth_spectrum(seed=2024, count=2000, min_length=1.0, max_power=3, n=n))


def _signed():
    # negative chi and mixed-sign holonomy characters.  The first two blocks
    # are pairs of one length with opposite chi, so the partial sum is
    # exactly 0.0 after each of them and the cut cannot fire there; the
    # classes after them carry the whole sum, the largest amplitude last.
    rng = random.Random(5)
    geos = []
    for i in range(fallback.CUT_BLOCK):
        length = 1.0 + i / fallback.CUT_BLOCK
        geos += [GeodesicClass(length=length), GeodesicClass(length=length, chi=-1.0)]
    for i in range(fallback.CUT_BLOCK + 17):
        geos.append(GeodesicClass(
            length=3.0 + 0.05 * i, c_value=0.02, chi=rng.choice((-1.0, 2.0)),
            holonomy=tuple(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0) for _ in range(4)),
        ))
    geos.append(GeodesicClass(length=9.0, c_value=1.0, chi=-3.0, holonomy=(1.0, -4.0, 6.0, -4.0)))
    return _manifold(4, geos)


SPECTRA = {
    "bench_n6": lambda: _bench_shaped(6),
    "bench_n4": lambda: _bench_shaped(4),
    "signed_n4": _signed,
    "one_class": lambda: _manifold(4, [GeodesicClass(length=1.3)]),
    "empty": lambda: _manifold(4, []),
}


@functools.cache
def _spectrum(name):
    return SPECTRA[name]()


def _check_cut(value, tail, kept, terms, scale=1.0, in_order=False):
    """The three checks of the module docstring; value and tail are in units of scale."""
    kept_terms, rest = terms[:kept], terms[kept:]
    if in_order:
        summed = 0.0
        for term in kept_terms:
            summed += term
    else:
        summed = fallback.pairwise_sum(kept_terms)
    assert value.hex() == (summed / scale).hex()
    assert 0.0 <= tail
    assert math.fsum(map(abs, rest)) / scale <= tail * (1.0 + _ROUNDING)
    exact = math.fsum(terms) / scale
    gap = abs(math.fsum(kept_terms) / scale - exact)
    assert gap <= tail * (1.0 + _ROUNDING) + 2.0 * math.ulp(exact)
    if kept == len(terms):
        assert tail == 0.0


# --- the three sums on ManifoldData -------------------------------------------


def _heat_case(lengths, amps, shift, t):
    value, tail, kept = heat_zeta._hyperbolic_sum(heat_zeta._heat_blocks(lengths, amps), shift, t)
    decay, four_t = -t * shift, 4.0 * t
    terms = [a * math.exp(decay - l * l / four_t) for l, a in zip(lengths, amps)]
    _check_cut(value, tail, kept, terms, math.sqrt(4.0 * math.pi * t))
    return kept


def _bessel_case(lengths, amps, alpha, nus):
    values, tails, kept = heat_zeta._bessel_sums(lengths, amps, alpha, nus)
    sqrt_alpha, root_pi = math.sqrt(alpha), math.sqrt(math.pi)
    # every class on the node grid of its run, as the route evaluates it
    zs = [l * sqrt_alpha for l in lengths]
    grids = heat_zeta._run_grids(heat_zeta._bessel_k_family(nus), zs)
    columns = [[] for _ in nus]
    for l, a, z, grid in zip(lengths, amps, zs, grids):
        ratio = 2.0 * sqrt_alpha / l
        for column, nu, k in zip(columns, nus, grid(z)):
            column.append(a / root_pi * ratio**nu * k)
    for value, tail, column in zip(values, tails, columns):
        _check_cut(value, tail, kept, column)
    return kept


def _node_blocks(gaps, amps):
    # the blocks mellin_time_integrals walks: -gap and the amplitude per class
    return fallback.cut_blocks(amps, [-g for g in gaps], amps)


def _node_case(lengths, amps, eb):
    gaps = [0.25 * l * l - 0.25 * lengths[0] * lengths[0] for l in lengths]
    value, tail, kept = fallback.geodesic_sum(_node_blocks(gaps, amps), eb)
    terms = [a * math.exp(-g * eb) for g, a in zip(gaps, amps)]
    _check_cut(value, tail, kept, terms, in_order=True)
    every = 0.0
    for term in terms:
        every += term
    assert value.hex() == every.hex()
    return kept


@pytest.mark.parametrize("name", list(SPECTRA))
def test_heat_sum_cut_is_rigorous(name):
    data = _spectrum(name)
    for p in range(data.dimension):
        _, shift = heat_zeta._sector(data, p)
        lengths, amps = heat_zeta._geodesic_amplitudes(data, p)
        for t in (0.05, 0.5, 2.5):
            kept = _heat_case(lengths, amps, shift, t)
            if name.startswith("bench"):
                assert kept < len(lengths)
            if name == "signed_n4":
                assert kept > 2 * fallback.CUT_BLOCK
            assert heat_zeta.hyperbolic_heat_term(data, p, t) == heat_zeta._hyperbolic_sum(
                heat_zeta._heat_blocks(lengths, amps), shift, t
            )[0]


@pytest.mark.parametrize("name", list(SPECTRA))
def test_bessel_sums_cut_is_rigorous(name):
    data = _spectrum(name)
    s_values = [0.3, 0.5, 0.7, 1e-2, 1e-3, -1.5, 2.5]
    for p in (0, 1):
        _, alpha = heat_zeta._sector(data, p)
        lengths, amps = heat_zeta._geodesic_amplitudes(data, p)
        kept = _bessel_case(lengths, amps, alpha, [0.5 - s for s in s_values])
        if name.startswith("bench"):
            assert kept < len(lengths)
        if name == "signed_n4":
            assert kept > 2 * fallback.CUT_BLOCK


@pytest.mark.parametrize("name", list(SPECTRA))
def test_node_sum_cut_is_rigorous(name):
    data = _spectrum(name)
    lengths, amps = heat_zeta._geodesic_amplitudes(data, 1)
    if not lengths:
        assert fallback.geodesic_sum(_node_blocks([], []), 1.0) == (0.0, 0.0, 0)
        return
    for u in (-3.0, -1.0, 0.0, 1.0, 3.0):
        kept = _node_case(lengths, amps, math.exp(-u))
        if name.startswith("bench") and u <= 0.0:
            assert kept < len(lengths)


@st.composite
def signed_spectra(draw):
    # length-sorted lengths, signed amplitudes over six decades at one scale
    n = draw(st.integers(0, 400))
    scale = 10.0 ** draw(st.integers(-200, 200))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lengths = sorted(rng.uniform(0.05, 40.0) for _ in range(n))
    amps = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0) * scale for _ in range(n)]
    return lengths, amps


@settings(max_examples=40, deadline=None)
@given(
    signed_spectra(),
    st.floats(0.01, 5.0),
    st.floats(0.25, 30.0),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    st.floats(-4.0, 4.0),
)
def test_cut_is_rigorous_on_random_signed_spectra(spectrum, t, alpha, nus, u):
    lengths, amps = spectrum
    _heat_case(lengths, amps, alpha, t)
    _bessel_case(lengths, amps, alpha, nus)
    if lengths:
        _node_case(lengths, amps, math.exp(-u))


# --- the helpers --------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), max_size=60))
def test_suffix_bounds_bound_the_exact_suffix_sums(amps):
    bounds = fallback.suffix_bounds(amps)
    assert len(bounds) == len(amps) + 1 and bounds[-1] == 0.0
    exact = Fraction(0)
    for i in range(len(amps) - 1, -1, -1):
        exact += abs(Fraction(amps[i]))
        assert bounds[i] == math.inf or Fraction(bounds[i]) >= exact


def test_suffix_bounds_past_the_float_range():
    assert fallback.suffix_bounds([1e308, 1e308, 1.0])[:2] == [math.inf, math.nextafter(1e308, 2e308)]
    assert all(map(math.isnan, fallback.suffix_bounds([1.0, math.nan, 1.0])[:2]))


@pytest.mark.parametrize("bound,factors,partials,stops", [
    (1.0, [2.0**-54], [1.0], True),
    (1.0, [2.0**-54], [-1.0], True),  # the partial sum's magnitude
    (1.0, [2.0**-53], [1.0], False),
    (1.0, [2.0**-54, 2.0**-53], [1.0, 1.0], False),  # every sum must pass
    (1.0, [0.0], [0.0], True),  # nothing left but zeros
    (1.0, [1e-300], [0.0], False),
    (math.inf, [1.0], [math.inf], False),  # a bound that overflows never stops
    (math.inf, [0.0], [1.0], False),
    (math.nan, [1.0], [1.0], False),
    (1.0, [1e-30], [math.nan], False),
])
def test_tail_bounds_stop_rule(bound, factors, partials, stops):
    tails = fallback.tail_bounds(bound, factors, partials)
    assert (tails is not None) == stops
    if stops:
        assert tails == [bound * f for f in factors]


def test_infinite_amplitude_keeps_the_node_sum_going():
    # the bound is inf, so the sum runs to the end and shows the inf amplitude
    gaps = [float(i) for i in range(200)]
    amps = [1.0] * 199 + [math.inf]
    value, tail, kept = fallback.geodesic_sum(_node_blocks(gaps, amps), 10.0)
    assert kept == 200 and tail == 0.0 and math.isnan(value)


# --- the cut changes no error -------------------------------------------------


def _edge_spectrum(n, extra):
    # 300 classes with one more class at length ``extra``, as the parent
    # commit was measured on: lengths 5e-4 and 30 at both edges of the
    # Bessel order range, and a long class whose prefactor overflows
    count, power = (100, 3) if n == 4 else (300, 1)
    base = synth_spectrum(seed=7, count=count, min_length=1.0, max_power=power, n=n)
    return _manifold(n, base + [GeodesicClass(length=extra, c_value=1e-3)])


_PREFACTOR = r"Bessel prefactor \(2 sqrt\(alpha\)/t\)\^\(1/2-s\) overflows at length t="

# (n, extra length, s): the value, or the error, of the commit before the cut
EDGE_CASES = [
    (4, 5e-4, -64.5, "Bessel-route Mellin value at s=-64.5 is outside the float range"),
    (4, 5e-4, 65.5, "Bessel-route Mellin value at s=65.5 is outside the float range"),
    (4, 30.0, -64.5, "0x1.19a72961a9c51p+385"),
    (4, 30.0, 65.5, "0x1.74ce141288fe7p+220"),
    (50, 5e-4, -64.5, _PREFACTOR + "0.0005"),
    (50, 5e-4, -64.0, _PREFACTOR + "0.0005"),
    (50, 5e-4, 65.5, "0x1.19b9daffaf9b1p-312"),
    (50, 30.0, -64.5, "0x1.3b669d64ead05p+417"),
    (50, 30.0, 65.5, "0x1.19b9daffaf9b2p-312"),
    (50, 3e6, 65.5, _PREFACTOR + "3000000.0"),
    (4, 3e6, 65.5, _PREFACTOR + "3000000.0"),
]


@pytest.mark.parametrize("n,extra,s,want", EDGE_CASES)
def test_cut_changes_no_error(n, extra, s, want, tmp_path, capsys):
    data = _edge_spectrum(n, extra)
    if want.startswith("0x"):
        [got] = mellin_hyperbolic(data, 0, [s])
        assert abs(got - float.fromhex(want)) <= 2.0 * math.ulp(float.fromhex(want))
        return
    with pytest.raises(ValueError, match=want):
        mellin_hyperbolic(data, 0, [s])
    path = tmp_path / "m.json"
    save_manifold(data, path)
    code = main(["zeta-check", "--manifold", str(path), "--form", "0", "--s", str(s)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and re.search(want, captured.err)


# A straddle block: 1, 62 terms of 2^-54 and -1, all with one factor, then
# class 64 with amplitude 1 and a factor far smaller.  Left to right (the
# builtin sum of floats up to Python 3.11) each 2^-54 term is below half an
# ulp of the running 1.0, so the first-block partial is exactly 0.0 and no
# cut fires before class 64.  Compensated (math.fsum, or the builtin sum
# from Python 3.12 on) it is 62 * 2^-54, and class 64's tail bound is below
# 2^-54 of that.
_STRADDLE_AMPS = [1.0] + [2.0**-54] * 62 + [-1.0, 1.0]


@pytest.mark.parametrize("name", ["heat", "bessel"])
def test_cut_partials_are_summed_left_to_right(name, monkeypatch):
    amps = _STRADDLE_AMPS
    if name == "heat":
        # at t = 1 and shift 0 the first block's factor e^(-l^2/4) is 1.0
        lengths = [1e-10] * 64 + [17.0]

        def kept():
            return heat_zeta._hyperbolic_sum(heat_zeta._heat_blocks(lengths, amps), 0.0, 1.0)[2]
    else:
        # one length, so the first block's terms are exact multiples of one term
        lengths = [1.0] * 64 + [144.0]

        def kept():
            return heat_zeta._bessel_sums(lengths, amps, 0.25, [0.0])[2]

    # Python 3.12's builtin sum compensates, as math.fsum does
    monkeypatch.setattr(heat_zeta, "sum", math.fsum, raising=False)
    assert kept() == 65
    # the construction: a compensated partial cuts before class 64
    monkeypatch.setattr(heat_zeta, "_plain_sum", math.fsum)
    assert kept() == 64
