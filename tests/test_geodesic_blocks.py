"""The geodesic sums walk blocks built once per call, and keep every bit.

``fallback.cut_blocks`` splits a length-sorted sum's columns into
``CUT_BLOCK`` blocks, each with its first class and the suffix bound S_K
there.  The time route's node sum (``fallback.geodesic_sum``), the heat
sum (``heat_zeta._hyperbolic_sum``) and the Bessel route
(``heat_zeta._bessel_sums``) walk them.  The sums they replaced re-sliced
the columns and called ``tail_bounds`` at every block of every evaluation;
those sums are kept below, as they were, and the block walks must agree
with them bit for bit in value, tail bound and kept count, on signed,
zero, infinite and nan amplitudes and on tied lengths.  The Bessel
family's node weights and its direct case are kept the same way.

The work tests check that a call builds its blocks once: not once per
quadrature node, per heat time or per s.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperzeta import heat_zeta
from hyperzeta._kernels import fallback
from hyperzeta.heat_zeta import _plain_sum, _power_bound, _run_grids
from hyperzeta.manifold import ManifoldData, synth_spectrum

pytestmark = pytest.mark.filterwarnings("ignore:geodesic sum over empty spectrum")

BLOCK = fallback.CUT_BLOCK
EDGE_COUNTS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]


# --- the sums before blocks were built once per call ---------------------------


def _old_geodesic_sum(gaps, amps, bounds, eb):
    exp = math.exp
    acc = 0.0
    for lo in range(0, len(gaps), BLOCK):
        tails = fallback.tail_bounds(bounds[lo], (exp(-gaps[lo] * eb),), (acc,))
        if tails is not None:
            return acc, tails[0], lo
        hi = lo + BLOCK
        for gap, amp in zip(gaps[lo:hi], amps[lo:hi]):
            acc += amp * exp(-gap * eb)
    return acc, 0.0, len(gaps)


def _old_hyperbolic_sum(lengths, amps, bounds, shift, t):
    exp = math.exp
    decay = -t * shift
    four_t = 4.0 * t
    norm = math.sqrt(4.0 * math.pi * t)
    vals = []
    partial = 0.0
    tail = 0.0
    for lo in range(0, len(lengths), BLOCK):
        l = lengths[lo]
        tails = fallback.tail_bounds(bounds[lo], (exp(decay - l * l / four_t),), (partial,))
        if tails is not None:
            tail = tails[0]
            break
        hi = lo + BLOCK
        block = [a * exp(decay - l * l / four_t) for l, a in zip(lengths[lo:hi], amps[lo:hi])]
        vals += block
        partial += _plain_sum(block)
    return fallback.pairwise_sum(vals) / norm, tail / norm, len(vals)


def _old_bessel_k_family(orders):
    # heat_zeta._bessel_k_family with its former node weights
    # exp(-(2z s) s) and its former direct case, a second pass times e^-z
    plans = []
    coefs = []
    top_max = 0.0
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
    direct = all(terms is None and m == 0 for terms, _, _, m in plans)

    def grid(z_lo, z_hi):
        exp = math.exp
        h = math.pi**2 / (z_hi + 40.0) if z_hi < 100.0 else 0.7 / math.sqrt(z_hi)
        us = []
        half_sinhs = []
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

        def values(z):
            two_z = 2.0 * z
            ws = [exp(-(two_z * s) * s) for s in half_sinhs]
            scaled = []
            for row in rows:
                acc = 0.5
                for w, cosh_cu in zip(ws, row):
                    acc += w * cosh_cu
                scaled.append(h * acc)
            ez = exp(-z)
            if direct:
                return [ez * value for value in scaled]
            out = []
            for terms, first, mu, m in plans:
                if terms is not None:
                    acc = 0.0
                    for i, term in enumerate(terms):
                        acc += term / _power_bound(two_z, i)
                    out.append(math.sqrt(math.pi / two_z) * ez * acc)
                    continue
                prev, cur = scaled[first], scaled[first + min(m, 1)]
                for i in range(1, m):
                    prev, cur = cur, prev + 2.0 * (mu + i) / z * cur
                out.append(ez * cur)
            return out

        return values

    return grid


def _old_bessel_sums(lengths, amps, alpha, nus):
    sqrt_alpha = math.sqrt(alpha)
    root_pi = math.sqrt(math.pi)
    zs = [l * sqrt_alpha for l in lengths]
    grids = _run_grids(_old_bessel_k_family(nus), zs)
    bounds = fallback.suffix_bounds(amps)
    far = [_power_bound(2.0 * sqrt_alpha / lengths[-1], nu) if lengths else 0.0 for nu in nus]
    columns = [[] for _ in nus]
    partials = [0.0] * len(nus)
    tails = [0.0] * len(nus)
    for i, (l, a, values) in enumerate(zip(lengths, amps, grids)):
        ratio = 2.0 * sqrt_alpha / l
        ks = values(zs[i])
        if not i % BLOCK:
            partials = [
                partial + _plain_sum(column[i - BLOCK:])
                for partial, column in zip(partials, columns)
            ]
            factors = [
                k * (_power_bound(ratio, nu) if nu >= 0 else top) / root_pi
                for nu, k, top in zip(nus, ks, far)
            ]
            cut = fallback.tail_bounds(bounds[i], factors, partials)
            if cut is not None:
                tails = cut
                break
        scaled = a / root_pi
        try:
            for column, nu, k in zip(columns, nus, ks):
                column.append(scaled * ratio**nu * k)
        except OverflowError:
            raise ValueError(
                f"Bessel prefactor (2 sqrt(alpha)/t)^(1/2-s) overflows at length t={l!r}"
            ) from None
    kept = len(columns[0]) if columns else 0
    return [fallback.pairwise_sum(column) for column in columns], tails, kept


# --- spectra ------------------------------------------------------------------

_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def spectra(draw):
    # length-sorted lengths, some tied; signed amplitudes over six decades,
    # with zeros, infinities and nans mixed in at a drawn rate
    n = draw(st.sampled_from(EDGE_COUNTS) | st.integers(0, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    special = draw(st.sampled_from([0.0, 0.0, 0.02, 0.2]))
    tie = draw(st.sampled_from([0.0, 0.3, 0.9]))
    lengths = []
    for _ in range(n):
        tied = lengths and rng.random() < tie
        lengths.append(lengths[-1] if tied else rng.uniform(0.05, 40.0))
    lengths.sort()
    amps = [
        rng.choice(_SPECIAL) if rng.random() < special
        else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0) * scale
        for _ in range(n)
    ]
    return lengths, amps


def _bits(result):
    # value, tail and kept count with every float as its hex string
    def one(x):
        return [one(v) for v in x] if isinstance(x, list) else x.hex() if isinstance(x, float) else x
    return [one(x) for x in result]


def _outcome(call):
    try:
        return _bits(call())
    except ValueError as exc:
        return str(exc)


# --- bit for bit against the former sums --------------------------------------


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spectra(), st.floats(-4.0, 4.0))
def test_node_sum_keeps_its_bits(spectrum, u):
    lengths, amps = spectrum
    eb = math.exp(-u)
    q0 = 0.25 * lengths[0] * lengths[0] if lengths else 0.0
    gaps = [0.25 * l * l - q0 for l in lengths]
    blocks = fallback.cut_blocks(amps, [q0 - 0.25 * l * l for l in lengths], amps)
    old = _old_geodesic_sum(gaps, amps, fallback.suffix_bounds(amps), eb)
    assert _bits(fallback.geodesic_sum(blocks, eb)) == _bits(old)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spectra(), st.floats(0.0, 30.0), st.lists(st.floats(0.01, 5.0), min_size=1, max_size=4))
def test_heat_sum_keeps_its_bits(spectrum, shift, times):
    lengths, amps = spectrum
    blocks = heat_zeta._heat_blocks(lengths, amps)
    bounds = fallback.suffix_bounds(amps)
    for t in times:
        old = _old_hyperbolic_sum(lengths, amps, bounds, shift, t)
        assert _bits(heat_zeta._hyperbolic_sum(blocks, shift, t)) == _bits(old)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    spectra(),
    st.floats(0.25, 30.0),
    st.lists(st.floats(-3.0, 3.0) | st.sampled_from([0.0, 0.5, -1.5, 2.5]), max_size=4),
)
def test_bessel_sums_keep_their_bits(spectrum, alpha, nus):
    lengths, amps = spectrum
    new = _outcome(lambda: heat_zeta._bessel_sums(lengths, amps, alpha, nus))
    assert new == _outcome(lambda: _old_bessel_sums(lengths, amps, alpha, nus))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-65.0, 65.0) | st.sampled_from([0.5, 1.5, 64.5]), min_size=1, max_size=4),
    st.floats(1e-3, 700.0),
    st.floats(1.0, 4.0),
)
def test_bessel_family_keeps_its_bits(orders, z_lo, spread):
    z_hi = min(z_lo * spread, 700.0)
    new = heat_zeta._bessel_k_family(orders)(z_lo, z_hi)
    old = _old_bessel_k_family(orders)(z_lo, z_hi)
    for z in (z_lo, 0.5 * (z_lo + z_hi), z_hi):
        assert _bits([new(z)]) == _bits([old(z)])


@pytest.mark.parametrize("count", EDGE_COUNTS)
def test_edge_counts_keep_their_bits(count):
    # the block edges themselves, on one spectrum long enough to cut
    rng = random.Random(count)
    lengths = sorted(rng.uniform(0.5, 12.0) for _ in range(count))
    amps = [rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 10.0) for _ in range(count)]
    bounds = fallback.suffix_bounds(amps)
    blocks = heat_zeta._heat_blocks(lengths, amps)
    assert [b[0] for b in blocks] == list(range(0, count, BLOCK))
    assert sum(len(b[3]) for b in blocks) == count
    for t in (0.05, 0.5, 2.5):
        old = _old_hyperbolic_sum(lengths, amps, bounds, 1.0, t)
        assert _bits(heat_zeta._hyperbolic_sum(blocks, 1.0, t)) == _bits(old)
    nus = [0.2, -1.3, 2.5]
    assert _outcome(lambda: heat_zeta._bessel_sums(lengths, amps, 2.25, nus)) == _outcome(
        lambda: _old_bessel_sums(lengths, amps, 2.25, nus)
    )


def test_stop_rule_is_one_predicate():
    # tail_bounds applies stops once per sum and stops only when all do
    assert fallback.stops(1.0, 2.0**54) and not fallback.stops(1.0, 2.0**53)
    assert not fallback.stops(math.inf, math.inf) and not fallback.stops(math.nan, 1.0)
    assert fallback.tail_bounds(1.0, [1.0, 2.0], [2.0**54, 2.0**55]) == [1.0, 2.0]
    assert fallback.tail_bounds(1.0, [1.0, 2.0], [2.0**54, 2.0**54]) is None


# --- the blocks are built once per call ---------------------------------------


@pytest.fixture
def counted(monkeypatch):
    # counts cut_blocks calls, and records the blocks each sum is walked on
    calls = {"cut_blocks": 0, "walked": []}
    cut_blocks = fallback.cut_blocks

    def counting(*args):
        calls["cut_blocks"] += 1
        return cut_blocks(*args)

    def recording(module, name):
        inner = getattr(module, name)

        def wrapper(blocks, *args):
            calls["walked"].append(blocks)
            return inner(blocks, *args)

        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(fallback, "cut_blocks", counting)
    recording(fallback, "geodesic_sum")
    recording(heat_zeta, "_hyperbolic_sum")
    return calls


@pytest.fixture(scope="module")
def spectrum():
    # about 300 classes, so five blocks
    geos = synth_spectrum(seed=3, count=100, min_length=1.0, max_power=3, n=4)
    return ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1), geodesics=tuple(geos))


def _one_block_list(walked):
    return len(walked) > 1 and all(blocks is walked[0] for blocks in walked)


def test_time_route_builds_its_blocks_once(counted, spectrum):
    values = heat_zeta.mellin_hyperbolic_quadrature(spectrum, 1, [0.3, 0.5, 0.7])
    assert all(math.isfinite(v) for v in values)
    assert counted["cut_blocks"] == 1
    assert len(counted["walked"]) > 3 and _one_block_list(counted["walked"])


def test_heat_sum_builds_its_blocks_once(counted, spectrum):
    times = [0.05 * (i + 1) for i in range(10)]
    rows = heat_zeta.coexact_trace(spectrum, 1, times)
    assert len(rows) == 10
    assert counted["cut_blocks"] == 1
    assert len(counted["walked"]) == 10 and _one_block_list(counted["walked"])


def test_bessel_route_builds_its_blocks_once(counted, spectrum):
    heat_zeta.mellin_hyperbolic(spectrum, 1, [0.3, 0.5, 0.7])
    assert counted["cut_blocks"] == 1
