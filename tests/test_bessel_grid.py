"""The Bessel family on one node grid per run of classes.

``heat_zeta._bessel_k_family(orders)`` returns ``grid(z_lo, z_hi)``, which
computes the trapezoid nodes and every cosh(c u) once; the values at one z
then cost one exp per node and one dot product per sum.  ``bessel_k`` is a
grid of one z.  The Bessel route (``_bessel_sums``) builds one grid per run
of length-sorted classes (``heat_zeta._run_grids``): a run starts at
every ``CUT_BLOCK`` boundary and where z passes 4x the run's first z.

Checked here: ``bessel_k`` keeps its bits, the closed form no longer
overflows, the runs follow that rule, a block that spans nine decades of z
stays fast and accurate, and the grid values stay within 1e-13 of
``mpmath.besselk`` up to order 64.9.
"""

import functools
import math
import time

import mpmath
import pytest

from hyperzeta import heat_zeta
from hyperzeta._kernels import fallback
from hyperzeta.heat_zeta import bessel_k, mellin_hyperbolic
from hyperzeta.manifold import GeodesicClass, ManifoldData, synth_spectrum

ORDERS = (0.0, 0.3, 0.49, 0.7, 2.0, 2.5, 7.5, 12.4, 33.7, 64.5, 65.0)
ZS = (1e-3, 0.01, 0.3, 1.0, 2.5, 7.0, 20.0, 100.0, 300.0, 700.0)

# float.hex of bessel_k(order, z) for z in ZS, computed when each call built
# its own nodes; a grid of one z must reproduce them
PINNED = {
    0.0: (
        "0x1.c1841e07ec99ep+2", "0x1.2e28dfa81d127p+2", "0x1.5f598ae31a9bap+0",
        "0x1.af2107c43e11bp-2", "0x1.fec04bbf65eecp-5", "0x1.bd6e3d19d6dcfp-12",
        "0x1.3ba0bd304a728p-31", "0x1.a95ab76caeaa9p-148",
        "0x1.5250d1dcd3a9ap-437", "0x1.a3bdc2aab13abp-1015",
    ),
    0.3: (
        "0x1.cd026ff6b006dp+3", "0x1.b8f7710e633fdp+2", "0x1.7b7ab5ddc27aap+0",
        "0x1.bd8491bd00859p-2", "0x1.03556a0f5e215p-4", "0x1.c01f93f545348p-12",
        "0x1.3c526a7992dc9p-31", "0x1.a98b7c5e5e7edp-148",
        "0x1.525dca5dd7b19p-437", "0x1.a3c4a9d81df38p-1015",
    ),
    0.49: (
        "0x1.2b6b41efdab38p+5", "0x1.7fca3ce9addf0p+3", "0x1.ae6a84bf1cb4bp+0",
        "0x1.d672a8d7fbb58p-2", "0x1.0a0f90bcbde1ep-4", "0x1.c4a62c87cfe94p-12",
        "0x1.3d7b990c85b95p-31", "0x1.a9dcdee183949p-148",
        "0x1.52736d559ac96p-437", "0x1.a3d02d5b1ceebp-1015",
    ),
    0.7: (
        "0x1.0972d4f673da7p+7", "0x1.a6f12a8bd2ce0p+4", "0x1.07bf34cbf741dp+1",
        "0x1.0154f44dedbebp-1", "0x1.159e5f9d3afe7p-4", "0x1.cc48225f7c796p-12",
        "0x1.3f6cc1ec447a8p-31", "0x1.aa648079868c0p-148",
        "0x1.5297762c44406p-437", "0x1.a3e35956d260fp-1015",
    ),
    2.0: (
        "0x1.e847f8000104dp+20", "0x1.387e0011ed894p+14", "0x1.5bee8d5d1579ep+4",
        "0x1.9ff5712ae820bp+0", "0x1.f18041dbb5a3fp-4", "0x1.22c012f4d54e7p-11",
        "0x1.5bf86833f7862p-31", "0x1.b1e764985151bp-148",
        "0x1.54932c65d0cfbp-437", "0x1.a4f0fd894ce6ap-1015",
    ),
    2.5: (
        "0x1.c59115c7239d8p+26", "0x1.6f2cfe62cacafp+18", "0x1.2c9bcaa19997cp+6",
        "0x1.9d1e0c9d5e206p+1", "0x1.651fa0339dca7p-3", "0x1.5166a1b26fcc5p-11",
        "0x1.6f933c7acf0b5p-31", "0x1.b6c9bc54accd2p-148",
        "0x1.55da30e867ab2p-437", "0x1.a59e3162a2aeep-1015",
    ),
    7.5: (
        "0x1.14e3fb00e1fd4p+92", "0x1.25cd97ca013c0p+67", "0x1.4fef6e76a2836p+30",
        "0x1.3e5aee0ee405fp+17", "0x1.155c84f029cffp+7", "0x1.e333f62e5b05bp-7",
        "0x1.332382fae6c2bp-29", "0x1.1952e5e8b6845p-147",
        "0x1.7381e9745139cp-437", "0x1.b4efc1ae2a8adp-1015",
    ),
    12.4: (
        "0x1.9085c95937324p+161", "0x1.5ea2b18049c60p+120", "0x1.85843f4c44cabp+59",
        "0x1.06e83fa98c2dap+38", "0x1.6576540f7cf0bp+21", "0x1.b72cc71783ae8p+1",
        "0x1.7d5eed2bd3158p-26", "0x1.c89b112a5b06dp-147",
        "0x1.b4ef5d120be6fp-437", "0x1.d46dfab55f60dp-1015",
    ),
    33.7: (
        "0x1.aa95b935664d4p+489", "0x1.b9f0fb28c9b4ep+377", "0x1.5794bbedc6317p+212",
        "0x1.d6b8b7f462979p+153", "0x1.3517d366cece0p+109", "0x1.acecc5ac193bap+58",
        "0x1.032ee743bbbbfp+4", "0x1.c13eaa8cbc199p-140",
        "0x1.174a0a597140fp-434", "0x1.d7fe2fa25ad07p-1014",
    ),
    64.5: (
        "0x1.380092969f830p+999", "0x1.03c3394642bc7p+785", "0x1.70a59bab0c4d2p+468",
        "0x1.66b3ffac7d81dp+356", "0x1.248948d283fc8p+271", "0x1.1a18c54d49be2p+175",
        "0x1.65f846b6088a3p+75", "0x1.9c52fedfaabb4p-119",
        "0x1.4692aa3e7fbabp-427", "0x1.fe050ad8635e8p-1011",
    ),
    65.0: (
        "0x1.b4e38aeea78a3p+1007", "0x1.cc18f3cd8eb54p+791", "0x1.dcda552d7a01ep+472",
        "0x1.fc4a4a2bd6f8dp+359", "0x1.0636dc46ee56cp+274", "0x1.2e9e0b1fcd175p+177",
        "0x1.cb198c6ce5da3p+76", "0x1.173eeafe1adc0p-118",
        "0x1.6b6d4118a5fd6p-427", "0x1.0b0e05357c888p-1010",
    ),
}

# the Bessel orders 1/2 - s of zeta-check's s = 0.2, 0.5, 0.8, 1e-2, 1e-3
ZETA_ORDERS = [0.5 - s for s in (0.2, 0.5, 0.8, 1e-2, 1e-3)]


def _manifold(geodesics):
    return ManifoldData(
        dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1),
        geodesics=tuple(sorted(geodesics, key=lambda g: g.length)),
    )


@pytest.mark.parametrize("order", ORDERS)
def test_bessel_k_keeps_its_bits(order):
    assert [bessel_k(order, z).hex() for z in ZS] == list(PINNED[order])
    assert [bessel_k(-order, z).hex() for z in ZS] == list(PINNED[order])


def test_half_integer_closed_form_past_the_float_range():
    # (2z)^i leaves the float range from i = 45 at z = 4.5e6; the term is
    # then 0.0 instead of an OverflowError, and K itself underflows
    assert bessel_k(64.5, 4.5e6) == 0.0
    assert bessel_k(64.5, 3.3e4) == 0.0


def test_grid_runs():
    # grids are built for runs that start at each CUT_BLOCK boundary and at
    # the first z past 4x the run's first z, and span their run's z range
    block = fallback.CUT_BLOCK
    zs = [1.0 + 0.01 * i for i in range(block + 10)] + [5.0, 19.0, 20.0, 21.0, 100.0, 390.0]
    built = []
    family = heat_zeta._bessel_k_family(ZETA_ORDERS)

    def recording(z_lo, z_hi):
        built.append((z_lo, z_hi))
        return family(z_lo, z_hi)

    grids = list(heat_zeta._run_grids(recording, zs))
    assert built == [(zs[0], zs[block - 1]), (zs[block], 5.0), (19.0, 21.0), (100.0, 390.0)]
    assert len(grids) == len(zs) and len(set(map(id, grids))) == 4
    # each z is as accurate on its run's grid as on a grid of its own
    for z, values in zip(zs, grids):
        for got, want in zip(values(z), family(z, z)(z)):
            assert abs(got / want - 1.0) < 1e-13


def test_block_across_nine_decades_of_z():
    # one 64-class block with z = l sqrt(alpha) from 1e-3 to 1e6 (n = 4,
    # p = 0, so sqrt(alpha) = 1.5).  One grid for the block would take the
    # step of z = 1e6 out to the extent of z = 1e-3: some 16,000 nodes.
    count = fallback.CUT_BLOCK
    data = _manifold(
        [GeodesicClass(length=10.0 ** (-3.0 + 9.0 * i / (count - 1)) / 1.5) for i in range(count)]
    )
    lengths, amps = heat_zeta._geodesic_amplitudes(data, 0)
    sqrt_alpha = 1.5
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        got = mellin_hyperbolic(data, 0, [0.5 - nu for nu in ZETA_ORDERS])
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.1
    for nu, value in zip(ZETA_ORDERS, got):
        want = math.fsum(
            a / math.sqrt(math.pi) * (2.0 * sqrt_alpha / l) ** nu * bessel_k(nu, l * sqrt_alpha)
            for l, a in zip(lengths, amps)
        )
        assert abs(value / want - 1.0) < 1e-13


@functools.cache
def _bench_shaped():
    return _manifold(synth_spectrum(seed=2024, count=2000, min_length=1.0, max_power=3, n=4))


# every 161st kept class: about 24 per sector over z from 1.5 to 23, since
# each mpmath.besselk call at 30 digits takes 1 to 3 ms
_STRIDE = 161


def _reference(nu, z):
    # mpmath's integer-order branch is 5 to 8 times slower than the others;
    # K is smooth in the order, so an order 1e-25 off moves K by far less
    # than the 30 digits
    with mpmath.workdps(30):
        order = mpmath.mpf(abs(nu))
        if order == int(order):
            order += mpmath.mpf("1e-25")
        return mpmath.besselk(order, z)


@pytest.mark.parametrize("p", [0, 1])
def test_grid_values_against_mpmath(p):
    # the benchmark-shaped spectrum of test_geodesic_cut.py, each class on
    # the grid of its run in the Bessel route
    data = _bench_shaped()
    nus = ZETA_ORDERS + [2.0, 12.4, 33.7, 64.9]
    _, alpha = heat_zeta._sector(data, p)
    lengths, amps = heat_zeta._geodesic_amplitudes(data, p)
    _, _, kept = heat_zeta._bessel_sums(lengths, amps, alpha, nus)
    zs = [l * math.sqrt(alpha) for l in lengths[:kept]]
    grids = list(heat_zeta._run_grids(heat_zeta._bessel_k_family(nus), zs))
    bad = []
    for z, values in list(zip(zs, grids))[::_STRIDE]:
        for nu, k in zip(nus, values(z)):
            want = _reference(nu, z)
            rel = float(abs(k / want - 1))
            if rel > 1e-13:
                bad.append((z, nu, rel))
    assert not bad
