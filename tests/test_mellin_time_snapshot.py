"""Pinned bits of the time-quadrature Mellin route.

``tests/data/mellin_time_snapshot.json`` holds ``float.hex`` of
``mellin_hyperbolic_quadrature`` for p in ``FORMS`` and s in ``S_VALUES``
on three spectra: the verification spectrum, a seed-fixed 1500-class
n = 4 spectrum (500 primitives, 3 iterates each) and a 20-class n = 20
spectrum whose shortest length is 4.  A rework of the time-route kernel
that claims the same bits must reproduce every entry.

Each entry is also checked to 1e-13 relative: against the closed form of
the time integral in mpmath (``mpmath_time_route``) on the two small
spectra, and at s = 0.77 on the 1500-class one (its other orders cost
seconds each in ``mpmath.besselk``); every 1500-class entry is checked
against the Bessel route, whose own snapshot is checked against mpmath.

Regenerate (only from a commit whose numerics are trusted) with

    PYTHONPATH=src python tests/test_mellin_time_snapshot.py > tests/data/mellin_time_snapshot.json
"""

import json
import math
import pathlib

import mpmath

from hyperzeta import ManifoldData, synth_spectrum
from hyperzeta.heat_zeta import (
    _geodesic_amplitudes, _sector, mellin_hyperbolic, mellin_hyperbolic_quadrature,
)
from hyperzeta.verify import _verification_spectrum

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "mellin_time_snapshot.json"

FORMS = (0, 1)
S_VALUES = (0.1, 0.3, 0.5, 0.77, 0.9, -1.5, 2.5)


def _spectrum(n: int, geodesics) -> ManifoldData:
    return ManifoldData(
        dimension=n, volume=1.0, betti=(1,) + (0,) * (n - 1) + (1,),
        geodesics=tuple(geodesics),
    )


def _spectra() -> dict:
    return {
        "verification": _verification_spectrum(),
        "synth_1500_n4": _spectrum(
            4, synth_spectrum(seed=7, count=500, min_length=1.0, max_power=3, n=4)
        ),
        "synth_20_n20": _spectrum(
            20, synth_spectrum(seed=5, count=20, min_length=4.0, max_power=1, n=20)
        ),
    }


def mpmath_time_route(lengths, amps, alpha, s) -> float:
    """integral_0^inf t^(s-3/2) sum_i amps[i] e^(-alpha t - l_i^2/(4t)) dt, in mpmath.

    Each class is 2 (q/alpha)^(nu/2) K_nu(l sqrt(alpha)) with q = l^2/4 and
    nu = s - 1/2, at 30 digits.  The lengths ascend, so K_nu at class i
    bounds it at every later class, and (q/alpha)^(nu/2) is largest at the
    longest length for nu > 0 and at class i otherwise; the sum stops once
    that bound times the rest of sum |amps| is below 1e-18 of the sum.
    """
    with mpmath.workdps(30):
        alpha, nu = mpmath.mpf(alpha), mpmath.mpf(s) - mpmath.mpf(0.5)
        rest = mpmath.fsum(abs(mpmath.mpf(a)) for a in amps)
        top = (mpmath.mpf(lengths[-1]) ** 2 / 4 / alpha) ** (nu / 2) if lengths else 0
        total = mpmath.mpf(0)
        for l, a in zip(lengths, amps):
            power = (mpmath.mpf(l) ** 2 / 4 / alpha) ** (nu / 2)
            k = mpmath.besselk(nu, mpmath.mpf(l) * mpmath.sqrt(alpha))
            if rest * 2 * max(power, top if nu > 0 else 0) * k < 1e-18 * abs(total):
                break
            total += a * 2 * power * k
            rest -= abs(mpmath.mpf(a))
        return float(total)


def elementary_time_route(lengths, amps, alpha, s: int) -> float:
    """mpmath_time_route at an integer s, with no quadrature and no Bessel family.

    At integer s the order nu = s - 1/2 is m + 1/2 in modulus, and
    K_(m+1/2)(z) = sqrt(pi/(2z)) e^-z sum_(j=0..m) (m+j)! / (j! (m-j)!)
    (2z)^-j (DLMF 10.49.12), a sum of positive terms.  Every class is
    summed, at 30 digits.
    """
    with mpmath.workdps(30):
        alpha, nu = mpmath.mpf(alpha), mpmath.mpf(s) - mpmath.mpf(0.5)
        m = abs(2 * s - 1) // 2
        weights = [mpmath.factorial(m + j) / (mpmath.factorial(j) * mpmath.factorial(m - j))
                   for j in range(m + 1)]
        total = mpmath.mpf(0)
        for l, a in zip(lengths, amps):
            l = mpmath.mpf(l)
            z = l * mpmath.sqrt(alpha)
            k = mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.exp(-z) * mpmath.fsum(
                w / (2 * z) ** j for j, w in enumerate(weights)
            )
            total += a * 2 * (l * l / 4 / alpha) ** (nu / 2) * k
        return float(total)


def _records() -> list[dict]:
    return [
        {
            "spectrum": name,
            "p": p,
            "values": [v.hex() for v in mellin_hyperbolic_quadrature(data, p, S_VALUES)],
        }
        for name, data in _spectra().items()
        for p in FORMS
    ]


def test_time_route_matches_snapshot():
    pinned = json.loads(SNAPSHOT.read_text())
    assert pinned["s_values"] == list(S_VALUES)
    records = _records()
    assert len(records) == len(pinned["records"])
    for got, want in zip(records, pinned["records"]):
        assert got == want, (got["spectrum"], got["p"])


def test_snapshot_against_mpmath():
    pinned = json.loads(SNAPSHOT.read_text())["records"]
    spectra = _spectra()
    for record in pinned:
        data, p = spectra[record["spectrum"]], record["p"]
        _, alpha = _sector(data, p)
        lengths, amps = _geodesic_amplitudes(data, p)
        got = [float.fromhex(value) for value in record["values"]]
        if len(lengths) > 100:
            bessel = mellin_hyperbolic(data, p, S_VALUES)
            assert all(abs(g - b) <= 1e-13 * abs(b) for g, b in zip(got, bessel)), p
        for s, value in zip(S_VALUES, got):
            if len(lengths) > 100 and s != 0.77:
                continue
            want = mpmath_time_route(lengths, amps, alpha, s) / math.sqrt(4.0 * math.pi)
            assert abs(value - want) <= 1e-13 * abs(want), (record["spectrum"], p, s)


if __name__ == "__main__":
    print(json.dumps({"s_values": list(S_VALUES), "records": _records()}, indent=1))
