"""Pinned bits of the time-quadrature Mellin route.

``tests/data/mellin_time_snapshot.json`` holds ``float.hex`` of
``mellin_hyperbolic_quadrature`` for p in ``FORMS`` and s in ``S_VALUES``
on three spectra: the verification spectrum, a seed-fixed 1500-class
n = 4 spectrum (500 primitives, 3 iterates each) and a 20-class n = 20
spectrum whose shortest length is 4.  A rework of the time-route kernel
that claims the same bits must reproduce every entry.

Regenerate (only from a commit whose numerics are trusted) with

    PYTHONPATH=src python tests/test_mellin_time_snapshot.py > tests/data/mellin_time_snapshot.json
"""

import json
import pathlib

from hyperzeta import ManifoldData, synth_spectrum
from hyperzeta.heat_zeta import mellin_hyperbolic_quadrature
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


if __name__ == "__main__":
    print(json.dumps({"s_values": list(S_VALUES), "records": _records()}, indent=1))
