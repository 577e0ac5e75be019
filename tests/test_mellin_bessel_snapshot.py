"""Pinned bits of the Bessel Mellin route.

``tests/data/mellin_bessel_snapshot.json`` holds ``float.hex`` of
``mellin_hyperbolic`` for p in ``FORMS`` and s in ``S_VALUES`` on the
three spectra of ``test_mellin_time_snapshot.py``.  The Bessel order is
nu = 1/2 - s, so the s values reach every branch of ``bessel_k``: the
half-integer closed form (s = 0 and 1, |nu| = 1/2), the trapezoid rule
for |nu| <= 1/2 (s = 0.1 .. 0.9, 1e-2, 1e-3) and the upward recurrence
(s = -1.5 and 2.5, |nu| = 2).  A rework of the Bessel route that claims
the same bits must reproduce every entry.

Regenerate (only from a commit whose numerics are trusted) with

    PYTHONPATH=src python tests/test_mellin_bessel_snapshot.py > tests/data/mellin_bessel_snapshot.json
"""

import json
import pathlib

from hyperzeta.heat_zeta import mellin_hyperbolic
from test_mellin_time_snapshot import FORMS, _spectra

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "mellin_bessel_snapshot.json"

S_VALUES = (0.1, 0.3, 0.5, 0.77, 0.9, -1.5, 2.5, 1e-2, 1e-3, 0.0, 1.0)


def _records() -> list[dict]:
    return [
        {
            "spectrum": name,
            "p": p,
            "values": [value.hex() for value in mellin_hyperbolic(data, p, S_VALUES)],
        }
        for name, data in _spectra().items()
        for p in FORMS
    ]


def test_bessel_route_matches_snapshot():
    pinned = json.loads(SNAPSHOT.read_text())
    assert pinned["s_values"] == list(S_VALUES)
    records = _records()
    assert len(records) == len(pinned["records"])
    for got, want in zip(records, pinned["records"]):
        assert got == want, (got["spectrum"], got["p"])


if __name__ == "__main__":
    print(json.dumps({"s_values": list(S_VALUES), "records": _records()}, indent=1))
