"""Pinned output of ``hyperzeta plancherel`` and bits of the Plancherel density.

``tests/data/plancherel_snapshot.json`` holds, for every (n, p) in
``GRID``, the full stdout of

    hyperzeta plancherel --dim n --form p --eval 0.3 --eval 2.5

at ``HYPERZETA_PRECISION=17``, and ``float.hex`` of
``plancherel_density(n // 2, p, r)`` at each r in ``EVALS``.  Any rewrite
of the coefficient expansion, of the density or of the command must
reproduce every entry byte for byte and bit for bit.

Regenerate (only from a commit whose numerics are trusted) with

    PYTHONPATH=src python tests/test_plancherel_snapshot.py > tests/data/plancherel_snapshot.json
"""

import contextlib
import io
import json
import os
import pathlib

from hyperzeta.cli import main
from hyperzeta.plancherel import plancherel_density

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "plancherel_snapshot.json"

GRID = ((2, 0), (6, 0), (6, 4), (12, 3), (40, 19))
EVALS = (0.3, 2.5)


def _plancherel_stdout(n: int, p: int) -> str:
    argv = ["plancherel", "--dim", str(n), "--form", str(p)]
    for r in EVALS:
        argv += ["--eval", repr(r)]
    out = io.StringIO()
    saved = os.environ.get("HYPERZETA_PRECISION")
    os.environ["HYPERZETA_PRECISION"] = "17"
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        if saved is None:
            del os.environ["HYPERZETA_PRECISION"]
        else:
            os.environ["HYPERZETA_PRECISION"] = saved
    assert code == 0, argv
    return out.getvalue()


def _records() -> list[dict]:
    return [
        {
            "n": n,
            "p": p,
            "stdout": _plancherel_stdout(n, p),
            "density": [plancherel_density(n // 2, p, r).hex() for r in EVALS],
        }
        for n, p in GRID
    ]


def test_plancherel_matches_snapshot():
    pinned = json.loads(SNAPSHOT.read_text())
    assert pinned["evals"] == list(EVALS)
    records = _records()
    assert len(records) == len(pinned["records"])
    for got, want in zip(records, pinned["records"]):
        assert got == want, (got["n"], got["p"])


if __name__ == "__main__":
    print(json.dumps({"evals": list(EVALS), "records": _records()}, indent=1))
