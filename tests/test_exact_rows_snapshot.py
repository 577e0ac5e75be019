"""Pinned full default-shift anomaly rows past n = 40, up to the cap.

``tests/data/exact_rows_snapshot.json`` holds, for each n in ``ROW_DIMS``,
the sha256 of the row's ``exact_str`` values (p = 0..n/2-1, one per line)
and the ``exact_str`` of the first and last cell in clear.  Together with
``exact_snapshot.json`` (every cell up to n = 40) this gates any rewrite
of the exact core on outputs up to ``MAX_DIMENSION``.

Regenerate (only from a commit whose exact core is trusted) with

    PYTHONPATH=src python tests/test_exact_rows_snapshot.py > tests/data/exact_rows_snapshot.json
"""

import hashlib
import json
import pathlib

from hyperzeta.anomaly import generate_table

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "exact_rows_snapshot.json"

ROW_DIMS = (42, 50, 64, 80, 100, 128, 150, 200)


def _record(n: int) -> dict:
    cells = generate_table("custom", dims=[n], forms=list(range(n // 2)))
    exact = [cell.result.exact_str() for cell in cells]
    lines = "".join(f"{text}\n" for text in exact)
    return {
        "n": n,
        "row_sha256": hashlib.sha256(lines.encode("ascii")).hexdigest(),
        "first": exact[0],
        "last": exact[-1],
    }


def test_exact_rows_match_snapshot():
    pinned = json.loads(SNAPSHOT.read_text())
    assert [entry["n"] for entry in pinned] == list(ROW_DIMS)
    for n, entry in zip(ROW_DIMS, pinned):
        assert _record(n) == entry, n


if __name__ == "__main__":
    print(json.dumps([_record(n) for n in ROW_DIMS], indent=1))
