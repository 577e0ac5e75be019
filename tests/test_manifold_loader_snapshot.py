"""Pinned behaviour of the manifold loader: every error message and every loaded value.

``tests/data/manifold_loader_snapshot.json`` holds, for each kind of
malformed geodesic entry in ``BAD_ENTRIES``, the exception type and text
``load_manifold`` raises when that entry sits at index 0 and at the last
index of an otherwise valid 6000-class ``synth-spectrum`` document (n = 6,
as the heat-trace bench writes it).  It also holds a typed, bit-exact
description of what ``load_manifold`` returns for the accepted files in
``_accepted_files``: the conformance fixture, a mixed-holonomy file, a
file of numeric strings and the 6000-class document itself.  A rework of
the loader that claims the same behaviour must reproduce every entry.

Regenerate (only from a commit whose loader is trusted) with

    PYTHONPATH=src python tests/test_manifold_loader_snapshot.py > tests/data/manifold_loader_snapshot.json
"""

import functools
import hashlib
import io
import json
import math
import pathlib

import pytest

from hyperzeta import manifold
from hyperzeta.manifold import ManifoldData, load_manifold, synth_spectrum

DATA = pathlib.Path(__file__).parent / "data"
SNAPSHOT = DATA / "manifold_loader_snapshot.json"

N = 6
HOLONOMY = [1.0, 5.0, 10.0, 10.0, 5.0, 1.0]

# one malformed geodesic entry per kind the loader rejects
BAD_ENTRIES = {
    "not-an-object": 5,
    "list-entry": [1.0],
    "unknown-key": {"length": 1.5, "colour": 1},
    "two-unknown-keys": {"length": 1.5, "zeta": 1, "colour": 1},
    "missing-length": {"power": 1, "c": 0.5},
    "holonomy-string": {"length": 1.5, "c": 0.5, "holonomy": "twisted"},
    "holonomy-number": {"length": 1.5, "c": 0.5, "holonomy": 3},
    "holonomy-null": {"length": 1.5, "c": 0.5, "holonomy": None},
    "holonomy-short": {"length": 1.5, "c": 0.5, "holonomy": [1.0, 2.0]},
    "holonomy-long": {"length": 1.5, "c": 0.5, "holonomy": HOLONOMY + [1.0]},
    "holonomy-without-c": {"length": 1.5, "holonomy": HOLONOMY},
    "holonomy-non-numeric": {"length": 1.5, "c": 0.5, "holonomy": ["a"] * N},
    "length-string": {"length": "abc"},
    "length-null": {"length": None},
    "length-list": {"length": [1.5]},
    "length-zero": {"length": 0.0},
    "length-negative": {"length": -2},
    "length-infinite": {"length": math.inf},
    "length-nan": {"length": math.nan},
    "length-inf-string": {"length": "inf"},
    "power-zero": {"length": 1.5, "power": 0},
    "power-float": {"length": 1.5, "power": 1.5},
    "power-integral-float": {"length": 1.5, "power": 2.0},
    "power-string": {"length": 1.5, "power": "1"},
    "c-string": {"length": 1.5, "c": "x"},
    "c-list": {"length": 1.5, "c": [0.5]},
    "c-zero": {"length": 1.5, "c": 0},
    "c-negative": {"length": 1.5, "c": -0.5},
    "c-negative-infinite": {"length": 1.5, "c": -math.inf},
    "chi-string": {"length": 1.5, "chi": "x"},
    "chi-null": {"length": 1.5, "chi": None},
}


def saved_document(data: ManifoldData) -> dict:
    """The JSON value of the file that save_manifold writes for ``data``."""
    out = io.StringIO()
    manifold._write_manifold(data, out)
    return json.loads(out.getvalue())


@functools.cache
def synth_document() -> dict:
    """The 6000-class n = 6 document ``synth-spectrum --count 2000 --max-power 3`` writes.

    Cached: callers only read it.
    """
    geos = synth_spectrum(seed=5, count=2000, min_length=1.0, max_power=3, n=N)
    data = ManifoldData(
        dimension=N, volume=1.0, betti=(1,) + (0,) * (N - 1) + (1,), geodesics=tuple(geos)
    )
    return saved_document(data)


@functools.cache
def _synth_parts() -> tuple:
    doc = synth_document()
    head = {k: v for k, v in doc.items() if k != "geodesics"}
    return json.dumps(head)[:-1], tuple(json.dumps(g) for g in doc["geodesics"])


def synth_text(replace: dict | None = None) -> str:
    """``synth_document()`` as JSON text, with geodesic entries replaced by index first."""
    head, base = _synth_parts()
    entries = list(base)
    for index, entry in (replace or {}).items():
        entries[index] = json.dumps(entry)
    return head + ', "geodesics": [' + ", ".join(entries) + "]}"


def _typed(x):
    if isinstance(x, float):
        return "float:" + x.hex()
    return f"{type(x).__name__}:{x!r}"


def describe(data: ManifoldData) -> dict:
    """Every field of ``data`` with its type; floats as float.hex."""
    return {
        "dimension": _typed(data.dimension),
        "volume": _typed(data.volume),
        "betti": [_typed(b) for b in data.betti],
        "chi_one": _typed(data.chi_one),
        "radius": _typed(data.radius),
        "geodesics": [
            [
                _typed(g.length),
                _typed(g.power),
                _typed(g.c_value),
                _typed(g.chi),
                None if g.holonomy is None else [_typed(x) for x in g.holonomy],
            ]
            for g in data.geodesics
        ],
    }


def _accepted_files() -> dict:
    doc = {"format_version": 1, "dimension": 4, "volume": 2.5, "betti": [1, 0, 2, 0, 1]}
    mixed = dict(doc, chi_one=-0.5, radius=2, geodesics=[
        {"length": 2},
        {"length": 1.25, "power": 3, "chi": 2},
        {"length": 0.5, "c": 1, "holonomy": [1, -0.5, 2.5, 0.25]},
        {"length": 3.5, "power": 2, "c": 0.125, "holonomy": "trivial"},
        {"length": 0.75, "c": 0.25, "chi": -1.0, "holonomy": [1.0, 3.0, 3.0, 1.0]},
        {"length": 1.25, "power": 1, "c": None, "chi": 1.0},
    ])
    strings = dict(doc, volume="2.5", chi_one="1", radius="1.5", geodesics=[
        {"length": "1.5", "c": "0.25", "chi": "2"},
        {"length": "0.75", "power": 2, "c": "1e-3", "holonomy": ["1", "2", "2", "1.5"]},
        {"length": "3"},
    ])
    return {
        "conformance": (DATA / "manifold_conformance.json").read_text(),
        "mixed-holonomy": json.dumps(mixed),
        "numeric-strings": json.dumps(strings),
        "synth-6000": synth_text(),
    }


def _load(tmp_dir: pathlib.Path, text: str):
    path = tmp_dir / "m.json"
    path.write_text(text, encoding="utf-8")
    return load_manifold(path)


def _rejection(tmp_dir: pathlib.Path, text: str) -> list:
    try:
        _load(tmp_dir, text)
    except Exception as exc:  # the pin records whatever the loader raises
        return [type(exc).__name__, str(exc)]
    raise AssertionError("a malformed entry was accepted")


def _accepted(tmp_dir: pathlib.Path, text: str):
    got = describe(_load(tmp_dir, text))
    if len(got["geodesics"]) > 100:
        # the 6000-class file is pinned by digest
        return hashlib.sha256(json.dumps(got).encode()).hexdigest()
    return got


def _records(tmp_dir: pathlib.Path) -> dict:
    last = len(synth_document()["geodesics"]) - 1
    return {
        "rejected": {
            kind: {
                str(index): _rejection(tmp_dir, synth_text({index: entry}))
                for index in (0, last)
            }
            for kind, entry in BAD_ENTRIES.items()
        },
        "accepted": {
            name: _accepted(tmp_dir, text) for name, text in _accepted_files().items()
        },
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("kind", sorted(BAD_ENTRIES))
def test_rejection_matches_snapshot(pinned, tmp_path, kind):
    last = len(synth_document()["geodesics"]) - 1
    for index in (0, last):
        text = synth_text({index: BAD_ENTRIES[kind]})
        assert _rejection(tmp_path, text) == pinned["rejected"][kind][str(index)], index


@pytest.mark.parametrize("name", ["conformance", "mixed-holonomy", "numeric-strings", "synth-6000"])
def test_accepted_file_matches_snapshot(pinned, tmp_path, name):
    assert _accepted(tmp_path, _accepted_files()[name]) == pinned["accepted"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(_records(pathlib.Path(tmp)), indent=1))
