"""A spectrum travels as columns: writer bytes, synth-spectrum pins, no class built.

``ManifoldData.columns`` holds the spectrum; ``geodesics`` is a view built
from it on first read.  The writer spells each line from the columns, so
it is compared here with the writer that encoded one class at a time with
json.dumps, over drawn spectra and around the chunk size.  The loader,
synth-spectrum and the geodesic sums of a synth-spectrum file build no
GeodesicClass, which the guard test checks by making every build raise.
"""

import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperzeta import manifold
from hyperzeta.cli import main
from hyperzeta.heat_zeta import coexact_trace, zeta_check
from hyperzeta.manifold import (
    GeodesicClass,
    ManifoldData,
    load_manifold,
    save_manifold,
    synth_spectrum,
)

N = 4
BETTI = (1, 0, 0, 0, 1)


def _entry(g: GeodesicClass) -> dict:
    # one class's object, as the per-class writer built it
    entry: dict = {"length": g.length, "power": g.power}
    if g.c_value is not None:
        entry["c"] = g.c_value
    if g.chi != 1.0:
        entry["chi"] = g.chi
    entry["holonomy"] = "trivial" if g.holonomy is None else list(g.holonomy)
    return entry


def reference_file(data: ManifoldData) -> str:
    """The file the writer wrote when it ran json.dumps once per class."""
    out = io.StringIO()
    out.write(json.dumps(manifold._header(data), indent=2)[:-2] + ',\n  "geodesics": [')
    geos = data.geodesics
    for start in range(0, len(geos), manifold._CHUNK):
        lines = ",\n    ".join(json.dumps(_entry(g)) for g in geos[start:start + manifold._CHUNK])
        out.write(("," if start else "") + "\n    " + lines)
    out.write("\n  ]\n}\n" if geos else "]\n}\n")
    return out.getvalue()


def written(data: ManifoldData) -> str:
    out = io.StringIO()
    manifold._write_manifold(data, out)
    return out.getvalue()


class Tagged(float):
    """A float subclass whose own repr json's encoder does not use."""

    def __repr__(self) -> str:
        return f"Tagged({float(self)!r})"


class Counted(int):
    def __repr__(self) -> str:
        return f"Counted({int(self)})"


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
_REAL = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def classes(draw):
    length = draw(st.one_of(
        _POSITIVE, st.integers(1, 50), _POSITIVE.map(Tagged), st.integers(1, 50).map(Counted),
    ))
    power = draw(st.one_of(st.integers(1, 6), st.integers(1, 6).map(Counted)))
    chi = draw(st.one_of(st.just(1.0), st.just(1), _REAL, _REAL.map(Tagged), st.integers(-5, 5)))
    holonomy = draw(st.one_of(st.none(), st.lists(_REAL, min_size=N, max_size=N)))
    c_value = draw(st.one_of(
        st.none() if holonomy is None else st.nothing(),
        _POSITIVE, _POSITIVE.map(Tagged), st.integers(1, 9), st.integers(1, 9).map(Counted),
    ))
    return GeodesicClass(length, power, c_value, chi, holonomy)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(geos=st.lists(classes(), max_size=12), volume=_POSITIVE, chi_one=_REAL)
def test_writer_matches_per_class_json(geos, volume, chi_one):
    data = ManifoldData(N, volume, BETTI, tuple(geos), chi_one=chi_one)
    assert written(data) == reference_file(data)


def _mixed_spectrum(count: int) -> ManifoldData:
    # every kind of class, in a fixed draw
    rng = random.Random(count)
    geos = []
    for i in range(count):
        twisted = i % 7 == 3
        geos.append(GeodesicClass(
            length=rng.choice([rng.uniform(0.1, 40.0), rng.randint(1, 40)]),
            power=rng.randint(1, 3),
            c_value=rng.uniform(0.01, 2.0) if twisted or i % 3 else None,
            chi=rng.choice([1.0, -1.0, rng.uniform(-2, 2)]),
            holonomy=[rng.uniform(-1, 1) for _ in range(N)] if twisted else None,
        ))
    return ManifoldData(N, 2.5, BETTI, tuple(geos), chi_one=-0.5, radius=1.0)


@pytest.mark.parametrize("count", [0, 1, manifold._CHUNK - 1, manifold._CHUNK, manifold._CHUNK + 1])
def test_writer_matches_per_class_json_around_the_chunk(count):
    data = _mixed_spectrum(count)
    assert written(data) == reference_file(data)


def test_writer_raises_as_json_does():
    # a class may hold any real c; one json cannot spell fails as json.dumps fails
    data = ManifoldData(N, 1.0, BETTI, (GeodesicClass(1.5, c_value=Fraction(1, 2)),))
    with pytest.raises(TypeError) as want:
        reference_file(data)
    with pytest.raises(TypeError) as got:
        written(data)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("flags,digest", [
    (("--seed", "1", "--count", "2000", "--max-power", "3", "--dim", "6"),
     "81eec18e93b591120ff543e29576945452e73b2512e65ce910f2ca6c81447a71"),
    (("--seed", "7", "--count", "500", "--max-power", "3", "--dim", "4"),
     "d899069980beba441106a4492afca14efd2af180ddc58d1094875191d11cc47f"),
    (("--seed", "3", "--count", "1366", "--max-power", "3", "--dim", "10", "--min-length", "2.5"),
     "441218f1dedc5663615940d2783653cc603629e46c72c0f21b9c78fccf7962d1"),
], ids=["n6-6000", "n4-1500", "n10-4098"])
def test_synth_spectrum_stdout_pinned(capsys, flags, digest):
    assert main(["synth-spectrum", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_column_paths_build_no_class(tmp_path, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a GeodesicClass was built")

    path = tmp_path / "m.json"
    monkeypatch.setattr(manifold, "_build", built)
    monkeypatch.setattr(GeodesicClass, "__post_init__", built)
    assert main(["synth-spectrum", "--seed", "5", "--count", "40", "--max-power", "3",
                 "--dim", "4", "--out", str(path)]) == 0
    data = load_manifold(path)
    coexact_trace(data, 1, [0.25, 1.0, 2.0])
    zeta_check(data, 1, [0.3, 0.5])
    monkeypatch.undo()
    want = ManifoldData(N, 1.0, BETTI, tuple(synth_spectrum(5, 40, 1.0, 3, N)))
    assert data.geodesics == want.geodesics
    assert data == want


def test_columns_are_sorted_and_match_the_view(tmp_path):
    data = _mixed_spectrum(50)
    lengths = data.columns[0]
    assert list(lengths) == sorted(lengths)
    assert data.columns == tuple(
        tuple(getattr(g, name) for g in data.geodesics)
        for name in ("length", "power", "c_value", "chi", "holonomy")
    )
    path = tmp_path / "m.json"
    save_manifold(data, path)
    loaded = load_manifold(path)
    assert "geodesics" not in vars(loaded)  # the view is built on first read
    assert loaded.columns == data.columns
    assert loaded.geodesics == data.geodesics
    assert loaded.geodesics is loaded.geodesics
