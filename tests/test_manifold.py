"""Manifold data model, file format, and the synthetic spectrum generator."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperzeta.exact import MAX_DIMENSION, binomial
from hyperzeta.manifold import (
    FORMAT_VERSION,
    GeodesicClass,
    ManifoldData,
    ManifoldFormatError,
    load_manifold,
    manifold_to_dict,
    save_manifold,
    synth_spectrum,
    trivial_holonomy_c,
)


class TestGeodesicClass:
    def test_length_must_be_positive(self):
        with pytest.raises(ValueError, match="length must be positive"):
            GeodesicClass(length=0.0)

    def test_power_must_be_positive_integer(self):
        with pytest.raises(ValueError, match="power must be a positive integer"):
            GeodesicClass(length=1.0, power=0)

    def test_nontrivial_holonomy_requires_c(self):
        with pytest.raises(ValueError, match="c"):
            GeodesicClass(length=1.0, holonomy=(1.0, 2.0))

    def test_trivial_characters_are_binomials(self):
        g = GeodesicClass(length=1.0)
        for n in (2, 4, 6):
            for p in range(n):
                assert g.character(n, p) == float(binomial(n - 1, p))

    def test_trivial_character_symmetry(self):
        g = GeodesicClass(length=2.0)
        for n in (4, 6, 8):
            for p in range(n):
                assert g.character(n, p) == g.character(n, n - 1 - p)

    def test_c_factor_defaults_to_trivial_holonomy_formula(self):
        g = GeodesicClass(length=1.5)
        assert g.c_factor(4) == trivial_holonomy_c(4, 1.5)

    def test_explicit_c_wins(self):
        g = GeodesicClass(length=1.5, c_value=0.125)
        assert g.c_factor(4) == 0.125


class TestTrivialHolonomyC:
    def test_n2_value(self):
        got = trivial_holonomy_c(2, 1.0)
        want = math.exp(-0.5) / (1.0 - math.exp(-1.0))
        assert math.isclose(got, want, rel_tol=1e-15)
        assert abs(got - 0.9595) < 1e-4

    def test_n2_large_t_asymptote(self):
        for t in (20.0, 40.0):
            assert math.isclose(trivial_holonomy_c(2, t), math.exp(-t / 2), rel_tol=1e-8)

    def test_monotone_decreasing_beyond_one(self):
        for n in (2, 4, 6):
            values = [trivial_holonomy_c(n, t) for t in [1 + 0.25 * i for i in range(40)]]
            assert all(a > b for a, b in zip(values, values[1:])), n

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ValueError):
            trivial_holonomy_c(2, 0.0)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            trivial_holonomy_c(MAX_DIMENSION + 2, 1.0)


class TestManifoldData:
    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd dimensions out of scope"):
            ManifoldData(dimension=3, volume=1.0, betti=(1, 0, 0, 1))

    def test_dimension_cap(self):
        n = MAX_DIMENSION + 2
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            ManifoldData(dimension=n, volume=1.0, betti=(1,) + (0,) * (n - 1) + (1,))

    def test_betti_length_enforced(self):
        with pytest.raises(ValueError, match="betti"):
            ManifoldData(dimension=2, volume=1.0, betti=(1, 0))

    def test_geodesics_sorted_by_length(self):
        g1 = GeodesicClass(length=3.0)
        g2 = GeodesicClass(length=1.0)
        data = ManifoldData(dimension=2, volume=1.0, betti=(1, 0, 1), geodesics=(g1, g2))
        assert [g.length for g in data.geodesics] == [1.0, 3.0]
        assert data.max_length == 3.0

    def test_empty_spectrum_max_length_none(self):
        data = ManifoldData(dimension=2, volume=1.0, betti=(1, 0, 1))
        assert data.max_length is None

    def test_holonomy_length_enforced(self):
        good = GeodesicClass(length=2.0, c_value=1.0, holonomy=(1.0, 2.0, 2.0, 1.0))
        short = GeodesicClass(length=1.0, c_value=1.0, holonomy=(1.0, 2.0))
        with pytest.raises(ValueError, match=r"n=4 character values.*geodesics\[1\]\.holonomy"):
            ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1), geodesics=(good, short))


class TestFileFormat:
    def test_conformance_fixture(self, conformance_path):
        data = load_manifold(conformance_path)
        assert data.dimension == 4
        assert data.volume == 2.5
        assert data.betti == (1, 0, 2, 0, 1)
        assert len(data.geodesics) == 3
        assert [g.length for g in data.geodesics] == [1.2, 1.7, 2.4]
        twisted = data.geodesics[1]
        assert twisted.chi == -1.0
        assert twisted.holonomy == (1.0, 2.5, 2.5, 1.0)
        assert twisted.character(4, 1) == 2.5
        # explicit c on the iterate must round-trip untouched
        assert data.geodesics[2].c_value == pytest.approx(0.11532562366823190, abs=0)

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format_version": FORMAT_VERSION,
            "dimension": 2,
            "volume": 1.0,
            "betti": [1, 0, 1],
        }))
        data = load_manifold(path)
        assert data.geodesics == ()
        assert data.chi_one == 1.0 and data.radius == 1.0

    def test_round_trip(self, tmp_path, small_spectrum):
        path = tmp_path / "spec.json"
        save_manifold(small_spectrum, path)
        assert load_manifold(path) == small_spectrum

    @given(
        n=st.integers(min_value=1, max_value=3).map(lambda k: 2 * k),
        volume=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        lengths=st.lists(
            st.floats(min_value=0.01, max_value=50.0), min_size=0, max_size=6
        ),
    )
    def test_round_trip_random(self, n, volume, lengths, tmp_path_factory):
        geos = tuple(GeodesicClass(length=x) for x in lengths)
        data = ManifoldData(
            dimension=n, volume=volume, betti=(1,) + (0,) * (n - 1) + (1,),
            geodesics=geos,
        )
        path = tmp_path_factory.mktemp("rt") / "m.json"
        save_manifold(data, path)
        assert load_manifold(path) == data

    def test_zero_length_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format_version": FORMAT_VERSION,
            "dimension": 2,
            "volume": 1.0,
            "betti": [1, 0, 1],
            "geodesics": [{"length": 0.0}],
        }))
        with pytest.raises(ManifoldFormatError, match="length must be positive"):
            load_manifold(path)

    def test_odd_dimension_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format_version": FORMAT_VERSION,
            "dimension": 3,
            "volume": 1.0,
            "betti": [1, 0, 0, 1],
        }))
        with pytest.raises(ManifoldFormatError, match="odd dimensions out of scope"):
            load_manifold(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format_version": FORMAT_VERSION,
            "dimension": 2,
            "volume": 1.0,
            "betti": [1, 0, 1],
            "genus": 2,
        }))
        with pytest.raises(ManifoldFormatError, match="genus"):
            load_manifold(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format_version": 99,
            "dimension": 2,
            "volume": 1.0,
            "betti": [1, 0, 1],
        }))
        with pytest.raises(ManifoldFormatError, match="format_version"):
            load_manifold(path)

    @pytest.mark.parametrize("length", [2, 5])
    def test_wrong_holonomy_length_rejected(self, tmp_path, length):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format_version": FORMAT_VERSION,
            "dimension": 4,
            "volume": 1.0,
            "betti": [1, 0, 0, 0, 1],
            "geodesics": [
                {"length": 1.0},
                {"length": 0.5, "c": 1.0, "holonomy": [1.0] * length},
            ],
        }))
        with pytest.raises(ManifoldFormatError, match="n=4 character values") as err:
            load_manifold(path)
        assert err.value.field_path == "geodesics[1].holonomy"

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "format_version": 1\n  "dimension": 2\n}')
        with pytest.raises(ManifoldFormatError) as err:
            load_manifold(path)
        assert err.value.line == 3

    def test_to_dict_marks_trivial_holonomy(self, small_spectrum):
        doc = manifold_to_dict(small_spectrum)
        assert all(g["holonomy"] == "trivial" for g in doc["geodesics"])


class TestSynthSpectrum:
    def test_count_zero_empty(self):
        assert synth_spectrum(seed=1, count=0, min_length=1.0, max_power=3, n=2) == []

    def test_deterministic(self):
        a = synth_spectrum(seed=42, count=3, min_length=1.0, max_power=2, n=4)
        b = synth_spectrum(seed=42, count=3, min_length=1.0, max_power=2, n=4)
        assert a == b

    def test_different_seed_differs(self):
        a = synth_spectrum(seed=1, count=3, min_length=1.0, max_power=1, n=4)
        b = synth_spectrum(seed=2, count=3, min_length=1.0, max_power=1, n=4)
        assert a != b

    def test_iterate_structure(self):
        geos = synth_spectrum(seed=5, count=2, min_length=1.0, max_power=3, n=2)
        assert len(geos) == 6
        prims = sorted(g.length for g in geos if g.power == 1)
        assert len(prims) == 2
        for g in geos:
            # iterate length is the exact float product power * primitive
            assert any(g.length == g.power * t for t in prims)
        assert sorted(g.power for g in geos) == [1, 1, 2, 2, 3, 3]

    def test_lengths_in_window(self):
        geos = synth_spectrum(seed=9, count=5, min_length=2.0, max_power=1, n=4)
        assert all(2.0 <= g.length < 12.0 for g in geos)

    def test_c_filled_from_trivial_holonomy(self):
        geos = synth_spectrum(seed=3, count=1, min_length=1.0, max_power=2, n=4)
        for g in geos:
            assert g.c_value == pytest.approx(trivial_holonomy_c(4, g.length), abs=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            synth_spectrum(seed=1, count=-1, min_length=1.0, max_power=1, n=2)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            synth_spectrum(seed=1, count=1, min_length=1.0, max_power=1, n=MAX_DIMENSION + 2)
