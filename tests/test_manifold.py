"""Manifold data model, file format, and the synthetic spectrum generator."""

import copy
import dataclasses
import json
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperzeta import manifold
from hyperzeta.exact import MAX_DIMENSION
from hyperzeta.manifold import (
    FORMAT_VERSION,
    MAX_SYNTH_CLASSES,
    GeodesicClass,
    ManifoldData,
    ManifoldFormatError,
    load_manifold,
    save_manifold,
    synth_spectrum,
    trivial_holonomy_c,
)
from test_manifold_loader_snapshot import BAD_ENTRIES, saved_document, synth_document


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

    @pytest.mark.parametrize("field,kwargs", [
        ("c", {"c_value": math.nan}),
        ("c", {"c_value": math.inf}),
        ("chi", {"chi": math.nan}),
        ("chi", {"chi": -math.inf}),
        ("holonomy", {"c_value": 1.0, "holonomy": (1.0, math.nan, 1.0, 1.0)}),
    ])
    def test_nonfinite_weight_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} .*finite"):
            GeodesicClass(length=1.0, **kwargs)

    def test_boolean_power_rejected(self):
        with pytest.raises(ValueError, match="power must be a positive integer"):
            GeodesicClass(length=1.0, power=True)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["length", "c_value", "chi"])
    def test_boolean_number_rejected(self, field, value):
        # isinstance(True, int) holds, so length=True, c_value=True was a class
        kwargs = {"length": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a number, not a boolean$"):
            GeodesicClass(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"length": 10**400}, "length must be a finite number"),
        ({"length": 1.0, "c_value": 10**400}, "c must be a finite number"),
        ({"length": 1.0, "chi": -(10**400)}, "chi must be a finite number"),
        ({"length": 1.0, "c_value": 1.0, "holonomy": (1, 10**400, 1, 1)},
         "holonomy character values must be finite"),
        ({"length": 1.0, "power": 10**400}, "int too large to convert to float"),
    ], ids=["length", "c", "chi", "holonomy", "power"])
    def test_integer_past_float_range_rejected(self, kwargs, message):
        # each raised OverflowError, and a power of 10**400 was a class
        with pytest.raises(ValueError) as err:
            GeodesicClass(**kwargs)
        assert type(err.value) is ValueError and str(err.value) == message

    @pytest.mark.parametrize("kwargs", [
        {"length": 1.0, "c_value": Fraction(1, 2)},
        {"length": 2, "chi": Fraction(1, 3)},
        {"length": 1.5, "power": type("Iterate", (int,), {})(3)},
    ])
    def test_any_real_weight_kept_as_given(self, kwargs):
        # ``(0.0).__ge__(Fraction(1, 2))`` is NotImplemented, which is
        # truthy: a c <= 0 rule written with it rejects a positive Fraction
        g = GeodesicClass(**kwargs)
        for name, value in kwargs.items():
            assert getattr(g, name) == value and type(getattr(g, name)) is type(value)


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

    @pytest.mark.parametrize("n,t", [(4, 1e-17), (4, 1e-300), (100, 1e-4)])
    def test_weight_past_float_range_rejected(self, n, t):
        # 1 - e^-t rounded to 0 (ZeroDivisionError) or its power overflowed
        with pytest.raises(ValueError) as err:
            trivial_holonomy_c(n, t)
        assert str(err.value).startswith(f"geodesic length {t:.6g} is too short at n={n}: ")
        assert str(err.value).endswith(" is past the float range")

    def test_smallest_weights_in_range_unchanged(self):
        # just above the limit the closed form is evaluated as before
        assert trivial_holonomy_c(4, 1e-15) == math.exp(-1.5e-15) * (1.0 - math.exp(-1e-15)) ** -3
        assert math.isfinite(trivial_holonomy_c(100, 1e-3))

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

    @pytest.mark.parametrize("field", ["radius", "chi_one"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            ManifoldData(dimension=2, volume=1.0, betti=(1, 0, 1), **{field: value})

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["volume", "radius", "chi_one"])
    def test_boolean_number_rejected(self, field, value):
        kwargs = {"dimension": 2, "volume": 1.0, "betti": (1, 0, 1), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a number, not a boolean$"):
            ManifoldData(**kwargs)

    @pytest.mark.parametrize("field,value,message", [
        ("volume", 10**400, "volume must be positive"),
        ("chi_one", -(10**400), "chi_one must be a finite number"),
        ("radius", 10**400, "radius must be a finite number"),
    ], ids=["volume", "chi_one", "radius"])
    def test_integer_past_float_range_rejected(self, field, value, message):
        # each raised math.isfinite's OverflowError
        kwargs = {"dimension": 2, "volume": 1.0, "betti": (1, 0, 1), field: value}
        with pytest.raises(ValueError) as err:
            ManifoldData(**kwargs)
        assert type(err.value) is ValueError and str(err.value) == message

    @pytest.mark.parametrize("betti", [(10**400, 0, 1), (1, 10**400, 1)], ids=["b0", "b1"])
    def test_betti_past_float_range_rejected(self, betti):
        # coexact_trace's float Betti sum raised OverflowError on these
        with pytest.raises(ManifoldFormatError) as err:
            ManifoldData(dimension=2, volume=1.0, betti=betti)
        assert str(err.value) == "betti entry too large to convert to float (field betti)"
        assert err.value.field_path == "betti"

    def test_boolean_betti_rejected(self):
        with pytest.raises(ValueError, match="betti entries must be nonnegative integers"):
            ManifoldData(dimension=2, volume=1.0, betti=(True, False, True))

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
        assert twisted.holonomy[1] == 2.5
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

    @pytest.mark.parametrize("geodesics", [
        (),
        (GeodesicClass(length=1.25, c_value=1 / 3),),
        (GeodesicClass(length=2.5, power=2, c_value=5e-324, chi=-0.0),
         GeodesicClass(length=0.1, chi=-1 / 7)),
        (GeodesicClass(length=3.0, c_value=0.1, chi=2.0,
                       holonomy=(1.0, -0.0, 1 / 3, -2.5)),
         GeodesicClass(length=3.0, c_value=0.2, holonomy=(1, 0, 0, 1))),
    ], ids=["empty", "c", "chi", "holonomy"])
    def test_round_trip_bit_exact(self, tmp_path, geodesics):
        data = ManifoldData(dimension=4, volume=1 / 3, betti=(1, 0, 7, 0, 1),
                            geodesics=geodesics, chi_one=-0.5)
        path = tmp_path / "m.json"
        save_manifold(data, path)
        back = load_manifold(path)
        # repr tells -0.0 from 0.0, which == does not
        assert back == data and repr(back) == repr(data)

    def test_one_geodesic_per_line(self, tmp_path, small_spectrum):
        path = tmp_path / "m.json"
        save_manifold(small_spectrum, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        entries = [json.loads(line.rstrip(",")) for line in lines if line.startswith("    {")]
        assert entries == saved_document(small_spectrum)["geodesics"]
        assert len(entries) == len(small_spectrum.geodesics) > 1

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

    @pytest.mark.parametrize("entry,message", [
        ({"length": 1.0, "c": math.nan}, "c must be a finite number (field geodesics[1])"),
        ({"length": 1.0, "c": math.inf}, "c must be a finite number (field geodesics[1])"),
        ({"length": 1.0, "chi": math.inf}, "chi must be a finite number (field geodesics[1])"),
        ({"length": 1.0, "chi": "nan"}, "chi must be a finite number (field geodesics[1])"),
        ({"length": 1.0, "c": 1.0, "holonomy": [1.0, math.nan, 1.0, 1.0]},
         "holonomy character values must be finite (field geodesics[1])"),
        ({"length": 1.0, "power": True}, "power must be a positive integer (field geodesics[1])"),
        ({"length": 1.0, "c": 1.0, "holonomy": ["a", 1, 1, 1]},
         "could not convert string to float: 'a' (field geodesics[1].holonomy)"),
        ({"length": 1.0, "c": 1.0, "holonomy": [1, None, 1, 1]},
         "float() argument must be a string or a real number, not 'NoneType' "
         "(field geodesics[1].holonomy)"),
        # integers past the float range ended in float()'s OverflowError
        ({"length": 10**400}, "int too large to convert to float (field geodesics[1])"),
        ({"length": 1.0, "c": 10**400}, "int too large to convert to float (field geodesics[1])"),
        ({"length": 1.0, "chi": -(10**400)},
         "int too large to convert to float (field geodesics[1])"),
        ({"length": 1.0, "c": 1.0, "holonomy": [1, 10**400, 1, 1]},
         "int too large to convert to float (field geodesics[1].holonomy)"),
        ({"length": 1.0, "power": 10**400},
         "int too large to convert to float (field geodesics[1])"),
    ])
    def test_bad_geodesic_value_named(self, tmp_path, entry, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format_version": FORMAT_VERSION, "dimension": 4, "volume": 1.0,
            "betti": [1, 0, 0, 0, 1], "geodesics": [{"length": 2.0}, entry],
        }))
        with pytest.raises(ManifoldFormatError) as err:
            load_manifold(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("field,value,message", [
        ("chi_one", math.nan, "chi_one must be a finite number"),
        ("radius", math.nan, "radius must be a finite number"),
        ("radius", math.inf, "radius must be a finite number"),
        ("format_version", True, "format_version must be 1 (field format_version)"),
        ("betti", [True, False, True], "betti entries must be nonnegative integers"),
        ("volume", None,
         "float() argument must be a string or a real number, not 'NoneType' (field volume)"),
        ("radius", [1.0],
         "float() argument must be a string or a real number, not 'list' (field radius)"),
    ])
    def test_bad_top_level_value_named(self, tmp_path, field, value, message):
        doc = {"format_version": FORMAT_VERSION, "dimension": 2, "volume": 1.0, "betti": [1, 0, 1]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(doc, **{field: value})))
        with pytest.raises(ManifoldFormatError) as err:
            load_manifold(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("value,reason", [
        (None, "float() argument must be a string or a real number, not 'NoneType'"),
        ([2.5], "float() argument must be a string or a real number, not 'list'"),
        ("big", "could not convert string to float: 'big'"),
        (10**400, "int too large to convert to float"),
    ])
    @pytest.mark.parametrize("field", ["volume", "chi_one", "radius"])
    def test_non_number_top_level_field_named(self, tmp_path, field, value, reason):
        doc = {"format_version": FORMAT_VERSION, "dimension": 2, "volume": 1.0, "betti": [1, 0, 1]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(doc, **{field: value})))
        with pytest.raises(ManifoldFormatError) as err:
            load_manifold(path)
        assert str(err.value) == f"{reason} (field {field})"
        assert err.value.field_path == field

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("where,field,message", [
        ("top", "volume", "volume must be a number, not {}"),
        ("top", "chi_one", "chi_one must be a number, not {}"),
        ("top", "radius", "radius must be a number, not {}"),
        ("geodesic", "length", "length must be a number, not {} (field geodesics[1])"),
        ("geodesic", "c", "c must be a number, not {} (field geodesics[1])"),
        ("geodesic", "chi", "chi must be a number, not {} (field geodesics[1])"),
        ("geodesic", "holonomy",
         "holonomy character must be a number, not {} (field geodesics[1].holonomy)"),
    ])
    def test_boolean_is_not_a_number(self, tmp_path, value, where, field, message):
        # float() reads true as 1.0, so such files loaded and ran
        doc = {"format_version": FORMAT_VERSION, "dimension": 4, "volume": 1.0,
               "betti": [1, 0, 0, 0, 1]}
        entry = {"length": 1.0, "c": 1.0}
        if where == "top":
            doc[field] = value
        elif field == "holonomy":
            entry[field] = [1.0, value, 1.0, 1.0]
        else:
            entry[field] = value
        doc["geodesics"] = [{"length": 2.0}, entry]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifoldFormatError) as err:
            load_manifold(path)
        assert str(err.value) == message.format(json.dumps(value))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "format_version": 1\n  "dimension": 2\n}')
        with pytest.raises(ManifoldFormatError) as err:
            load_manifold(path)
        assert err.value.line == 3

    def test_to_dict_marks_trivial_holonomy(self, small_spectrum):
        doc = saved_document(small_spectrum)
        assert all(g["holonomy"] == "trivial" for g in doc["geodesics"])


def _typed(classes) -> list:
    # every field of every class, with its type (and the holonomy's values')
    return [
        [f"{type(x).__name__}:{x!r}" for x in (g.length, g.power, g.c_value, g.chi)]
        + [g.holonomy if g.holonomy is None else [f"{type(x).__name__}:{x!r}" for x in g.holonomy]]
        for g in classes
    ]


def _classes(entries: list):
    # the classes of the columns _geodesic_classes reads from ``entries``,
    # or the error it raises
    try:
        return _typed(manifold._build(*manifold._geodesic_classes(entries)))
    except Exception as exc:  # compared, whatever the reader raises
        return type(exc).__name__, str(exc), getattr(exc, "field_path", None)


_FLOATS = st.floats(min_value=1e-3, max_value=50.0)
_BULK_ENTRY = st.fixed_dictionaries(
    {"length": _FLOATS},
    optional={
        "power": st.integers(min_value=1, max_value=3),
        "c": _FLOATS,
        "chi": st.floats(min_value=-3.0, max_value=3.0),
        "holonomy": st.just("trivial"),
    },
)
_OTHER_ENTRIES = list(BAD_ENTRIES.values()) + [
    # accepted, but not in the shape save_manifold writes
    {"length": 2},
    {"length": "1.5", "c": "0.5"},
    {"length": 1.5, "c": None},
    {"length": True},
    {"length": 1.5, "chi": 2},
    {"length": 1.5, "c": 0.5, "holonomy": [1.0, 5.0, 10.0, 10.0, 5.0, 1.0]},
    # rejected only since weights must be finite and powers not booleans
    {"length": 1.5, "c": math.nan},
    {"length": 1.5, "c": math.inf},
    {"length": 1.5, "chi": -math.inf},
    {"length": 1.5, "chi": math.nan},
    {"length": 1.5, "power": True},
    {"length": 1.5, "c": 0.5, "holonomy": [1.0, math.nan, 10.0, 10.0, 5.0, 1.0]},
    # rejected only since a power must be in the float range
    {"length": 1.5, "power": 10**400},
]


def _constructor_kwargs(entry):
    """The GeodesicClass arguments an entry stands for, or None.

    None where no value rule decides the entry: it is not an object with a
    length and known fields, or a length, c, chi or holonomy character is
    not an int or a float, so the loader's conversion judges it first.
    """
    if not isinstance(entry, dict) or "length" not in entry or set(entry) - manifold._GEO_KEYS:
        return None
    holonomy = entry.get("holonomy", "trivial")
    # a null c is an absent one
    numbers = [entry[key] for key in ("length", "chi") if key in entry]
    numbers += [] if entry.get("c") is None else [entry["c"]]
    if holonomy != "trivial":
        if not isinstance(holonomy, list):
            return None
        numbers += holonomy
    if any(type(x) not in (int, float) or abs(x) > sys.float_info.max for x in numbers):
        return None
    return {
        "length": entry["length"], "power": entry.get("power", 1), "c_value": entry.get("c"),
        "chi": entry.get("chi", 1.0), "holonomy": None if holonomy == "trivial" else tuple(holonomy),
    }


_RULE_CASES = [entry for entry in _OTHER_ENTRIES if _constructor_kwargs(entry) is not None]


class TestOneRuleSet:
    @pytest.mark.parametrize("entry", _RULE_CASES, ids=lambda entry: json.dumps(entry)[:60])
    def test_constructor_and_loader_agree(self, entry):
        # GeodesicClass raises what the loader raises for geodesics[0], less
        # the field, and accepts what it accepts
        try:
            manifold._geodesic_classes([entry])
            loader = None
        except ManifoldFormatError as exc:
            assert exc.field_path == "geodesics[0]"
            loader = str(exc).removesuffix(" (field geodesics[0])")
        try:
            GeodesicClass(**_constructor_kwargs(entry))
            constructor = None
        except ValueError as exc:
            constructor = str(exc)
        assert constructor == loader

    def test_every_class_rule_is_compared(self):
        messages = set()
        for entry in _RULE_CASES:
            try:
                manifold._geodesic_classes([entry])
            except ManifoldFormatError as exc:
                messages.add(str(exc).removesuffix(" (field geodesics[0])"))
        assert messages == {
            "length must be a finite number", "length must be positive",
            "power must be a positive integer", "int too large to convert to float",
            "c must be positive", "c must be supplied explicitly for nontrivial holonomy",
            "c must be a finite number", "chi must be a finite number",
            "holonomy character values must be finite",
        }

    def test_synth_spectrum_checks_its_columns(self, monkeypatch):
        # one check of every drawn column, and no __post_init__ per class
        calls = []
        monkeypatch.setattr(manifold, "_check_classes", lambda *cols: calls.append(cols))
        monkeypatch.setattr(GeodesicClass, "__post_init__", lambda self: calls.append(self))
        geos = synth_spectrum(seed=4, count=3, min_length=1.0, max_power=2, n=4)
        assert len(calls) == 1
        lengths, powers, c_values, chis, holonomy = calls[0]
        assert sorted(zip(lengths, powers, c_values)) == [(g.length, g.power, g.c_value) for g in geos]
        assert chis == [1.0] * 6 and holonomy == [None] * 6


class TestBulkLoad:
    @settings(max_examples=300, deadline=None)
    @given(entries=st.one_of(
        # one entry of another kind among saved-shape entries, or any mix
        st.builds(
            lambda bulk, other, at: bulk[:at] + [other] + bulk[at:],
            st.lists(_BULK_ENTRY, max_size=6), st.sampled_from(_OTHER_ENTRIES),
            st.integers(0, 6),
        ),
        st.lists(st.one_of(_BULK_ENTRY, st.sampled_from(_OTHER_ENTRIES)), max_size=8),
    ))
    def test_list_loads_as_its_entries_alone(self, entries):
        # a list loads as the concatenation of its entries loaded alone, or
        # raises the error of its first entry that fails alone, renumbered
        # from geodesics[0] to that entry's index
        alone = [_classes([entry]) for entry in entries]
        bad = next((i for i, got in enumerate(alone) if isinstance(got, tuple)), None)
        if bad is None:
            assert _classes(entries) == [g for got in alone for g in got]
            return
        kind, message, path = alone[bad]
        if path is not None:
            renumbered = path.replace("geodesics[0]", f"geodesics[{bad}]", 1)
            message = message.replace(f"(field {path})", f"(field {renumbered})")
            path = renumbered
        assert _classes(entries) == (kind, message, path)

    def test_saved_file_round_trip(self, small_spectrum):
        twisted = GeodesicClass(length=0.5, c_value=0.25, chi=-1.0, holonomy=(1, 0.5, 0.5, 1))
        geodesics = small_spectrum.geodesics + (twisted,)
        data = ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1), geodesics=geodesics)
        doc = saved_document(data)
        classes = manifold._build(*manifold._geodesic_classes(doc["geodesics"]))
        assert classes == data.geodesics
        assert _typed(classes) == _typed(data.geodesics)

    def test_last_bad_entry_of_6000_named(self, tmp_path):
        doc = synth_document()
        geos = list(doc["geodesics"])
        assert len(geos) == 6000
        geos[-1] = dict(geos[-1], c=math.nan)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(doc, geodesics=geos)))
        with pytest.raises(ManifoldFormatError) as err:
            load_manifold(path)
        assert str(err.value) == "c must be a finite number (field geodesics[5999])"


class TestSlots:
    """A class keeps its five fields in slots, however it is made: no instance dict."""

    @staticmethod
    def _made_every_way(tmp_path):
        twisted = GeodesicClass(length=0.5, c_value=0.25, chi=-1.0, holonomy=(1, 0.5, 0.5, 1))
        synthesised = synth_spectrum(seed=7, count=2, min_length=1.0, max_power=2, n=4)
        path = tmp_path / "m.json"
        save_manifold(
            ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1),
                         geodesics=(twisted, *synthesised)),
            path,
        )
        loaded = load_manifold(path).geodesics
        return {"constructor": [twisted, GeodesicClass(length=1.5)],
                "synth_spectrum": synthesised, "loader": list(loaded)}

    def test_no_instance_dict(self, tmp_path):
        for how, classes in self._made_every_way(tmp_path).items():
            for g in classes:
                assert not hasattr(g, "__dict__"), how

    def test_pickle_copy_and_replace_round_trip(self, tmp_path):
        for how, classes in self._made_every_way(tmp_path).items():
            for g in classes:
                assert pickle.loads(pickle.dumps(g)) == g, how
                assert copy.deepcopy(g) == g and copy.copy(g) == g, how
                assert dataclasses.replace(g) == g, how
                assert dataclasses.replace(g, chi=2.0).chi == 2.0, how

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GeodesicClass(length=1.5).length = 2.0


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

    def test_weight_below_float_range_raises(self):
        # at n = 40, rho0 = 39/2 and C = e^(-rho0 t)(1 - e^-t)^-39 underflows
        # to 0.0 near t = 38; a subnormal weight below that is still kept
        geos = synth_spectrum(seed=1, count=50, min_length=27.0, max_power=1, n=40)
        assert all(g.c_value > 0 for g in geos)
        assert min(g.c_value for g in geos) < sys.float_info.min
        with pytest.raises(OverflowError, match=r"length (3[89]|40)\S* is too long at n=40"):
            synth_spectrum(seed=1, count=50, min_length=30.0, max_power=1, n=40)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            synth_spectrum(seed=1, count=-1, min_length=1.0, max_power=1, n=2)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            synth_spectrum(seed=1, count=1, min_length=1.0, max_power=1, n=MAX_DIMENSION + 2)

    @pytest.mark.parametrize(
        "count,max_power", [(1, MAX_SYNTH_CLASSES + 1), (2, MAX_SYNTH_CLASSES)]
    )
    def test_class_cap_checked_before_drawing(self, monkeypatch, count, max_power):
        def drawn(*args):
            raise AssertionError("a class was drawn before the cap was checked")

        monkeypatch.setattr(manifold, "_trivial_weights", drawn)
        message = (
            rf"^count \* max_power classes must be at most MAX_SYNTH_CLASSES={MAX_SYNTH_CLASSES}, "
            rf"got {count * max_power}$"
        )
        with pytest.raises(ValueError, match=message):
            synth_spectrum(seed=1, count=count, min_length=1.0, max_power=max_power, n=4)

    def test_class_cap_admits_the_cap(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(manifold, "_trivial_weights", drawn)
        with pytest.raises(AssertionError, match="drawn"):
            synth_spectrum(seed=1, count=1, min_length=1.0, max_power=MAX_SYNTH_CLASSES, n=4)
