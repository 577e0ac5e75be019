"""Spectral input data for compact hyperbolic quotients.

A manifold here is the data the trace formula consumes, nothing more:
dimension, a volume factor, Betti numbers, and a truncated geodesic
length spectrum with per-class weights.  Actual group-theoretic origins
(which lattice, which holonomies) stay outside; lengths are inputs.

Files use a versioned JSON layout documented in docs/manifold-format.md.
Unknown keys are rejected so a typo cannot silently drop a weight.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .exact import binomial, check_dimension

__all__ = [
    "GeodesicClass",
    "ManifoldData",
    "ManifoldFormatError",
    "load_manifold",
    "save_manifold",
    "manifold_to_dict",
    "trivial_holonomy_c",
    "synth_spectrum",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1


class ManifoldFormatError(ValueError):
    """Manifold file or data rejected; message names the violated rule and field."""

    def __init__(self, message: str, *, line: int | None = None, field_path: str | None = None):
        loc = []
        if field_path:
            loc.append(f"field {field_path}")
        if line is not None:
            loc.append(f"line {line}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
        self.line = line
        self.field_path = field_path


def trivial_holonomy_c(n: int, t: float) -> float:
    """Conjugacy-class weight C for trivial holonomy at geodesic length t.

    With trivial holonomy the adjoint acts on the n-1 dimensional nilpotent
    piece with every eigenvalue e^t, so the determinant in the definition of
    C collapses and

        C(t) = e^(-rho0*t) * (1 - e^(-t))^(-(n-1)),   rho0 = (n-1)/2.

    Derivation recorded in docs/manifold-format.md.
    """
    check_dimension(n)
    if t <= 0:
        raise ValueError("length must be positive")
    rho0 = (n - 1) / 2.0
    try:
        return math.exp(-rho0 * t) * (1.0 - math.exp(-t)) ** (-(n - 1))
    except (ZeroDivisionError, OverflowError):
        # 1 - e^-t rounds to 0, or its power leaves the float range
        raise ValueError(
            f"geodesic length {t:.6g} is too short at n={n}: its class weight "
            f"C = e^(-rho0 t) (1 - e^-t)^(1-n) is past the float range"
        ) from None


@dataclass(frozen=True, slots=True)
class GeodesicClass:
    """One closed-geodesic conjugacy class in the length spectrum.

    ``power`` is the iterate index j >= 1 (the class is a j-th power of a
    primitive).  ``holonomy`` is either None, meaning trivial holonomy with
    characters C(n-1, p), or an explicit tuple of character values indexed
    by form order p = 0..n-1.
    """

    length: float
    power: int = 1
    c_value: float | None = None
    chi: float = 1.0
    holonomy: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # a bool is an int to isinstance and to float(); it is not a number here
        for name in ("length", "c_value", "chi"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a boolean")
        # a length save_manifold can write; c and chi may be any real
        if not isinstance(self.length, (int, float)):
            raise ValueError("length must be a finite number")
        if self.holonomy is not None:
            object.__setattr__(self, "holonomy", tuple(map(_character, self.holonomy)))
        _check_classes([self.length], [self.power], [self.c_value], [self.chi], [self.holonomy])

    def c_factor(self, n: int) -> float:
        """The C weight: stored value if given, else the trivial-holonomy formula."""
        if self.c_value is not None:
            return self.c_value
        return trivial_holonomy_c(n, self.length)

    def character(self, n: int, p: int) -> float:
        """Holonomy character for the p-form sector, chi_{sigma_p}(m)."""
        if not 0 <= p <= n - 1:
            raise ValueError(f"form order p={p} outside 0..{n - 1}")
        if self.holonomy is None:
            return float(binomial(n - 1, p))
        if len(self.holonomy) != n:
            raise ValueError("holonomy character list must have length n (orders 0..n-1)")
        return self.holonomy[p]


@dataclass(frozen=True)
class ManifoldData:
    """Everything the heat-trace and zeta routines need about a quotient."""

    dimension: int
    volume: float
    betti: tuple[int, ...]
    geodesics: tuple[GeodesicClass, ...] = ()
    chi_one: float = 1.0
    radius: float = 1.0

    def __post_init__(self) -> None:
        n = check_dimension(self.dimension)
        for name in ("volume", "radius", "chi_one"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a boolean")
        if not (_isfinite(self.volume) and self.volume > 0):
            raise ValueError("volume must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        betti = tuple(self.betti)
        if len(betti) != n + 1:
            raise ValueError("betti must list b_0..b_n (length dimension+1)")
        if any(not isinstance(b, int) or isinstance(b, bool) or b < 0 for b in betti):
            raise ValueError("betti entries must be nonnegative integers")
        if not _isfinite(max(betti)):
            # led by the field's name, which the command line reads as --betti
            raise ManifoldFormatError(
                "betti entry too large to convert to float", field_path="betti"
            )
        object.__setattr__(self, "betti", betti)
        if not _isfinite(self.radius):
            raise ValueError("radius must be a finite number")
        if not _isfinite(self.chi_one):
            raise ValueError("chi_one must be a finite number")
        given = tuple(self.geodesics)
        for i, g in enumerate(given):
            if g.holonomy is not None and len(g.holonomy) != n:
                raise ManifoldFormatError(
                    f"holonomy must list n={n} character values (orders 0..{n - 1}), "
                    f"got {len(g.holonomy)}",
                    field_path=f"geodesics[{i}].holonomy",
                )
        # keep the spectrum sorted so truncation bounds can use the last entry
        geos = tuple(sorted(given, key=attrgetter("length")))
        object.__setattr__(self, "geodesics", geos)

    @property
    def max_length(self) -> float | None:
        return self.geodesics[-1].length if self.geodesics else None


# --- JSON serialization -----------------------------------------------------

_TOP_KEYS = {"format_version", "dimension", "volume", "betti", "geodesics", "chi_one", "radius"}
_GEO_KEYS = {"length", "power", "c", "chi", "holonomy"}


def _number(value, name: str) -> float:
    # float() reads a JSON true as 1.0; a boolean is not a number here.  The
    # ValueError is given its field by the caller's check, as float()'s are
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, not {json.dumps(value)}")
    return float(value)


def _top_number(doc: dict, key: str, default: float | None = None) -> float:
    # float()'s message does not say which field it read (nor does its
    # OverflowError on an integer past the float range); a boolean's does
    value = doc.get(key, default)
    try:
        return _number(value, key)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(value, bool):
            raise
        raise ManifoldFormatError(str(exc), field_path=key) from exc


def _isfinite(x) -> bool:
    # math.isfinite, with an integer past the float range not finite
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _finite(column) -> bool:
    # one sum for the common case; a sum of finite terms can still overflow.
    # A non-number gets math.isfinite's TypeError, not sum's
    try:
        return math.isfinite(sum(column)) or all(map(math.isfinite, column))
    except (TypeError, OverflowError):
        return all(map(_isfinite, column))


def _character(x) -> float:
    # a holonomy character as a float; one past the float range is not finite
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _check_classes(lengths, powers, c_values, chis, holonomy) -> None:
    """Raise the ValueError of the first value rule a column of classes breaks.

    The value rules of a class (docs/manifold-format.md, steps 6 to 10),
    for GeodesicClass on one-element columns, the loader and synth_spectrum.
    Longer columns hold floats (ints for powers); ``holonomy`` holds None
    or float tuples.
    """
    if not lengths:
        return
    given_c = [c for c in c_values if c is not None] if None in c_values else c_values
    twisted = holonomy.count(None) != len(holonomy)
    if not _finite(lengths):
        raise ValueError("length must be a finite number")
    # every length is finite by now, so min() is exact
    if min(lengths) <= 0:
        raise ValueError("length must be positive")
    # a bool is an int to isinstance; it is not a power
    kinds = set(map(type, powers))
    if any(k is bool or not issubclass(k, int) for k in kinds) or min(powers) < 1:
        raise ValueError("power must be a positive integer")
    if not _isfinite(max(powers)):
        raise ValueError("int too large to convert to float")
    # false for nan, so a nan c breaks the finiteness rule below
    if any(c <= 0 for c in given_c):
        raise ValueError("c must be positive")
    if twisted and any(h is not None and c is None for h, c in zip(holonomy, c_values)):
        raise ValueError("c must be supplied explicitly for nontrivial holonomy")
    if not _finite(given_c):
        raise ValueError("c must be a finite number")
    if not _finite(chis):
        raise ValueError("chi must be a finite number")
    if twisted and not all(_finite(h) for h in holonomy if h is not None):
        raise ValueError("holonomy character values must be finite")


# the slot setters of a class's fields, in _build's column order
_SETTERS = tuple(
    GeodesicClass.__dict__[name].__set__
    for name in ("length", "power", "c_value", "chi", "holonomy")
)


def _build(lengths, powers, c_values, chis, holonomy) -> tuple[GeodesicClass, ...]:
    # classes from checked columns, filled through the slot setters, as
    # copy and pickle rebuild a class: without rerunning __post_init__
    new = object.__new__
    set_length, set_power, set_c, set_chi, set_holonomy = _SETTERS
    classes = []
    for length, power, c_value, chi, hol in zip(lengths, powers, c_values, chis, holonomy):
        g = new(GeodesicClass)
        set_length(g, length)
        set_power(g, power)
        set_c(g, c_value)
        set_chi(g, chi)
        set_holonomy(g, hol)
        classes.append(g)
    return tuple(classes)


def _geodesic_classes(geos: list, index: int = 0) -> tuple[GeodesicClass, ...]:
    """The classes of a file's ``geodesics`` list; ``index`` is that of ``geos[0]``.

    Every rule of an entry is applied to whole columns, in the order one
    entry is checked: an object, no unknown field, a length, a holonomy
    that is "trivial" or a list of numbers, then length, c and chi
    converted to floats, then _check_classes; _build then makes the
    classes without rerunning __post_init__.  If a rule fails, each
    entry is checked alone, in order, so the error names the first bad
    entry (``geodesics[i]``) and the first rule it breaks.
    """
    if not geos:
        return ()
    try:
        if set(map(type, geos)) - {dict}:
            raise ValueError("geodesic entry must be an object")
        unknown = set().union(*geos) - _GEO_KEYS
        if unknown:
            raise ValueError(f"unknown field {sorted(unknown)[0]!r}")
        try:
            lengths = [g["length"] for g in geos]
        except KeyError:
            raise ValueError("length is required") from None
        hols = [g.get("holonomy", "trivial") for g in geos]
        trivial = hols.count("trivial") == len(hols)
        holonomy = [None] * len(geos)
        if not trivial:
            if not all(h == "trivial" or isinstance(h, list) for h in hols):
                raise ValueError('holonomy must be "trivial" or a list of character values')
            try:
                holonomy = [
                    None if h == "trivial" else tuple(_number(x, "holonomy character") for x in h)
                    for h in hols
                ]
            except (TypeError, ValueError, OverflowError) as exc:
                raise ManifoldFormatError(
                    str(exc), field_path=f"geodesics[{index}].holonomy"
                ) from exc
        powers = [g.get("power", 1) for g in geos]
        c_values = [g.get("c") for g in geos]
        chis = [g.get("chi", 1.0) for g in geos]
        # type() is exact, so a boolean or a numeric string is converted
        # (and a boolean rejected) by _number
        if set(map(type, lengths)) - {float}:
            lengths = [_number(x, "length") for x in lengths]
        if set(map(type, c_values)) - {float, type(None)}:
            c_values = [None if c is None else _number(c, "c") for c in c_values]
        if set(map(type, chis)) - {float}:
            chis = [_number(x, "chi") for x in chis]
        _check_classes(lengths, powers, c_values, chis, holonomy)
    except (TypeError, ValueError, OverflowError) as exc:
        if len(geos) > 1:
            # raise what the first entry that fails alone raises
            for i, entry in enumerate(geos, index):
                _geodesic_classes([entry], i)
            raise
        if isinstance(exc, ManifoldFormatError):
            raise
        raise ManifoldFormatError(str(exc), field_path=f"geodesics[{index}]") from exc
    return _build(lengths, powers, c_values, chis, holonomy)


def _manifold_from_dict(doc: dict) -> ManifoldData:
    if not isinstance(doc, dict):
        raise ManifoldFormatError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ManifoldFormatError(f"unknown field {sorted(unknown)[0]!r}")
    version = doc.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ManifoldFormatError(
            f"format_version must be {FORMAT_VERSION}", field_path="format_version"
        )
    for key in ("dimension", "volume", "betti"):
        if key not in doc:
            raise ManifoldFormatError(f"{key} is required", field_path=key)
    geos = doc.get("geodesics", [])
    if not isinstance(geos, list):
        raise ManifoldFormatError("geodesics must be an array", field_path="geodesics")
    classes = _geodesic_classes(geos)
    betti = doc["betti"]
    if not isinstance(betti, list):
        raise ManifoldFormatError("betti must be an array", field_path="betti")
    try:
        return ManifoldData(
            dimension=doc["dimension"],
            volume=_top_number(doc, "volume"),
            betti=tuple(betti),
            geodesics=classes,
            chi_one=_top_number(doc, "chi_one", 1.0),
            radius=_top_number(doc, "radius", 1.0),
        )
    except ManifoldFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise ManifoldFormatError(str(exc)) from exc


def load_manifold(path) -> ManifoldData:
    """Read and validate a manifold file; see docs/manifold-format.md."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifoldFormatError(f"not valid JSON: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or nesting deeper
        # than the parser's recursion limit
        raise ManifoldFormatError(f"not valid JSON: {exc}") from exc
    return _manifold_from_dict(doc)


def _entry(g: GeodesicClass) -> dict:
    # one class's object in a file's geodesics list
    entry: dict = {"length": g.length, "power": g.power}
    if g.c_value is not None:
        entry["c"] = g.c_value
    if g.chi != 1.0:
        entry["chi"] = g.chi
    entry["holonomy"] = "trivial" if g.holonomy is None else list(g.holonomy)
    return entry


def _header(data: ManifoldData) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "dimension": data.dimension,
        "volume": data.volume,
        "chi_one": data.chi_one,
        "radius": data.radius,
        "betti": list(data.betti),
    }


def manifold_to_dict(data: ManifoldData) -> dict:
    return {**_header(data), "geodesics": [_entry(g) for g in data.geodesics]}


# geodesic lines per write: large enough that writes are few, small enough
# that no string holds more than a sliver of a large spectrum
_CHUNK = 4096


def _write_manifold(data: ManifoldData, out) -> None:
    """Write ``data``'s file to the text stream ``out``, one geodesic per line.

    The header is laid out as json.dumps(indent=2) lays it out.  Each class
    is encoded alone by json.dumps without indent, which runs the C
    encoder, and lines go out in chunks, so no list of every class's
    object is built.
    """
    # the indented header without its closing "\n}"
    out.write(json.dumps(_header(data), indent=2)[:-2] + ',\n  "geodesics": [')
    geos = data.geodesics
    for start in range(0, len(geos), _CHUNK):
        lines = ",\n    ".join(json.dumps(_entry(g)) for g in geos[start:start + _CHUNK])
        out.write(("," if start else "") + "\n    " + lines)
    out.write("\n  ]\n}\n" if geos else "]\n}\n")


def save_manifold(data: ManifoldData, path) -> None:
    """Write a manifold file that load_manifold reads back equal."""
    with open(path, "w", encoding="utf-8") as out:
        _write_manifold(data, out)


def synth_spectrum(
    seed: int, count: int, min_length: float, max_power: int, n: int
) -> list[GeodesicClass]:
    """Deterministic synthetic length spectrum for exercising hyperbolic sums.

    Draws ``count`` primitive lengths uniformly from [min_length,
    min_length + 10) and expands each into iterates j = 1..max_power with
    length j * t and power j.  Holonomy is trivial throughout and the C
    weight is stored explicitly (computed from the trivial-holonomy formula)
    so saved spectra are self-contained.  A length whose weight underflows
    to 0.0 (rho0 t past about 745) raises OverflowError; one too short for
    the weight to be a float raises trivial_holonomy_c's ValueError.
    """
    check_dimension(n)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not (_isfinite(min_length) and min_length > 0):
        raise ValueError("min_length must be positive and finite")
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    rng = random.Random(seed)
    primitive = [min_length + 10.0 * rng.random() for _ in range(count)]
    lengths = [j * t for t in primitive for j in range(1, max_power + 1)]
    c_values = [trivial_holonomy_c(n, t) for t in lengths]
    if 0.0 in c_values:
        raise OverflowError(
            f"geodesic length {lengths[c_values.index(0.0)]:.6g} is too long at n={n}: "
            f"its class weight C = e^(-rho0 t) (1 - e^-t)^(1-n) is below the float range"
        )
    ones, trivial = [1.0] * len(lengths), [None] * len(lengths)
    columns = (lengths, list(range(1, max_power + 1)) * count, c_values, ones, trivial)
    _check_classes(*columns)
    return sorted(_build(*columns), key=attrgetter("length"))
