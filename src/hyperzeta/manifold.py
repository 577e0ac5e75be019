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
    return math.exp(-rho0 * t) * (1.0 - math.exp(-t)) ** (-(n - 1))


@dataclass(frozen=True)
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
        if not (isinstance(self.length, (int, float)) and math.isfinite(self.length)):
            raise ValueError("length must be a finite number")
        if self.length <= 0:
            raise ValueError("length must be positive")
        # a JSON true is an int to isinstance; it is not a power
        if not isinstance(self.power, int) or isinstance(self.power, bool) or self.power < 1:
            raise ValueError("power must be a positive integer")
        if self.c_value is not None and self.c_value <= 0:
            raise ValueError("c must be positive")
        if self.holonomy is not None:
            object.__setattr__(self, "holonomy", tuple(float(x) for x in self.holonomy))
            if self.c_value is None:
                raise ValueError("c must be supplied explicitly for nontrivial holonomy")
        # after the checks above, so every value they reject keeps its message
        if self.c_value is not None and not math.isfinite(self.c_value):
            raise ValueError("c must be a finite number")
        if not math.isfinite(self.chi):
            raise ValueError("chi must be a finite number")
        if self.holonomy is not None and not all(map(math.isfinite, self.holonomy)):
            raise ValueError("holonomy character values must be finite")

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
        if not (math.isfinite(self.volume) and self.volume > 0):
            raise ValueError("volume must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        betti = tuple(self.betti)
        if len(betti) != n + 1:
            raise ValueError("betti must list b_0..b_n (length dimension+1)")
        if any(not isinstance(b, int) or isinstance(b, bool) or b < 0 for b in betti):
            raise ValueError("betti entries must be nonnegative integers")
        object.__setattr__(self, "betti", betti)
        if not math.isfinite(self.radius):
            raise ValueError("radius must be a finite number")
        if not math.isfinite(self.chi_one):
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


def _finite(column) -> bool:
    # one sum for the common case; a sum of finite terms can still overflow
    return math.isfinite(sum(column)) or all(map(math.isfinite, column))


def _geodesic_classes(geos: list, index: int = 0) -> tuple[GeodesicClass, ...]:
    """The classes of a file's ``geodesics`` list; ``index`` is that of ``geos[0]``.

    Every rule of an entry is applied to whole columns, in the order one
    entry is checked: an object, no unknown field, a length, a holonomy
    that is "trivial" or a list of numbers, then length, c and chi
    converted to floats and GeodesicClass's rules in __post_init__'s
    order.  Each class is then built the way copy and pickle rebuild a
    frozen dataclass, without rerunning __post_init__.  If a rule fails,
    each entry is checked alone, in order, so the error names the first
    bad entry (``geodesics[i]``) and the first rule it breaks.
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
        given_c = [c for c in c_values if c is not None] if None in c_values else c_values
        if not _finite(lengths):
            raise ValueError("length must be a finite number")
        # every length is finite by now, so min() is exact
        if min(lengths) <= 0:
            raise ValueError("length must be positive")
        if set(map(type, powers)) - {int} or min(powers) < 1:
            raise ValueError("power must be a positive integer")
        # c <= 0 written as 0.0 >= c: false for nan, as in __post_init__
        if any(map((0.0).__ge__, given_c)):
            raise ValueError("c must be positive")
        if not trivial and any(h is not None and c is None for h, c in zip(holonomy, c_values)):
            raise ValueError("c must be supplied explicitly for nontrivial holonomy")
        if not _finite(given_c):
            raise ValueError("c must be a finite number")
        if not _finite(chis):
            raise ValueError("chi must be a finite number")
        if not trivial and not all(_finite(h) for h in holonomy if h is not None):
            raise ValueError("holonomy character values must be finite")
    except (TypeError, ValueError, OverflowError) as exc:
        if len(geos) > 1:
            # raise what the first entry that fails alone raises
            for i, entry in enumerate(geos, index):
                _geodesic_classes([entry], i)
            raise
        if isinstance(exc, ManifoldFormatError):
            raise
        raise ManifoldFormatError(str(exc), field_path=f"geodesics[{index}]") from exc
    new = object.__new__
    classes = []
    for length, power, c_value, chi, hol in zip(lengths, powers, c_values, chis, holonomy):
        g = new(GeodesicClass)
        g.__dict__.update(length=length, power=power, c_value=c_value, chi=chi, holonomy=hol)
        classes.append(g)
    return tuple(classes)


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


def manifold_to_dict(data: ManifoldData) -> dict:
    geos = []
    for g in data.geodesics:
        entry: dict = {"length": g.length, "power": g.power}
        if g.c_value is not None:
            entry["c"] = g.c_value
        if g.chi != 1.0:
            entry["chi"] = g.chi
        entry["holonomy"] = "trivial" if g.holonomy is None else list(g.holonomy)
        geos.append(entry)
    return {
        "format_version": FORMAT_VERSION,
        "dimension": data.dimension,
        "volume": data.volume,
        "chi_one": data.chi_one,
        "radius": data.radius,
        "betti": list(data.betti),
        "geodesics": geos,
    }


def save_manifold(data: ManifoldData, path) -> None:
    """Write a manifold file that load_manifold reads back equal."""
    Path(path).write_text(
        json.dumps(manifold_to_dict(data), indent=2) + "\n", encoding="utf-8"
    )


def synth_spectrum(
    seed: int, count: int, min_length: float, max_power: int, n: int
) -> list[GeodesicClass]:
    """Deterministic synthetic length spectrum for exercising hyperbolic sums.

    Draws ``count`` primitive lengths uniformly from [min_length,
    min_length + 10) and expands each into iterates j = 1..max_power with
    length j * t and power j.  Holonomy is trivial throughout and the C
    weight is stored explicitly (computed from the trivial-holonomy formula)
    so saved spectra are self-contained.  A length whose weight underflows
    to 0.0 (rho0 t past about 745) raises OverflowError.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if min_length <= 0:
        raise ValueError("length must be positive")
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    check_dimension(n)
    rng = random.Random(seed)
    classes = []
    for _ in range(count):
        t_prim = min_length + 10.0 * rng.random()
        for j in range(1, max_power + 1):
            t = j * t_prim
            c_value = trivial_holonomy_c(n, t)
            if c_value == 0.0:
                raise OverflowError(
                    f"geodesic length {t:.6g} is too long at n={n}: its class weight "
                    f"C = e^(-rho0 t) (1 - e^-t)^(1-n) is below the float range"
                )
            classes.append(
                GeodesicClass(
                    length=t,
                    power=j,
                    c_value=c_value,
                    chi=1.0,
                    holonomy=None,
                )
            )
    return sorted(classes, key=lambda g: g.length)
