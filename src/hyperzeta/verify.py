"""Self-verification suite behind the ``verify`` CLI subcommand.

Each check is named, independent, and reports pass/fail with a short
detail string.  The golden-table checks compare freshly computed exact
values against the shipped reference file; the cross-route checks pit
two independent computations of the same quantity against each other
(series vs quadrature, Bessel form vs time integral, Bernoulli route vs
direct continuation).  ``fast=True`` drops the quadrature-heavy checks
but always keeps the golden tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import mpmath

from . import heat_zeta, manifold
from .anomaly import (
    TABLE1_DIMS,
    AnomalySpec,
    alpha_conformal_scalar,
    alpha_default,
    conformal_anomaly,
    conformal_scalar_anomaly,
    zeta_moment_sum,
)
from .exact import PiValue

__all__ = [
    "CheckResult",
    "TanhPair",
    "VerificationError",
    "run_verification",
    "load_golden",
    "float_matches_published",
    "tanh_series_pairs",
]


class VerificationError(RuntimeError):
    """Raised when the golden reference file cannot be used at all."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_row(key: str, index: int, row) -> None:
    # a row must hold what its table's check reads: a valid (n, p) cell (p
    # is 0 in table1), an exact PiValue string and a finite published float
    where = f"golden {key}[{index}]"
    if not isinstance(row, dict):
        raise VerificationError(f"{where} is not an object")
    try:
        n, p = row["n"], row["p"] if key == "table2" else 0
        if not (type(n) is int and type(p) is int):
            raise ValueError(f"n={n!r} and p={p!r} must be integers")
        AnomalySpec(dimension=n, form_order=p, alpha=Fraction(0))
        PiValue.parse(row["exact"])
        published = float(row["published_float"])
        if not math.isfinite(published):
            raise ValueError(f"published_float {published!r} is not finite")
    except KeyError as exc:
        raise VerificationError(f"{where} has no {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise VerificationError(f"{where}: {exc}") from None


def load_golden(path: str | None = None) -> dict:
    """Load the golden reference tables and validate every row."""
    try:
        if path is None:
            ref = resources.files("hyperzeta").joinpath("data/golden_tables.json")
            text = ref.read_text(encoding="utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise VerificationError(f"cannot read golden file: {exc}") from exc
    try:
        blob = json.loads(text)
    # malformed, an integer past Python's digit limit, or nested too deeply
    except (ValueError, RecursionError) as exc:
        raise VerificationError(f"golden file is not valid JSON: {exc}") from exc
    if not isinstance(blob, dict):
        raise VerificationError("golden file is not a JSON object")
    for key, size in (("table1", 7), ("table2", 15)):
        rows = blob.get(key)
        if not isinstance(rows, list):
            raise VerificationError(f"golden file has no {key!r} list")
        if len(rows) != size:
            raise VerificationError("golden file has wrong table sizes")
        for index, row in enumerate(rows):
            _check_row(key, index, row)
    return blob


def float_matches_published(value: PiValue, published: str, digits: int = 6) -> bool:
    """Compare against a published float allowing one unit in the last
    significant digit (reference columns were truncated, not rounded,
    in two places)."""
    ref = float(published)
    mine = float(value)
    if ref == 0.0:
        return mine == 0.0
    ulp = 10.0 ** (math.floor(math.log10(abs(ref))) - (digits - 1))
    return abs(mine - ref) <= ulp * (1.0 + 1e-9)


def _table2_cell(row: dict) -> tuple[str, PiValue]:
    n, p = row["n"], row["p"]
    spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
    return f"(n={n},p={p})", conformal_anomaly(spec).value


def _table1_cell(row: dict) -> tuple[str, PiValue]:
    n = row["n"]
    return f"n={n}", conformal_scalar_anomaly(n).value


# (golden key, label and value of a row, what the PASS detail calls a row),
# in the order the checks are reported
_GOLDEN_TABLES = (("table2", _table2_cell, "cells"), ("table1", _table1_cell, "values"))


def _check_golden_tables(golden: dict) -> list[CheckResult]:
    results = []
    for key, cell, unit in _GOLDEN_TABLES:
        rows = golden[key]
        bad: list[str] = []
        for row in rows:
            label, got = cell(row)
            if got != PiValue.parse(row["exact"]):
                bad.append(f"{label} exact {got.exact_str()} != {row['exact']}")
            elif not float_matches_published(got, row["published_float"]):
                bad.append(f"{label} float {got.render_float(6)} != {row['published_float']}")
        if bad:
            results.append(CheckResult(f"golden-{key}", False, "; ".join(bad[:3])))
        else:
            detail = f"{len(rows)}/{len(rows)} {unit} exact, floats to 6 digits"
            results.append(CheckResult(f"golden-{key}", True, detail))
    return results


def _check_specialization() -> CheckResult:
    for n in TABLE1_DIMS:
        direct = conformal_scalar_anomaly(n).value
        via_pform = conformal_anomaly(
            AnomalySpec(dimension=n, form_order=0, alpha=alpha_conformal_scalar(n))
        ).value
        if direct != via_pform:
            return CheckResult(
                "specialization", False,
                f"n={n}: {direct.exact_str()} != {via_pform.exact_str()}",
            )
    return CheckResult("specialization", True, "scalar route == p-form route, n=2..14")


def _check_moment_bridge() -> CheckResult:
    # same spectral moment through exact Bernoulli resummation and through
    # the Gamma-ratio + Fermi-integral continuation; routes share no code
    cases = [
        (1, 0, Fraction(1, 4)),
        (2, 1, Fraction(13, 4)),
        (3, 2, Fraction(29, 4)),
        (4, 2, Fraction(25, 4)),
        (5, 4, Fraction(97, 4)),
    ]
    worst = 0.0
    for k, q, beta in cases:
        exact = float(zeta_moment_sum(k, q, beta))
        cont = heat_zeta.zeta_moment_continued(k, q, beta)
        rel = abs(cont - exact) / max(abs(exact), 1e-300)
        worst = max(worst, rel)
    if worst > 1e-9:
        return CheckResult("moment-bridge", False, f"worst rel diff {worst:.3e} > 1e-9")
    return CheckResult("moment-bridge", True, f"worst rel diff {worst:.3e}")


# The tanh-series comparison: every t pairs with ell = 0..3.
TANH_TIMES = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))
TANH_ELLS = range(4)
# Digits carried beyond the widest value/bound ratio at one t.
TANH_GUARD_DIGITS = 15
# Largest quadrature error estimate accepted, as a fraction of the bound.
QUAD_ERROR_GATE = 1e-6


@dataclass(frozen=True)
class TanhPair:
    """One (ell, t) comparison of the tanh-moment series with quadrature.

    ``quad`` is the integral over R by ``mpmath.quad``; ``err`` is its
    distance from the truncated series, ``bound`` the series' first omitted
    term, ``quad_error`` the quadrature's own error estimate and ``dps``
    the working precision, all at that precision.
    """

    ell: int
    t: Fraction
    quad: mpmath.mpf
    err: mpmath.mpf
    bound: mpmath.mpf
    quad_error: mpmath.mpf
    dps: int


def tanh_series_pairs(t: Fraction) -> list[TanhPair]:
    """Compare the exact tanh-moment series at t with quadrature, ell = 0..3.

    The working precision is the digit count of the largest
    |series value| / bound over the four ell, plus TANH_GUARD_DIGITS, so
    the quadrature resolves every bound with digits to spare.  The four
    integrands differ only by r^(2 ell + 1), so e^(-t r^2) tanh(pi r) is
    evaluated once per quadrature node and shared by the four quadratures.
    """

    def mpf(q: Fraction) -> mpmath.mpf:
        return mpmath.mpf(q.numerator) / q.denominator

    series = [heat_zeta.tanh_moment_series_exact(ell, t) for ell in TANH_ELLS]
    ratio = max(abs(value) / omitted for value, omitted, _ in series)
    dps = len(str(int(ratio))) + TANH_GUARD_DIGITS
    pairs = []
    with mpmath.workdps(dps):
        tm = mpf(t)
        weights = {}

        def weight(r):
            # e^(-t r^2) tanh(pi r) at this node, shared by the four ell
            w = weights.get(r)
            if w is None:
                w = weights[r] = mpmath.exp(-tm * r * r) * mpmath.tanh(mpmath.pi * r)
            return w

        for ell, (value, omitted, _) in zip(TANH_ELLS, series):
            power = 2 * ell + 1
            half, half_error = mpmath.quad(
                lambda r: r ** power * weight(r), [0, 8, mpmath.inf], error=True
            )
            quad = 2 * half
            pairs.append(TanhPair(
                ell, t, quad, abs(quad - mpf(value)), mpf(omitted), 2 * half_error, dps,
            ))
    return pairs


def _check_tanh_series() -> CheckResult:
    by_time = [tanh_series_pairs(t) for t in TANH_TIMES]
    pairs = [pair for at_t in by_time for pair in at_t]
    for pair in pairs:
        label = f"ell={pair.ell} t={pair.t}"
        if pair.err > pair.bound:
            return CheckResult(
                "tanh-series", False,
                f"{label}: err {mpmath.nstr(pair.err, 3)} > bound {mpmath.nstr(pair.bound, 3)}",
            )
        if pair.quad_error > QUAD_ERROR_GATE * pair.bound:
            return CheckResult(
                "tanh-series", False,
                f"{label}: quadrature error estimate {mpmath.nstr(pair.quad_error, 3)}"
                f" > {QUAD_ERROR_GATE:g} x bound {mpmath.nstr(pair.bound, 3)}",
            )
    worst = max(float(pair.err / pair.bound) for pair in pairs)
    dps = "/".join(str(at_t[0].dps) for at_t in by_time)
    return CheckResult(
        "tanh-series", True,
        f"series within first-omitted bound, worst err/bound {worst:.2e}, dps {dps}",
    )


def _verification_spectrum() -> manifold.ManifoldData:
    geos = manifold.synth_spectrum(seed=11, count=4, min_length=1.0, max_power=3, n=4)
    return manifold.ManifoldData(
        dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1), geodesics=tuple(geos)
    )


def _check_mellin_vs_bessel() -> CheckResult:
    data = _verification_spectrum()
    worst = 0.0
    s_values = (0.3, 0.5, 0.7)
    for p in (0, 1):
        bessels = heat_zeta.mellin_hyperbolic(data, p, s_values)
        quads = heat_zeta.mellin_hyperbolic_quadrature(data, p, s_values)
        for bessel, quad in zip(bessels, quads):
            rel = abs(bessel - quad) / max(abs(quad), 1e-300)
            worst = max(worst, rel)
    if worst > 1e-8:
        return CheckResult("mellin-vs-bessel", False, f"worst rel diff {worst:.3e} > 1e-8")
    return CheckResult("mellin-vs-bessel", True, f"worst rel diff {worst:.3e}")


def _check_s_scaling() -> CheckResult:
    data = _verification_spectrum()
    p = 0
    s_values = (1e-2, 1e-3)
    f = {
        s: value / math.gamma(s)
        for s, value in zip(s_values, heat_zeta.mellin_hyperbolic(data, p, s_values))
    }
    if f[1e-3] == 0.0:
        return CheckResult("s-scaling", False, "value at s=1e-3 is exactly zero")
    ratio = f[1e-2] / f[1e-3]
    ident = abs(heat_zeta.identity_zeta_term(data, p))
    small = max(abs(f[1e-2]), abs(f[1e-3]))
    if not (9.8 <= ratio <= 10.2):
        return CheckResult("s-scaling", False, f"ratio {ratio:.4f} outside [9.8, 10.2]")
    if small >= 1e-2 * ident:
        return CheckResult("s-scaling", False, f"magnitude {small:.3e} not << identity zeta(0) {ident:.3e}")
    return CheckResult("s-scaling", True, f"ratio {ratio:.4f}, magnitude {small:.2e} vs identity {ident:.2e}")


def run_verification(fast: bool = False, golden_path: str | None = None) -> list[CheckResult]:
    results: list[CheckResult] = []
    try:
        golden = load_golden(golden_path)
    except VerificationError as exc:
        results.append(CheckResult("golden-load", False, str(exc)))
        golden = None
    if golden is not None:
        results += _check_golden_tables(golden)
    results.append(_check_specialization())
    results.append(_check_moment_bridge())
    if not fast:
        results.append(_check_tanh_series())
        results.append(_check_mellin_vs_bessel())
        results.append(_check_s_scaling())
    return results
