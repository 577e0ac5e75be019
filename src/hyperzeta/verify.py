"""Self-verification suite behind the ``verify`` CLI subcommand.

Each check is named, independent, and reports pass/fail with a short
detail string.  The golden-table checks compare freshly computed exact
values against the shipped reference file; the cross-route checks pit
two independent computations of the same quantity against each other
(Bernoulli route vs direct continuation and its Fermi integral, H^n vs
S^n, Bessel form vs time integral).  ``fast=True`` drops the sphere and
Mellin checks but always keeps the golden tables.  No check needs mpmath.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import heat_zeta, manifold
from ._kernels.fallback import fermi_integral
from .anomaly import (
    TABLE1_DIMS,
    AnomalySpec,
    alpha_conformal_scalar,
    alpha_default,
    conformal_anomaly,
    conformal_scalar_anomaly,
    generate_table,
    zeta_moment_sum,
)
from .exact import PiValue, bernoulli
from .plancherel import miatello_coefficients

__all__ = [
    "CheckResult",
    "VerificationError",
    "run_verification",
    "load_golden",
    "float_matches_published",
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


def float_matches_published(value: PiValue, published: str) -> bool:
    """Compare against a published float allowing one unit in its sixth
    significant digit (reference columns were truncated, not rounded,
    in two places)."""
    ref = float(published)
    mine = float(value)
    if ref == 0.0:
        return mine == 0.0
    ulp = 10.0 ** (math.floor(math.log10(abs(ref))) - 5)
    return abs(mine - ref) <= ulp * (1.0 + 1e-9)


def _table2_cell(row: dict) -> tuple[str, PiValue]:
    # the cell the table command prints; _check_row has made (n, p) a populated one
    n, p = row["n"], row["p"]
    (cell,) = generate_table("custom", dims=[n], forms=[p])
    return f"(n={n},p={p})", cell.result


def _table1_cell(row: dict) -> tuple[str, PiValue]:
    n = row["n"]
    return f"n={n}", conformal_scalar_anomaly(n)


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
        direct = conformal_scalar_anomaly(n)
        via_pform = conformal_anomaly(
            AnomalySpec(dimension=n, form_order=0, alpha=alpha_conformal_scalar(n))
        )
        if direct != via_pform:
            return CheckResult(
                "specialization", False,
                f"n={n}: {direct.exact_str()} != {via_pform.exact_str()}",
            )
    return CheckResult("specialization", True, "scalar route == p-form route, n=2..14")


# (k, q, beta) of the continuation cases, and the (k, q) sectors whose Fermi
# integral is graded on its own
_BRIDGE_CASES = (
    (1, 0, Fraction(1, 4)),
    (2, 1, Fraction(13, 4)),
    (3, 2, Fraction(29, 4)),
    (4, 2, Fraction(25, 4)),
    (5, 4, Fraction(97, 4)),
)
_FERMI_SECTORS = ((12, 6), (27, 13), (50, 25), (75, 37), (100, 0), (100, 50), (100, 99))


def _fermi_gap(k: int, q: int) -> float:
    # |log F - log F_exact|, the relative error of F = fermi_integral, in logs
    # since F leaves the float range at k = 100.  F_exact = (E -
    # zeta_moment_sum(k, q, beta)) / 4 at every beta; at beta = 0, E = 0
    mantissa, _, _, ok, scale = fermi_integral(miatello_coefficients(k, q))
    want = -zeta_moment_sum(k, q, 0) / 4
    if not (ok and want > 0):
        return math.inf
    return abs(math.log(mantissa) + scale - math.log(want.numerator) + math.log(want.denominator))


def _check_moment_bridge() -> CheckResult:
    # same spectral moment through exact Bernoulli resummation and through
    # the Gamma-ratio + Fermi-integral continuation; routes share no code.
    # Past k = 20 E alone gives the moment to the float, so the Fermi
    # integral, which alone witnesses the Bernoulli numbers there, is graded
    # on its own up to k = 100
    worst = 0.0
    for k, q, beta in _BRIDGE_CASES:
        exact = float(zeta_moment_sum(k, q, beta))
        cont = heat_zeta.zeta_moment_continued(k, q, beta)
        worst = max(worst, abs(cont - exact) / max(abs(exact), 1e-300))
    if worst > 1e-9:
        return CheckResult("moment-bridge", False, f"worst rel diff {worst:.3e} > 1e-9")
    fermi = 0.0
    for k, q in _FERMI_SECTORS:
        gap = _fermi_gap(k, q)
        if not gap <= 1e-12:
            return CheckResult(
                "moment-bridge", False, f"Fermi integral (k={k}, q={q}) rel diff {gap:.3e} > 1e-12"
            )
        fermi = max(fermi, gap)
    return CheckResult(
        "moment-bridge", True,
        f"worst rel diff {worst:.3e}; Fermi integral to k=100 within {fermi:.3e}",
    )


def _sphere_degeneracy(k: int, q: int) -> list[int]:
    # g_0..g_(2k-1), the coefficients of y prod (y^2 - m^2) over odd m in
    # 1..2k-1 but 2(k-q)-1: at y = 2 nu, over 4^(k-1) q! (2k-1-q)!, the
    # degeneracy of the co-exact q-forms on S^(2k) at eigenvalue nu^2 -
    # (rho0 - q)^2, nu = rho0 + l (Ikeda & Taniguchi)
    g = [0, 1]
    for m in range(1, 2 * k, 2):
        if m != 2 * (k - q) - 1:
            g = [hi - m * m * lo for lo, hi in zip(g + [0, 0], [0, 0] + g)]
    return g


def _sphere_moment(k: int, q: int, beta: Fraction) -> Fraction:
    """(-1)^k zeta_moment_sum(k, q, beta), continued from S^(2k): S_q(beta) + Q_q.

    With D(nu) = sum_m e_m nu^m the degeneracy times q! (2k-1-q)!, S_q is
    the zeta(0) of sum over nu = rho0 + l, l >= 0, of D(nu) (nu^2 - beta)^(-s):
    -sum_m e_m B_(m+1)(rho0)/(m+1) + sum_(j>=1) beta^j e_(2j-1)/(2j).
    B_(m+1)(rho0) is stepped up from B_(m+1)(1/2) = (2^-m - 1) B_(m+1) by
    B_(m+1)(x+1) = B_(m+1)(x) + (m+1) x^m.  Q_q = D(rho0 - q) is the l = -q
    mode, the one half-integer below rho0 where D does not vanish (none for
    q = 0).  Every term is over 4^(k-1), as e_m = g_m 2^m / 4^(k-1).
    """
    g = _sphere_degeneracy(k, q)
    odd = [2 * i + 1 for i in range(k - 1)]  # 2x at x = 1/2 .. rho0 - 1
    powers, squares = list(odd), [y * y for y in odd]
    total = Fraction(0)
    for m in range(1, 2 * k, 2):  # D is odd: g_m = 0 at even m
        hurwitz = (1 - 2**m) * bernoulli(m + 1) / (m + 1) + sum(powers)
        total += g[m] * ((4 * beta) ** ((m + 1) // 2) / (2 * m + 2) - hurwitz)
        powers = [y * y2 for y, y2 in zip(powers, squares)]
    if q:
        y = 2 * (k - q) - 1
        total += sum(c * y**m for m, c in enumerate(g))
    return total / 4 ** (k - 1)


def _sphere_cell(n: int, p: int, alpha: Fraction) -> PiValue:
    # the anomaly of conformal_anomaly, from sphere moments: sector q at
    # shift alpha - p + q, with its side bracket q - 1 at its own shift
    k = n // 2
    moments = [(-1) ** k * _sphere_moment(k, q, alpha - p + q) for q in range(p + 1)]
    total = sum(
        (-1) ** (p - q) * math.comb(n - 1, q)
        * (moments[q] + (Fraction(q, n - p) * moments[q - 1] if q else 0))
        for q in range(p + 1)
    )
    return PiValue(total / (4**k * math.factorial(k - 1)), k)


def _check_sphere_continuation() -> CheckResult:
    # every Table 1 and Table 2 value, then the n = 200 scalar, against S^n
    cells = [(f"n={n}", n, 0, Fraction(1, 4), conformal_scalar_anomaly(n)) for n in TABLE1_DIMS]
    cells += [(f"(n={c.dimension},p={c.form_order})", c.dimension, c.form_order,
               alpha_default(c.dimension, c.form_order), c.result)
              for c in generate_table("table2") if not c.excluded]
    cells.append(("n=200", 200, 0, Fraction(1, 4), conformal_scalar_anomaly(200)))
    for label, n, p, alpha, got in cells:
        want = _sphere_cell(n, p, alpha)
        if got != want:
            return CheckResult(
                "sphere-continuation", False,
                f"{label} {got.exact_str()} != sphere {want.exact_str()}",
            )
    return CheckResult(
        "sphere-continuation", True,
        f"{len(cells)}/{len(cells)} values exact: Tables 1 and 2 and n=200",
    )


def _verification_spectrum() -> manifold.ManifoldData:
    geos = manifold.synth_spectrum(seed=11, count=4, min_length=1.0, max_power=3, n=4)
    return manifold.ManifoldData(
        dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1), geodesics=tuple(geos)
    )


def _zeta_checks() -> list[heat_zeta.ZetaCheck]:
    # the zeta-check records of p = 0 and 1; s-scaling grades p = 0's
    data = _verification_spectrum()
    return [heat_zeta.zeta_check(data, p, (0.3, 0.5, 0.7)) for p in (0, 1)]


def _check_mellin_vs_bessel(checks: list[heat_zeta.ZetaCheck]) -> CheckResult:
    worst = max(gap for check in checks for gap in check.gaps)
    if worst > 1e-8:
        return CheckResult("mellin-vs-bessel", False, f"worst rel diff {worst:.3e} > 1e-8")
    return CheckResult("mellin-vs-bessel", True, f"worst rel diff {worst:.3e}")


def _check_s_scaling(check: heat_zeta.ZetaCheck) -> CheckResult:
    if check.f_3 == 0.0:
        return CheckResult("s-scaling", False, "value at s=1e-3 is exactly zero")
    ratio = check.f_2 / check.f_3
    ident = abs(check.identity)
    small = max(abs(check.f_2), abs(check.f_3))
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
        results.append(_check_sphere_continuation())
        checks = _zeta_checks()
        results.append(_check_mellin_vs_bessel(checks))
        results.append(_check_s_scaling(checks[0]))
    return results
