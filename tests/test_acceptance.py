"""Acceptance gate: the eight checks the package must pass before release.

Each test times itself against its budget and emits one PASS/FAIL line
through the ``criterion`` fixture; the lines are replayed in the terminal
summary.
"""

import pathlib
import re
import time
from fractions import Fraction

from hyperzeta import (
    AnomalySpec,
    PiValue,
    bernoulli,
    conformal_anomaly,
    conformal_scalar_anomaly,
    miatello_coefficients,
)
from hyperzeta.verify import (
    QUAD_ERROR_GATE,
    _check_mellin_vs_bessel,
    _check_s_scaling,
    _check_specialization,
    _zeta_checks,
    float_matches_published,
    load_golden,
    tanh_series_pairs,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_criterion_1_pform_table_golden(criterion):
    start = time.perf_counter()
    golden = load_golden()
    mismatches = []
    for row in golden["table2"]:
        n, p = row["n"], row["p"]
        got = conformal_anomaly(AnomalySpec(dimension=n, form_order=p,
                                            alpha=Fraction(p) + Fraction((n - 1) ** 2, 4)))
        if got != PiValue.parse(row["exact"]):
            mismatches.append(f"exact n={n} p={p}")
        if got.render_float(6) != row["published_float"]:
            mismatches.append(f"float n={n} p={p}")
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    criterion(1, "p-form anomaly table, 15 cells exact + 6-digit floats", ok,
              f"{len(golden['table2'])} cells, {elapsed:.3f}s"
              if ok else f"mismatches={mismatches} elapsed={elapsed:.3f}s")


def test_criterion_2_scalar_table_golden(criterion):
    start = time.perf_counter()
    golden = load_golden()
    mismatches = []
    for row in golden["table1"]:
        n = row["n"]
        got = conformal_scalar_anomaly(n)
        if got != PiValue.parse(row["exact"]):
            mismatches.append(f"exact n={n}")
        if not float_matches_published(got, row["published_float"]):
            mismatches.append(f"float n={n}")
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    criterion(2, "conformal scalar table, 7 values exact + floats", ok,
              f"{len(golden['table1'])} values, {elapsed:.3f}s"
              if ok else f"mismatches={mismatches} elapsed={elapsed:.3f}s")


def test_criterion_3_specialization_identity(criterion):
    result = _check_specialization()
    criterion(3, "scalar route equals 0-form route at alpha=1/4", result.passed, result.detail)


def test_criterion_4_tanh_series_vs_quadrature(criterion):
    start = time.perf_counter()
    failures = []
    worst = 0.0
    pairs = [
        pair
        for t in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))
        for pair in tanh_series_pairs(t)
    ]
    assert [pair.ell for pair in pairs] == [0, 1, 2, 3] * 3
    for pair in pairs:
        if pair.err > pair.bound or pair.quad_error > QUAD_ERROR_GATE * pair.bound:
            failures.append(f"ell={pair.ell} t={pair.t}")
        else:
            worst = max(worst, float(pair.err / pair.bound))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    criterion(4, "divergent tanh-moment series within first-omitted bound", ok,
              f"12 (ell,t) pairs, worst err/bound {worst:.2f}, {elapsed:.2f}s"
              if ok else f"failures={failures} elapsed={elapsed:.2f}s")


def test_criterion_5_bessel_vs_time_quadrature(criterion):
    start = time.perf_counter()
    result = _check_mellin_vs_bessel(_zeta_checks())
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 30.0
    criterion(5, "Bessel-K geodesic sum vs direct time quadrature", ok,
              f"{result.detail}, {elapsed:.2f}s")


def test_criterion_6_hyperbolic_vanishes_at_s0(criterion):
    result = _check_s_scaling(_zeta_checks()[0])
    criterion(6, "geodesic zeta term scales linearly to zero at s=0", result.passed,
              result.detail)


def test_criterion_7_property_suite(criterion):
    start = time.perf_counter()
    problems = []

    for k in range(1, 5):
        for p in range(2 * k):
            if miatello_coefficients(k, p) != miatello_coefficients(k, 2 * k - 1 - p):
                problems.append(f"symmetry k={k} p={p}")
    for k in range(1, 8):
        for p in range(2 * k):
            coeffs = miatello_coefficients(k, p)
            if coeffs[-1] != 1:
                problems.append(f"monic k={k} p={p}")
            if any(c <= 0 for c in coeffs):
                problems.append(f"positivity k={k} p={p}")
    for m in range(1, 41):
        b = bernoulli(2 * m)
        if b == 0 or (b > 0) != (m % 2 == 1):
            problems.append(f"bernoulli sign m={m}")
        if bernoulli(2 * m + 1) != 0:
            problems.append(f"bernoulli odd m={m}")
    for coeff in (Fraction(-67, 160), Fraction(0), Fraction(5), Fraction(29, 240)):
        for exponent in (0, 1, 2, 5):
            v = PiValue(coeff, exponent)
            if PiValue.parse(v.exact_str()) != v:
                problems.append(f"round-trip {v.exact_str()}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 5.0
    criterion(7, "property suite: symmetry, monic/positive, Bernoulli, rendering", ok,
              f"{elapsed:.2f}s" if ok else f"problems={problems[:4]} elapsed={elapsed:.2f}s")


def test_criterion_8_scope_statement_documented(criterion):
    readme = (REPO_ROOT / "README.md").read_text()
    section = re.search(r"## Scope and limitations\n(.+?)(?:\n## |\Z)", readme, re.S)
    ok = section is not None and "synthetic" in section.group(1) and (
        "not " in section.group(1) or "cannot" in section.group(1)
    )
    criterion(8, "README states true length spectra are out of desk-scale reach", bool(ok),
              "scope section present" if ok else "scope section missing or incomplete")
