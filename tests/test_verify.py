"""Self-checks of verify: the golden-table details, and the tanh-series
check's precision rule and failure modes."""

import json
from fractions import Fraction

import mpmath
import pytest

from hyperzeta import heat_zeta, verify


def test_chosen_precision_matches_130_digits():
    pair = verify.tanh_series_pairs(Fraction(1, 20))[0]
    assert (pair.ell, pair.t, pair.dps) == (0, Fraction(1, 20), 101)
    with mpmath.workdps(130):
        reference = 2 * mpmath.quad(
            lambda r: r * mpmath.exp(-r * r / 20) * mpmath.tanh(mpmath.pi * r),
            [0, 8, mpmath.inf],
        )
        assert abs(pair.quad - reference) <= 1e-6 * pair.bound


def reference_pairs(t):
    # the quadrature with a per-ell integrand r^power * w and w cached per node
    series = [heat_zeta.tanh_moment_series_exact(ell, t) for ell in verify.TANH_ELLS]
    ratio = max(abs(value) / omitted for value, omitted, _ in series)
    dps = len(str(int(ratio))) + verify.TANH_GUARD_DIGITS
    pairs = []
    with mpmath.workdps(dps):
        tm, weights = mpmath.mpf(t.numerator) / t.denominator, {}

        def weight(r):
            if r not in weights:
                weights[r] = mpmath.exp(-tm * r * r) * mpmath.tanh(mpmath.pi * r)
            return weights[r]

        for ell, (value, omitted, _) in zip(verify.TANH_ELLS, series):
            power = 2 * ell + 1
            half, half_error = mpmath.quad(
                lambda r: r ** power * weight(r), [0, 8, mpmath.inf], error=True
            )
            quad = 2 * half
            exact = mpmath.mpf(value.numerator) / value.denominator
            bound = mpmath.mpf(omitted.numerator) / omitted.denominator
            pairs.append(verify.TanhPair(
                ell, t, quad, abs(quad - exact), bound, 2 * half_error, dps,
            ))
    return pairs


@pytest.fixture(scope="module")
def reference_at_one_fifth():
    return reference_pairs(Fraction(1, 5))


def test_running_moments_match_per_ell_integrand(monkeypatch, reference_at_one_fifth):
    quad, tanh = mpmath.quad, mpmath.tanh
    nodes, quads, tanhs = set(), [], []

    def counted_quad(f, *args, **kwargs):
        def seen(r):
            nodes.add(r._mpf_)
            return f(r)

        quads.append(args)
        return quad(seen, *args, **kwargs)

    def counted_tanh(x):
        tanhs.append(x)
        return tanh(x)

    monkeypatch.setattr(mpmath, "quad", counted_quad)
    monkeypatch.setattr(mpmath, "tanh", counted_tanh)
    got = verify.tanh_series_pairs(Fraction(1, 5))
    # one quadrature per ell, and tanh once per distinct node across the four
    assert len(quads) == 4
    assert len(tanhs) == len(nodes)
    assert got == reference_at_one_fifth


def test_running_moment_restarts_below_its_power(monkeypatch, reference_at_one_fifth):
    # ell 3 first leaves every node at r^7; ell 0 and ell 1 must restart it
    monkeypatch.setattr(verify, "TANH_ELLS", (3, 0, 2, 1))
    shuffled = verify.tanh_series_pairs(Fraction(1, 5))
    assert sorted(shuffled, key=lambda pair: pair.ell) == reference_at_one_fifth


def test_series_off_by_twice_the_bound_fails(monkeypatch):
    exact = heat_zeta.tanh_moment_series_exact

    def shifted(ell, t):
        value, omitted, used = exact(ell, t)
        if (ell, t) == (2, Fraction(1, 10)):
            value += 2 * omitted
        return value, omitted, used

    monkeypatch.setattr(heat_zeta, "tanh_moment_series_exact", shifted)
    result = verify._check_tanh_series()
    assert not result.passed
    assert result.detail.startswith("ell=2 t=1/10: err ")


def test_quadrature_error_estimate_over_gate_fails(monkeypatch):
    quad = mpmath.quad

    def unsure(*args, **kwargs):
        value, _ = quad(*args, **kwargs)
        return value, abs(value)

    monkeypatch.setattr(mpmath, "quad", unsure)
    result = verify._check_tanh_series()
    assert not result.passed
    assert result.detail.startswith("ell=0 t=1/20: quadrature error estimate ")


def test_reports_largest_margin_and_precision_per_t(monkeypatch):
    def pairs(t):
        return [
            verify.TanhPair(ell, t, mpmath.mpf(0), mpmath.mpf(ell) / 10, mpmath.mpf(1),
                            mpmath.mpf(0), t.denominator)
            for ell in verify.TANH_ELLS
        ]

    monkeypatch.setattr(verify, "tanh_series_pairs", pairs)
    result = verify._check_tanh_series()
    assert result.passed
    assert result.detail.endswith("worst err/bound 3.00e-01, dps 20/10/5")


def test_golden_table_details(tmp_path):
    # both tables, an exact and a float mismatch each, in report order
    blob = verify.load_golden()
    blob["table2"][0]["exact"] = "1/7 * pi^-1"
    blob["table2"][1]["published_float"] = "1.23456"
    blob["table1"][0]["published_float"] = "-9.87654"
    blob["table1"][1]["exact"] = "5/3 * pi^-2"
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(blob))
    assert verify.run_verification(fast=True, golden_path=str(path))[:2] == [
        verify.CheckResult(
            "golden-table2", False,
            "(n=2,p=0) exact -1/12 * pi^-1 != 1/7 * pi^-1; (n=4,p=0) float 0.012243 != 1.23456",
        ),
        verify.CheckResult(
            "golden-table1", False,
            "n=2 float -0.0265258 != -9.87654; n=4 exact -1/240 * pi^-2 != 5/3 * pi^-2",
        ),
    ]
    assert verify.run_verification(fast=True)[:2] == [
        verify.CheckResult("golden-table2", True, "15/15 cells exact, floats to 6 digits"),
        verify.CheckResult("golden-table1", True, "7/7 values exact, floats to 6 digits"),
    ]


@pytest.mark.parametrize("text,detail", [
    ("5", "golden file is not a JSON object"),
    ('{"table1": 7, "table2": []}', "golden file has no 'table1' list"),
])
def test_malformed_golden_file_named(tmp_path, text, detail):
    path = tmp_path / "golden.json"
    path.write_text(text)
    assert verify.run_verification(fast=True, golden_path=str(path))[0] == verify.CheckResult(
        "golden-load", False, detail
    )
