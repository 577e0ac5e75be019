"""Self-checks of verify: the golden-table details and the shipped golden
file; the tanh-series reference's precision rule and failure modes
(tanh_reference); and the moment-bridge and sphere-continuation lines
against a wrong Bernoulli number or Plancherel coefficient."""

import math
from fractions import Fraction

import mpmath
import pytest

import tanh_reference
from hyperzeta import anomaly, verify


def test_chosen_precision_matches_130_digits():
    pair = tanh_reference.tanh_series_pairs(Fraction(1, 20))[0]
    assert (pair.ell, pair.t, pair.dps) == (0, Fraction(1, 20), 101)
    with mpmath.workdps(130):
        reference = 2 * mpmath.quad(
            lambda r: r * mpmath.exp(-r * r / 20) * mpmath.tanh(mpmath.pi * r),
            [0, 8, mpmath.inf],
        )
        assert abs(pair.quad - reference) <= 1e-6 * pair.bound


def reference_pairs(t):
    # the quadrature with a per-ell integrand r^power * w and w cached per node
    series = [
        tanh_reference.tanh_moment_series_exact(ell, t) for ell in tanh_reference.TANH_ELLS
    ]
    ratio = max(abs(value) / omitted for value, omitted, _ in series)
    dps = len(str(int(ratio))) + tanh_reference.TANH_GUARD_DIGITS
    pairs = []
    with mpmath.workdps(dps):
        tm, weights = mpmath.mpf(t.numerator) / t.denominator, {}

        def weight(r):
            if r not in weights:
                weights[r] = mpmath.exp(-tm * r * r) * mpmath.tanh(mpmath.pi * r)
            return weights[r]

        for ell, (value, omitted, _) in zip(tanh_reference.TANH_ELLS, series):
            power = 2 * ell + 1
            half, half_error = mpmath.quad(
                lambda r: r ** power * weight(r), [0, 8, mpmath.inf], error=True
            )
            quad = 2 * half
            exact = mpmath.mpf(value.numerator) / value.denominator
            bound = mpmath.mpf(omitted.numerator) / omitted.denominator
            pairs.append(tanh_reference.TanhPair(
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
    got = tanh_reference.tanh_series_pairs(Fraction(1, 5))
    # one quadrature per ell, and tanh once per distinct node across the four
    assert len(quads) == 4
    assert len(tanhs) == len(nodes)
    assert got == reference_at_one_fifth


def test_running_moment_restarts_below_its_power(monkeypatch, reference_at_one_fifth):
    # ell 3 first leaves every node at r^7; ell 0 and ell 1 must restart it
    monkeypatch.setattr(tanh_reference, "TANH_ELLS", (3, 0, 2, 1))
    shuffled = tanh_reference.tanh_series_pairs(Fraction(1, 5))
    assert sorted(shuffled, key=lambda pair: pair.ell) == reference_at_one_fifth


def test_series_off_by_twice_the_bound_fails(monkeypatch):
    exact = tanh_reference.tanh_moment_series_exact

    def shifted(ell, t):
        value, omitted, used = exact(ell, t)
        if (ell, t) == (2, Fraction(1, 10)):
            value += 2 * omitted
        return value, omitted, used

    monkeypatch.setattr(tanh_reference, "tanh_moment_series_exact", shifted)
    result = tanh_reference.check_tanh_series()
    assert not result.passed
    assert result.detail.startswith("ell=2 t=1/10: err ")


def test_quadrature_error_estimate_over_gate_fails(monkeypatch):
    quad = mpmath.quad

    def unsure(*args, **kwargs):
        value, _ = quad(*args, **kwargs)
        return value, abs(value)

    monkeypatch.setattr(mpmath, "quad", unsure)
    result = tanh_reference.check_tanh_series()
    assert not result.passed
    assert result.detail.startswith("ell=0 t=1/20: quadrature error estimate ")


def test_reports_largest_margin_and_precision_per_t(monkeypatch):
    def pairs(t):
        return [
            tanh_reference.TanhPair(ell, t, mpmath.mpf(0), mpmath.mpf(ell) / 10, mpmath.mpf(1),
                            mpmath.mpf(0), t.denominator)
            for ell in tanh_reference.TANH_ELLS
        ]

    monkeypatch.setattr(tanh_reference, "tanh_series_pairs", pairs)
    result = tanh_reference.check_tanh_series()
    assert result.passed
    assert result.detail.endswith("worst err/bound 3.00e-01, dps 20/10/5")


def test_golden_table_details(monkeypatch):
    # both tables, an exact and a float mismatch each, in report order
    blob = verify.load_golden()
    blob["table2"][0]["exact"] = "1/7 * pi^-1"
    blob["table2"][1]["published_float"] = "1.23456"
    blob["table1"][0]["published_float"] = "-9.87654"
    blob["table1"][1]["exact"] = "5/3 * pi^-2"
    with monkeypatch.context() as patch:
        patch.setattr(verify, "load_golden", lambda: blob)
        assert verify.run_verification(fast=True)[:2] == [
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


def test_shipped_golden_file_is_well_formed():
    # verify reads the shipped file unchecked: it must be an object holding
    # 7 table1 and 15 table2 rows, each row an object
    blob = verify.load_golden()
    assert isinstance(blob, dict)
    assert (len(blob["table1"]), len(blob["table2"])) == (7, 15)
    assert all(isinstance(row, dict) for key in ("table1", "table2") for row in blob[key])


_SHIPPED_ROWS = [
    (key, row) for key in ("table1", "table2") for row in verify.load_golden()[key]
]


@pytest.mark.parametrize(
    "key,row",
    _SHIPPED_ROWS,
    ids=[f"{key}-n{row['n']}-p{row.get('p', 0)}" for key, row in _SHIPPED_ROWS],
)
def test_shipped_golden_row_is_well_formed(key, row):
    # every row holds what its table's check reads: a populated (n, p) cell
    # (p is 0 in table1), an exact PiValue string and a finite published float
    n, p = row["n"], row["p"] if key == "table2" else 0
    assert type(n) is int and type(p) is int
    anomaly.AnomalySpec(dimension=n, form_order=p, alpha=Fraction(0))
    verify.PiValue.parse(row["exact"])
    assert math.isfinite(float(row["published_float"]))


def test_shipped_golden_cells_are_distinct():
    # a repeated (n, p) would leave some published cell unchecked
    for key in ("table1", "table2"):
        cells = [(row["n"], row.get("p", 0)) for row in verify.load_golden()[key]]
        assert len(set(cells)) == len(cells), key


@pytest.fixture()
def fresh_exact_caches():
    # the exact core memoises what it reads of bernoulli and of the Plancherel
    # coefficients; a patched reader needs empty memos, and leaves none behind
    caches = (anomaly._bern_weight, anomaly._row_weights, anomaly._prefix_sums)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def failed_lines(results) -> dict:
    return {r.name: r.detail for r in results if not r.passed}


def test_one_wrong_bernoulli_number_fails(monkeypatch, fresh_exact_caches):
    # B_10 one off, as the exact core reads it: the Fermi integral grade and
    # the sphere both see it
    exact = anomaly.bernoulli
    monkeypatch.setattr(anomaly, "bernoulli", lambda m: exact(m) + (m == 10))
    failed = failed_lines(verify.run_verification())
    assert failed["moment-bridge"].startswith("worst rel diff ")
    assert failed["sphere-continuation"].startswith("n=10 ")
    assert " != sphere " in failed["sphere-continuation"]


def test_one_wrong_plancherel_coefficient_fails(monkeypatch, fresh_exact_caches):
    # c_0 of sector (k, q) = (5, 2) one off over 4^(k-1): the first cell that
    # reads it is (n=10, p=2) of Table 2
    exact = anomaly.integer_coefficients

    def off(k, q):
        coeffs = exact(k, q)
        return (coeffs[0] + 1, *coeffs[1:]) if (k, q) == (5, 2) else coeffs

    monkeypatch.setattr(anomaly, "integer_coefficients", off)
    failed = failed_lines(verify.run_verification())
    assert failed["sphere-continuation"].startswith("(n=10,p=2) ")


def test_fermi_grade_fails_on_a_wrong_plancherel_coefficient(monkeypatch, fresh_exact_caches):
    # the same fault at (100, 50), a graded sector no table cell reads
    exact = anomaly.integer_coefficients

    def off(k, q):
        coeffs = exact(k, q)
        return (coeffs[0] * 2, *coeffs[1:]) if (k, q) == (100, 50) else coeffs

    monkeypatch.setattr(anomaly, "integer_coefficients", off)
    result = verify._check_moment_bridge()
    assert not result.passed
    assert result.detail.startswith("Fermi integral (k=100, q=50) rel diff ")
