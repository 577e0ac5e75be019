"""Exact anomaly pipeline: alpha policies, the main formula, tables."""

import functools
import json
import math
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from identity_reference import reference_breakdown

from hyperzeta import anomaly, plancherel
from hyperzeta.anomaly import (
    MAX_DIMENSION,
    TABLE1_DIMS,
    AnomalySpec,
    _bern_weight,
    alpha_conformal_scalar,
    alpha_default,
    alpha_massive_scalar,
    conformal_anomaly,
    conformal_scalar_anomaly,
    generate_table,
    zeta_identity_zero_total,
)
from hyperzeta.exact import PiValue, bernoulli
from hyperzeta.plancherel import miatello_coefficients


@pytest.fixture(scope="module")
def golden():
    text = resources.files("hyperzeta").joinpath("data/golden_tables.json").read_text()
    return json.loads(text)


class TestAlphaPolicies:
    def test_default(self):
        assert alpha_default(2, 0) == Fraction(1, 4)
        assert alpha_default(4, 1) == Fraction(13, 4)
        assert alpha_default(10, 4) == Fraction(97, 4)

    def test_conformal_scalar_is_quarter_for_all_n(self):
        for n in range(2, 41, 2):
            assert alpha_conformal_scalar(n) == Fraction(1, 4)

    def test_massive(self):
        assert alpha_massive_scalar(4, 0) == Fraction(9, 4)
        assert alpha_massive_scalar(4, 1) == Fraction(13, 4)
        assert alpha_massive_scalar(2, Fraction(1, 2)) == Fraction(3, 4)

    def test_negative_mass_squared_rejected(self):
        with pytest.raises(ValueError):
            alpha_massive_scalar(4, -1)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            alpha_default(3, 0)


class TestAnomalySpec:
    def test_middle_degree_rejected(self):
        with pytest.raises(ValueError, match="middle degree"):
            AnomalySpec(dimension=4, form_order=2, alpha=Fraction(1))

    def test_negative_form_rejected(self):
        with pytest.raises(ValueError):
            AnomalySpec(dimension=4, form_order=-1, alpha=Fraction(1))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            AnomalySpec(dimension=5, form_order=0, alpha=Fraction(1))

    def test_dimension_cap(self):
        over = MAX_DIMENSION + 2
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            AnomalySpec(dimension=over, form_order=0, alpha=Fraction(1))
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            conformal_scalar_anomaly(over)
        with pytest.raises(ValueError, match=f"MAX_DIMENSION={MAX_DIMENSION}"):
            generate_table("custom", dims=[4, over], forms=[0])
        AnomalySpec(dimension=44, form_order=21, alpha=alpha_default(44, 21))

    def test_memos_hold_a_table_row_at_the_cap(self):
        # a row at the cap touches k = MAX_DIMENSION/2 sectors and Bernoulli weights
        assert _bern_weight.cache_info().maxsize >= MAX_DIMENSION // 2
        # and one entry per k: the full Plancherel product and the row weights
        assert plancherel._full_product.cache_info().maxsize >= MAX_DIMENSION // 2
        assert anomaly._row_weights.cache_info().maxsize >= MAX_DIMENSION // 2

    def test_moment_memo_holds_every_sector_to_the_cap(self):
        k_cap = MAX_DIMENSION // 2
        assert anomaly._prefix_sums.cache_info().maxsize >= sum(range(1, k_cap + 1))


class TestGoldenTables:
    def test_table2_exact_equality(self, golden):
        for row in golden["table2"]:
            n, p = row["n"], row["p"]
            spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
            got = conformal_anomaly(spec)
            assert got == PiValue.parse(row["exact"]), (n, p)

    def test_table1_exact_equality(self, golden):
        for row in golden["table1"]:
            got = conformal_scalar_anomaly(row["n"])
            assert got == PiValue.parse(row["exact"]), row["n"]

    def test_spot_values(self):
        spot = {
            (2, 0): "-1/12 * pi^-1",
            (4, 1): "-67/160 * pi^-2",
            (6, 2): "-2005/1792 * pi^-3",
            (10, 4): "-14020681/135168 * pi^-5",
        }
        for (n, p), text in spot.items():
            spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
            assert conformal_anomaly(spec) == PiValue.parse(text)

    def test_scalar_spot_values(self):
        assert conformal_scalar_anomaly(8) == PiValue.parse("-23/34560 * pi^-4")
        assert conformal_scalar_anomaly(14) == PiValue.parse(
            "-157009/232243200 * pi^-7"
        )


def fraction_loop_scalar(n):
    """conformal_scalar_anomaly as a plain Fraction loop over l (the former implementation)."""
    k = n // 2
    coeffs = miatello_coefficients(k, 0)
    total = Fraction(0)
    for ell in range(k):
        w = Fraction((-1) ** (ell + 1), ell + 1)
        bern = (1 - Fraction(1, 2 ** (2 * ell + 1))) * bernoulli(2 * (ell + 1))
        total += w * coeffs[ell] * (Fraction(1, 2 ** (2 * ell + 2)) + bern)
    return PiValue(Fraction(1, 4**k) / math.factorial(n // 2 - 1) * total, k)


class TestScalarClosedForm:
    def test_equals_fraction_loop_to_the_cap(self):
        for n in range(2, MAX_DIMENSION + 1, 2):
            assert conformal_scalar_anomaly(n) == fraction_loop_scalar(n), n


class TestSpecialization:
    def test_scalar_equals_pform_at_quarter(self):
        for n in (*TABLE1_DIMS, 44):
            direct = conformal_scalar_anomaly(n)
            spec = AnomalySpec(dimension=n, form_order=0, alpha=Fraction(1, 4))
            assert direct == conformal_anomaly(spec), n


class TestStructure:
    def test_p0_breakdown_has_half_n_terms(self):
        for n in (2, 4, 6, 8, 10):
            breakdown = reference_breakdown(n, 0, alpha_default(n, 0))
            assert len(breakdown) == n // 2
            assert all(j == 0 for j, _, _ in breakdown)
            assert all(term != 0 for _, _, term in breakdown)

    def test_breakdown_resums_to_value(self):
        # (n, p, alpha, R^n): the default shift, R = 3/2, and a custom shift
        cases = [(n, p, alpha_default(n, p), 1) for n, p in ((4, 1), (8, 3), (10, 2))]
        cases += [(6, 2, alpha_default(6, 2), Fraction(3, 2) ** 6), (8, 2, Fraction(-7, 3), 1)]
        for n, p, alpha, radius_power in cases:
            spec = AnomalySpec(
                dimension=n, form_order=p, alpha=alpha, radius_power_scale=radius_power
            )
            total = sum((t for _, _, t in reference_breakdown(n, p, alpha)), Fraction(0))
            k = n // 2
            # 1 / ((4 pi)^(n/2) Gamma(n/2) R^n) without the pi
            prefactor = Fraction(1, 4**k * math.factorial(k - 1)) / radius_power
            assert conformal_anomaly(spec) == PiValue(prefactor * total, k), (n, p, alpha)

    def test_radius_scaling_is_exact(self):
        n, p = 4, 1
        base = conformal_anomaly(
            AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
        )
        scaled = conformal_anomaly(
            AnomalySpec(
                dimension=n,
                form_order=p,
                alpha=alpha_default(n, p),
                radius_power_scale=Fraction(3, 2) ** n,
            )
        )
        assert scaled == PiValue(base.coefficient * Fraction(2, 3) ** n, base.pi_exponent)

    def test_pi_exponent_is_half_dimension(self):
        for n in (2, 6, 12):
            spec = AnomalySpec(dimension=n, form_order=0, alpha=alpha_default(n, 0))
            assert conformal_anomaly(spec).pi_exponent == n // 2


class TestGenerateTable:
    def test_pform_defaults_shape(self):
        cells = generate_table("table2")
        assert len(cells) == 25  # 5 dims x forms 0..4
        populated = [c for c in cells if not c.excluded]
        excluded = [c for c in cells if c.excluded]
        assert len(populated) == 15
        assert len(excluded) == 10

    def test_scalar_defaults_shape(self):
        cells = generate_table("table1")
        assert [c.dimension for c in cells] == list(range(2, 15, 2))
        assert all(not c.excluded for c in cells)

    def test_custom(self):
        cells = generate_table("custom", dims=[4], forms=[0, 1])
        assert len(cells) == 2
        assert cells[0].result == PiValue.parse("29/240 * pi^-2")
        assert cells[1].result == PiValue.parse("-67/160 * pi^-2")

    def test_custom_requires_lists(self):
        with pytest.raises(ValueError):
            generate_table("custom", dims=[4])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_table("mystery")

    @pytest.mark.parametrize("kind", ["table1", "table2"])
    @pytest.mark.parametrize("grid", [{"dims": [4]}, {"forms": [1]}, {"dims": [], "forms": []}])
    def test_fixed_kinds_reject_a_grid(self, kind, grid):
        with pytest.raises(ValueError, match=f"only to custom tables, not '{kind}'"):
            generate_table(kind, **grid)

    def test_float_rendering_matches_published(self, golden):
        for row in golden["table2"]:
            n, p = row["n"], row["p"]
            spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
            rendered = conformal_anomaly(spec).render_float(6)
            assert rendered == row["published_float"], (n, p)


def per_term_value(n: int, p: int, alpha: Fraction | None = None) -> PiValue:
    """The anomaly from the reference per-(j, l) breakdown (default shift if no alpha)."""
    if alpha is None:
        alpha = alpha_default(n, p)
    total = sum((term for _, _, term in reference_breakdown(n, p, alpha)), Fraction(0))
    k = n // 2
    prefactor = Fraction(1, 4**k * math.factorial(k - 1))
    return PiValue(prefactor * total, k)


@st.composite
def cells(draw):
    n = draw(st.integers(min_value=1, max_value=30)) * 2
    return n, draw(st.integers(min_value=0, max_value=n // 2 - 1))


# c = alpha - p, the shift of sector q = 0; denominators 1..99, any sign
shift_offsets = st.builds(
    Fraction, st.integers(min_value=-500, max_value=500), st.integers(min_value=1, max_value=99)
)
# R^n, any positive rational with denominator 1..99
radius_powers = st.builds(
    Fraction, st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=99)
)


def reference_moment_parts(k: int, q: int, beta: Fraction) -> tuple[int, int]:
    """_moment_parts on the Fraction coefficients, each unwrapped back to
    its integer over 4^(k-1): an independent reference."""
    beta = Fraction(beta)
    x, d = beta.numerator, beta.denominator
    coeffs = miatello_coefficients(k, q)
    scale = 4 ** (k - 1)
    berns = [_bern_weight(ell) for ell in range(k)]
    bern_den = math.lcm(*(b.denominator * (ell + 1) for ell, b in enumerate(berns)))
    pow_den = math.lcm(*range(1, k + 1))
    bern_num = pow_num = 0
    pow_x = 1
    for ell, (a, b) in enumerate(zip(coeffs, berns)):
        c = a.numerator * (scale // a.denominator)
        if ell % 2 == 0:
            c = -c
        bern_num += c * b.numerator * (bern_den // (b.denominator * (ell + 1)))
        pow_x *= x
        pow_num = pow_num * d + c * (pow_den // (ell + 1)) * pow_x
    pow_den *= d**k
    return bern_num * pow_den + pow_num * bern_den, bern_den * pow_den * scale


def assert_moments_match_reference(n: int, p: int, alpha: Fraction) -> None:
    # every sector moment of the cell at its own shift c + q, c = alpha - p
    k = n // 2
    for q in range(p + 1):
        shift = alpha - p + q
        got = anomaly._moment_parts(k, q, shift.numerator, shift.denominator)
        assert got == reference_moment_parts(k, q, shift), q


class TestMomentRoute:
    """Every shift takes its value from per-sector moments; the reference
    per-(j, l) terms are an independent route to the same number."""

    @settings(max_examples=60, deadline=None)
    @given(cells())
    def test_matches_per_term_route(self, cell):
        n, p = cell
        spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
        assert conformal_anomaly(spec) == per_term_value(n, p)

    def test_routes_match_reference_at_every_cell_to_n_40(self):
        for n in range(2, 42, 2):
            for p in range(n // 2):
                assert_moments_match_reference(n, p, alpha_default(n, p))

    @pytest.mark.parametrize("n,p", [(120, 59), (200, 0), (200, 99)])
    def test_matches_per_term_route_at_large_n(self, n, p):
        spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
        assert conformal_anomaly(spec) == per_term_value(n, p)
        assert_moments_match_reference(n, p, spec.alpha)

    @settings(max_examples=60, deadline=None)
    @given(cells(), shift_offsets, radius_powers)
    @example((2, 0), Fraction(0), Fraction(1))
    @example((60, 29), Fraction(-401, 99), Fraction(1))
    @example((40, 7), Fraction(13, 98), Fraction(97, 500))
    @example((6, 2), Fraction(1, 4), Fraction(3, 2) ** 6)
    def test_matches_per_term_route_at_any_rational_shift(self, cell, c, radius_power):
        n, p = cell
        spec = AnomalySpec(dimension=n, form_order=p, alpha=p + c, radius_power_scale=radius_power)
        unscaled = per_term_value(n, p, p + c)
        assert conformal_anomaly(spec) == PiValue(
            unscaled.coefficient * (1 / radius_power), unscaled.pi_exponent
        )
        assert_moments_match_reference(n, p, p + c)

    @pytest.mark.parametrize("n,p", [(120, 59), (200, 99)])
    def test_massive_shift_matches_per_term_route_at_large_n(self, n, p):
        alpha = alpha_massive_scalar(n, Fraction(7, 3))
        spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha)
        assert conformal_anomaly(spec) == per_term_value(n, p, alpha)

    def test_moment_work_does_not_depend_on_row_order(self):
        # two cyclic sweeps of 11 rows (187 sectors) in three orders: every
        # sector is computed exactly once, whatever the order
        dims = list(range(24, 46, 2))
        misses = []
        for order in (dims, dims[::-1], dims[1::2] + dims[::2]):
            anomaly._prefix_sums.cache_clear()
            for n in order * 2:
                for p in range(n // 2):
                    spec = AnomalySpec(dimension=n, form_order=p, alpha=alpha_default(n, p))
                    conformal_anomaly(spec)
            misses.append(anomaly._prefix_sums.cache_info().misses)
        assert misses == [sum(n // 2 for n in dims)] * 3


def loop_total(n: int, p: int, alpha: Fraction, moment_parts) -> Fraction:
    """zeta_identity_zero_total as one loop over q = 0..p, with no prefix memo."""
    k = n // 2
    d = alpha.denominator
    x = alpha.numerator - p * d
    a = b = side = 0
    for q in range(p + 1):
        chi = math.comb(n - 1, q)
        main, den = moment_parts(k, q, x + q * d, d)
        a = chi * main - a
        b = q * chi * side - b
        side = main
    return Fraction(a * (n - p) + b, den * (n - p))


class TestPrefixSums:
    # every cell of 2 <= n <= MAX_DIMENSION, as the cold sweep asks for them
    @pytest.mark.parametrize("shift", [
        alpha_default,
        lambda n, p: alpha_massive_scalar(n, Fraction(7, 3)) + p,
    ], ids=["default", "massive"])
    def test_every_cell_matches_the_loop(self, shift):
        # the loop reads each sector's moment many times, so it keeps its own memo
        moment_parts = functools.cache(anomaly._moment_parts)
        anomaly._prefix_sums.cache_clear()
        for n in range(2, MAX_DIMENSION + 1, 2):
            for p in range(n // 2):
                alpha = shift(n, p)
                want = loop_total(n, p, alpha, moment_parts)
                assert zeta_identity_zero_total(n, p, alpha) == want, (n, p)

    def test_a_warm_row_costs_one_step_per_cell(self):
        anomaly._prefix_sums.cache_clear()
        n = 60
        for p in range(n // 2):
            zeta_identity_zero_total(n, p, alpha_default(n, p))
        assert anomaly._prefix_sums.cache_info().misses == n // 2


@pytest.fixture()
def fractions_built(monkeypatch):
    """A list that records every Fraction constructed while the test runs."""
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return built


class TestFractionCount:
    N, P = MAX_DIMENSION, MAX_DIMENSION // 2 - 1

    @pytest.fixture(autouse=True)
    def warm_bernoulli_cold_moments(self):
        for ell in range(self.N // 2):
            _bern_weight(ell)
        anomaly._prefix_sums.cache_clear()

    def test_cold_moment_route_builds_at_most_two(self, fractions_built):
        # alpha parsed once and the total built once; no Fraction per coefficient
        alpha = alpha_default(self.N, self.P)
        fractions_built.clear()
        zeta_identity_zero_total(self.N, self.P, alpha)
        assert len(fractions_built) <= 2
        assert anomaly._prefix_sums.cache_info().misses == self.P + 1

    def test_warm_default_shift_cell_builds_at_most_two(self, fractions_built):
        # alpha_default's Fraction and the cell's value, reduced once
        n = 34
        for p in range(n // 2):
            anomaly._pform_cell(n, p)
        fractions_built.clear()
        anomaly._pform_cell(n, 5)
        assert len(fractions_built) <= 2
        assert anomaly._prefix_sums.cache_info().misses == n // 2
