"""``heat_zeta.zeta_check``: the one function behind ``zeta-check`` and
verify's Mellin checks.

It returns each route's own bits, runs the identity term before
either Mellin route, and verify grades exactly the record it returns: each
FAIL branch of ``mellin-vs-bessel`` and ``s-scaling`` is reached by a
patched record, as are those of ``moment-bridge`` and ``specialization``
by a patched route.
"""

import dataclasses
import math

import pytest

from hyperzeta import anomaly, heat_zeta, verify
from hyperzeta.cli import main
from hyperzeta.exact import PiValue

S_VALUES = [0.3, 0.5, 0.77, -1.5]


def bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("p", [0, 1, 3])
def test_values_are_the_routes_bits(small_spectrum, p):
    check = heat_zeta.zeta_check(small_spectrum, p, S_VALUES)
    *bessel, at_2, at_3 = heat_zeta.mellin_hyperbolic(small_spectrum, p, [*S_VALUES, 1e-2, 1e-3])
    quads = heat_zeta.mellin_hyperbolic_quadrature(small_spectrum, p, S_VALUES)
    assert bits([check.identity]) == bits([heat_zeta.identity_zeta_term(small_spectrum, p)])
    assert bits(check.bessel) == bits(bessel)
    assert bits(check.quadrature) == bits(quads)
    assert bits(check.gaps) == bits(abs(b - q) / max(abs(q), 1e-300) for b, q in zip(bessel, quads))
    assert bits([check.f_2, check.f_3]) == bits([at_2 / math.gamma(1e-2), at_3 / math.gamma(1e-3)])


def test_routes_run_in_order(small_spectrum, monkeypatch):
    calls = []
    for name in ("identity_zeta_term", "mellin_hyperbolic", "mellin_hyperbolic_quadrature"):
        def traced(*args, _name=name, _route=getattr(heat_zeta, name)):
            calls.append((_name, list(args[2]) if len(args) > 2 else None))
            return _route(*args)

        monkeypatch.setattr(heat_zeta, name, traced)
    heat_zeta.zeta_check(small_spectrum, 0, [0.3, 0.7])
    assert calls == [
        ("identity_zeta_term", None),
        ("mellin_hyperbolic", [0.3, 0.7, 1e-2, 1e-3]),
        ("mellin_hyperbolic_quadrature", [0.3, 0.7]),
    ]


def _no_mellin(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a Mellin route ran")

    for name in ("mellin_hyperbolic", "mellin_hyperbolic_quadrature"):
        monkeypatch.setattr(heat_zeta, name, no_work)


def test_identity_outside_float_range_raises_before_mellin(small_spectrum, monkeypatch):
    _no_mellin(monkeypatch)
    data = dataclasses.replace(small_spectrum, chi_one=-1e308, volume=10.0)
    with pytest.raises(ValueError, match=r"^identity zeta value at s=0 is outside the float range$"):
        heat_zeta.zeta_check(data, 0, [0.5])


def test_bad_s_rejected_before_any_route(small_spectrum, monkeypatch):
    _no_mellin(monkeypatch)
    monkeypatch.setattr(heat_zeta, "identity_zeta_term", lambda *args: 1 / 0)
    with pytest.raises(ValueError, match=r"^s must be finite with Bessel order .* got 99\.0$"):
        heat_zeta.zeta_check(small_spectrum, 0, [0.5, 99])


def test_empty_s_list_gives_only_the_s_to_0_points(small_spectrum):
    check = heat_zeta.zeta_check(small_spectrum, 0, [])
    assert (check.bessel, check.quadrature, check.gaps) == ([], [], [])
    assert 9.8 <= check.f_2 / check.f_3 <= 10.2


# --- verify grades the record ------------------------------------------------

PASSING = heat_zeta.ZetaCheck(
    identity=3e-2, bessel=[1.0] * 3, quadrature=[1.0] * 3, gaps=[0.0] * 3,
    f_2=1e-8, f_3=1e-9,
)


def verify_lines(capsys, *argv):
    # every check's line by name
    code = main(["verify", *argv])
    *lines, summary = capsys.readouterr().out.splitlines()
    return code, {line.split()[1]: line for line in lines}, summary


@pytest.mark.parametrize("p0,p1,name,detail", [
    ({"gaps": [0.0, 2e-8, 0.0]}, {}, "mellin-vs-bessel", "worst rel diff 2.000e-08 > 1e-8"),
    ({}, {"gaps": [2e-8, 0.0, 0.0]}, "mellin-vs-bessel", "worst rel diff 2.000e-08 > 1e-8"),
    ({"f_3": 0.0}, {}, "s-scaling", "value at s=1e-3 is exactly zero"),
    ({"f_2": 1.1e-8}, {}, "s-scaling", "ratio 11.0000 outside [9.8, 10.2]"),
    ({"f_2": 3e-3, "f_3": 3e-4}, {}, "s-scaling",
     "magnitude 3.000e-03 not << identity zeta(0) 3.000e-02"),
], ids=["gap-p0", "gap-p1", "zero-at-1e-3", "ratio-11", "magnitude"])
def test_verify_fails_on_the_record(capsys, monkeypatch, p0, p1, name, detail):
    records = {0: PASSING._replace(**p0), 1: PASSING._replace(**p1)}
    seen = []

    def patched(manifold, p, s_values):
        seen.append((p, tuple(s_values)))
        return records[p]

    monkeypatch.setattr(heat_zeta, "zeta_check", patched)
    code, lines, summary = verify_lines(capsys)
    assert seen == [(0, (0.3, 0.5, 0.7)), (1, (0.3, 0.5, 0.7))]
    assert code == 1 and summary == "6/7 checks passed"
    assert lines[name].split(None, 2) == ["FAIL", name, detail]


def test_verify_passes_on_a_passing_record(capsys, monkeypatch):
    monkeypatch.setattr(heat_zeta, "zeta_check", lambda manifold, p, s_values: PASSING)
    code, lines, summary = verify_lines(capsys)
    assert code == 0 and summary == "7/7 checks passed"
    assert lines["s-scaling"].split(None, 2)[2] == (
        "ratio 10.0000, magnitude 1.00e-08 vs identity 3.00e-02"
    )


def test_moment_bridge_fails_on_a_drifted_continuation(capsys, monkeypatch):
    continued = heat_zeta.zeta_moment_continued
    monkeypatch.setattr(
        heat_zeta, "zeta_moment_continued",
        lambda k, q, beta: continued(k, q, beta) * (1 + 1e-6),
    )
    code, lines, _ = verify_lines(capsys, "--fast")
    assert code == 1
    status, _, detail = lines["moment-bridge"].split(None, 2)
    assert status == "FAIL"
    assert detail.startswith("worst rel diff 1.000e-06") and detail.endswith(" > 1e-9")


def test_specialization_fails_on_a_drifted_scalar_route(capsys, monkeypatch):
    scalar = verify.conformal_scalar_anomaly

    def drifted(n):
        value = scalar(n)
        return PiValue(value.coefficient * 2, value.pi_exponent) if n == 6 else value

    monkeypatch.setattr(verify, "conformal_scalar_anomaly", drifted)
    code, lines, _ = verify_lines(capsys, "--fast")
    want = verify.conformal_scalar_anomaly(6).exact_str()
    assert code == 1
    assert lines["specialization"].split(None, 2) == [
        "FAIL", "specialization",
        f"n=6: {want} != {scalar(6).exact_str()}",
    ]


def test_golden_table2_reads_the_table_command(monkeypatch):
    # a drift in the table builder's cell reaches the golden check
    cell = anomaly._pform_cell

    def drifted(n, p):
        got = cell(n, p)
        if (n, p) != (6, 1):
            return got
        doubled = PiValue(got.result.coefficient * 2, got.result.pi_exponent)
        return dataclasses.replace(got, result=doubled)

    monkeypatch.setattr(anomaly, "_pform_cell", drifted)
    (result,) = [r for r in verify.run_verification(fast=True) if r.name == "golden-table2"]
    assert not result.passed
    assert result.detail.startswith("(n=6,p=1) exact ")



# --- high n on the command line ----------------------------------------------


def _synth(capsys, tmp_path, *argv) -> str:
    path = str(tmp_path / "m.json")
    assert main(["synth-spectrum", *argv, "--out", path]) == 0
    capsys.readouterr()
    return path


def test_n60_recipe_file_identity_against_the_exact_route(capsys, tmp_path, monkeypatch):
    # the continuation raised QuadratureError from k = 27, so this file
    # exited 2.  The exact route: Vol chi(1) C(n-1, p) M / (4 2^(4k-4)
    # Gamma(k)^2), with M the Bernoulli moment sum (the pi's cancel)
    from fractions import Fraction

    from hyperzeta.manifold import load_manifold

    path = _synth(capsys, tmp_path, "--seed", "5", "--count", "20", "--min-length", "4",
                  "--dim", "60")
    monkeypatch.setenv("HYPERZETA_PRECISION", "17")
    assert main(["zeta-check", "--manifold", path, "--form", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert all(line.endswith("[ok]") for line in out[:3])
    got = float(out[-1].split("= ")[1].split(";")[0])
    data, k = load_manifold(path), 30
    moment = anomaly.zeta_moment_sum(k, 0, Fraction(59, 2) ** 2)
    want = (Fraction(data.volume) * Fraction(data.chi_one) * moment
            / (4 * 2 ** (4 * k - 4) * math.factorial(k - 1) ** 2))
    assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want)


@pytest.mark.parametrize("n,code", [(150, 0), (152, 2)])
def test_identity_defined_up_to_n150(capsys, tmp_path, n, code):
    # from n = 152 the float normalisation pi / (2^(4k-4) Gamma(k)^2) underflows
    path = _synth(capsys, tmp_path, "--seed", "4", "--count", "3", "--max-power", "1",
                  "--min-length", "1", "--dim", str(n))
    assert main(["zeta-check", "--manifold", path, "--form", "0"]) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", f"error: Plancherel normalisation for n={n} is outside "
                                  "the float range\n")
    else:
        assert err == "" and all(line.endswith("[ok]") for line in out.splitlines()[:3])


@pytest.mark.parametrize("dim", ["30", "150"])
def test_mellin_values_below_the_normal_floats_exit_2(capsys, tmp_path, dim):
    # every class's term underflows (at n = 30 lengths from 20 on; at n = 150
    # lengths from 7.2, amplitudes near 1e-233): both routes gave 0.0 and
    # zeta-check graded it "rel=0.000e+00 [ok]"
    path = _synth(capsys, tmp_path, "--seed", "5", "--count", "3", "--max-power", "1",
                  "--min-length", "20" if dim == "30" else "1", "--dim", dim)
    assert main(["zeta-check", "--manifold", path, "--form", "0"]) == 2
    assert capsys.readouterr() == (
        "", "error: Bessel-route Mellin value at s=0.3 is outside the float range\n"
    )


def test_mellin_routes_below_the_normal_floats(small_spectrum):
    from hyperzeta.manifold import GeodesicClass, ManifoldData

    far = ManifoldData(dimension=30, volume=1.0, betti=(1,) + (0,) * 29 + (1,),
                       geodesics=(GeodesicClass(length=25.0, power=1),))
    for route in (heat_zeta.mellin_hyperbolic, heat_zeta.mellin_hyperbolic_quadrature):
        with pytest.raises(ValueError, match=r"Mellin value at s=0\.5 is outside the float range$"):
            route(far, 0, [0.5])
    # amplitudes that are all 0.0 still give 0.0
    silent = dataclasses.replace(
        small_spectrum, geodesics=(GeodesicClass(length=1.0, power=1, chi=0.0),)
    )
    for route in (heat_zeta.mellin_hyperbolic, heat_zeta.mellin_hyperbolic_quadrature):
        assert route(silent, 0, [0.5, -1.5]) == [0.0, 0.0]
