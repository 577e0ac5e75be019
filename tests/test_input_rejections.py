"""Input rejections that no other test reaches, one test each.

A statement trace of the suite listed these ``raise`` and error returns as
never executed.  Each is pinned here by its message (or exit code), so a
refactor that drops a rule, or lets an input reach a traceback, fails.
The last group forces a route to report ``converged=False`` and checks
that ``zeta-check`` turns it into exit 2 with one ``error:`` line.
"""

import json
import math
from fractions import Fraction

import pytest

from hyperzeta import heat_zeta
from hyperzeta._kernels import fallback as quadrature
from hyperzeta.anomaly import AnomalySpec
from hyperzeta.cli import main
from hyperzeta.exact import PiValue, bernoulli
from hyperzeta.manifold import (
    GeodesicClass,
    ManifoldData,
    ManifoldFormatError,
    load_manifold,
    synth_spectrum,
)
from hyperzeta.verify import float_matches_published


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def document(**changes) -> dict:
    doc = {
        "format_version": 1, "dimension": 4, "volume": 1.0, "betti": [1, 0, 0, 0, 1],
        "geodesics": [{"length": 1.5, "c": 1.0}],
    }
    doc.update(changes)
    return doc


# --- manifold file -----------------------------------------------------------


@pytest.mark.parametrize("doc,message", [
    ([], "top level must be an object"),
    (document(geodesics={}), r"geodesics must be an array \(field geodesics\)"),
    (document(betti=1), r"betti must be an array \(field betti\)"),
], ids=["top-level-list", "geodesics-object", "betti-number"])
def test_manifold_file_rejected(tmp_path, doc, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifoldFormatError, match=rf"^{message}$"):
        load_manifold(path)


# --- manifold library --------------------------------------------------------


def test_string_length_rejected():
    with pytest.raises(ValueError, match=r"^length must be a finite number$"):
        GeodesicClass(length="1.5")


@pytest.mark.parametrize("changes,message", [
    ({"min_length": 0.0}, "min_length must be positive and finite"),
    # nan failed as "length must be a finite number", inf as an OverflowError
    ({"min_length": float("nan")}, "min_length must be positive and finite"),
    ({"min_length": float("inf")}, "min_length must be positive and finite"),
    ({"max_power": 0}, "max_power must be at least 1"),
    # the dimension is checked first
    ({"n": 5, "count": -1}, "odd dimensions out of scope"),
])
def test_synth_spectrum_argument_rejected(changes, message):
    args = dict(seed=1, count=2, min_length=1.0, max_power=1, n=4)
    args.update(changes)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        synth_spectrum(**args)


# --- CLI ---------------------------------------------------------------------


@pytest.mark.parametrize("raw", ["0", "51"])
def test_precision_outside_1_to_50_exit_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("HYPERZETA_PRECISION", raw)
    code, out, err = run_cli(capsys, "anomaly", "--dim", "2")
    assert (code, out) == (2, "")
    assert err == "error: HYPERZETA_PRECISION must be between 1 and 50\n"


def test_mass_sq_not_rational_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["anomaly", "--dim", "4", "--alpha-mode", "massive", "--mass-sq", "abc"])
    assert exc.value.code == 2
    assert "not a rational number: 'abc'" in capsys.readouterr().err


# --- verify ------------------------------------------------------------------


def test_published_zero_matches_only_zero():
    assert float_matches_published(PiValue(Fraction(0)), "0")
    assert not float_matches_published(PiValue(Fraction(1, 10**12)), "0")


# --- exact core --------------------------------------------------------------


@pytest.mark.parametrize("call,message", [
    (lambda: bernoulli(-1), "Bernoulli index must be nonnegative"),
    (lambda: PiValue.parse("pi"), "not a PiValue string: 'pi'"),
    (lambda: PiValue(Fraction(1)).render_float(0), "digits must be positive"),
    (lambda: AnomalySpec(dimension=4, form_order=0, alpha=Fraction(1), radius_power_scale=0),
     "radius power scale must be positive"),
], ids=["bernoulli", "parse", "render-float", "radius-power-scale"])
def test_exact_core_argument_rejected(call, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        call()


def test_pivalue_minus_int_is_a_type_error():
    with pytest.raises(TypeError):
        PiValue(Fraction(1)) - 1


# --- numeric half ------------------------------------------------------------


def test_coexact_trace_of_no_times_is_empty_at_any_n():
    # n = 160's normalisation is outside the float range; no t asks for it
    data = ManifoldData(dimension=160, volume=1.0, betti=(1,) + (0,) * 159 + (1,))
    assert heat_zeta.coexact_trace(data, 0, []) == []


def test_mellin_time_integrals_unequal_sizes_rejected():
    with pytest.raises(ValueError, match=r"^lengths and amps must have equal size$"):
        quadrature.mellin_time_integrals([1.0], [], 2.25)


def test_log_integrate_step_node_does_not_converge():
    mantissa, delta, level, converged, scale = quadrature.log_integrate(
        lambda u: (0.0 if abs(u) < 0.3 else -math.inf, 1.0)
    )
    assert (level, converged) == (12, False)
    assert delta > 1e-12


# --- routes that do not converge reach zeta-check as exit 2 -------------------


@pytest.fixture()
def spectrum_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(document()))
    return path


def test_time_route_not_converged_exit_2(capsys, monkeypatch, spectrum_file):
    integrals = quadrature.mellin_time_integrals

    def unsure(lengths, amps, alpha):
        integral = integrals(lengths, amps, alpha)
        def at(s):
            mantissa, delta, level, _, scale = integral(s)
            return mantissa, delta, level, False, scale

        return at

    monkeypatch.setattr(quadrature, "mellin_time_integrals", unsure)
    code, out, err = run_cli(capsys, "zeta-check", "--manifold", str(spectrum_file))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: hyperbolic Mellin quadrature did not converge (p=0, s=0.3) ")


def test_continuation_not_converged_exit_2(capsys, monkeypatch, spectrum_file):
    monkeypatch.setattr(quadrature, "log_integrate", lambda log_node: (0.0, 1.0, 12, False, 0.0))
    code, out, err = run_cli(capsys, "zeta-check", "--manifold", str(spectrum_file))
    assert (code, out) == (2, "")
    assert err == (
        "error: moment continuation did not converge (k=2, q=0) "
        "(achieved error estimate 1.000e+00)\n"
    )
