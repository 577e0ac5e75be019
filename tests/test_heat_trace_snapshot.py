"""Pinned bits of the co-exact heat trace and of the per-sector heat terms.

``tests/data/heat_trace_snapshot.json`` holds ``float.hex`` of the
identity, hyperbolic and Betti parts of the co-exact heat trace, and of
``identity_heat_term`` and ``hyperbolic_heat_term``, for every form order
p = 0..n-1 at each heat time in ``TIMES``, on three spectra:
``small_spectrum`` and ``flat_spectrum_2d`` (built here exactly as the
conftest fixtures of those names) and a seed-fixed 900-class n = 6
spectrum.  Any rewrite of the geodesic sums or of the trace assembly must
reproduce every entry to the bit.  The trace's identity and hyperbolic
parts are the p-sector terms themselves, so their entries equal the
``identity_heat_term`` and ``hyperbolic_heat_term`` entries of the same
record.

The trace is read through ``hyperzeta heat-trace --format csv`` at
``HYPERZETA_PRECISION=17``: 17 significant digits identify a double
uniquely, so the parsed values are the floats the library returned, and
the pin does not depend on the Python signature of ``coexact_trace``.

Some identity entries are also checked to 1e-13 relative against a
30-digit ``mpmath.quad`` of the Plancherel integral (``IDENTITY_CHECKS``):
at least one heat time per sector, and every entry that a change of the
quadrature engine's window has moved.

Regenerate (only from a commit whose numerics are trusted) with

    PYTHONPATH=src python tests/test_heat_trace_snapshot.py > tests/data/heat_trace_snapshot.json
"""

import contextlib
import io
import json
import math
import os
import pathlib
import tempfile

import mpmath

from hyperzeta import GeodesicClass, ManifoldData, synth_spectrum
from hyperzeta.cli import main
from hyperzeta.heat_zeta import hyperbolic_heat_term, identity_heat_term
from hyperzeta.manifold import save_manifold
from hyperzeta.plancherel import miatello_coefficients

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "heat_trace_snapshot.json"

TIMES = (0.05, 0.3, 1.0, 2.5)

# (spectrum, p) -> heat times whose identity entry is checked against mpmath
IDENTITY_CHECKS = {
    ("small_spectrum", 0): (0.05, 2.5),
    ("small_spectrum", 1): (0.3, 1.0),
    ("small_spectrum", 2): (0.3, 2.5),
    ("small_spectrum", 3): (0.05, 1.0),
    ("flat_spectrum_2d", 0): (0.3, 2.5),
    ("flat_spectrum_2d", 1): (0.3, 0.05),
    ("synth_900", 0): (1.0,),
    ("synth_900", 1): (2.5,),
    ("synth_900", 2): (0.05, 0.3),
    ("synth_900", 3): (0.05, 1.0),
    ("synth_900", 4): (0.3,),
    ("synth_900", 5): (0.05,),
}


def _spectra() -> dict:
    small = synth_spectrum(seed=11, count=4, min_length=1.0, max_power=3, n=4)
    synth = synth_spectrum(seed=2024, count=300, min_length=1.0, max_power=3, n=6)
    return {
        "small_spectrum": ManifoldData(
            dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1), geodesics=tuple(small)
        ),
        "flat_spectrum_2d": ManifoldData(
            dimension=2, volume=1.0, betti=(1, 0, 1),
            geodesics=(GeodesicClass(length=1.0, power=1, c_value=0.5),),
        ),
        "synth_900": ManifoldData(
            dimension=6, volume=2.5, betti=(1, 0, 2, 3, 2, 0, 1), geodesics=tuple(synth)
        ),
    }


def _heat_trace_csv(path: pathlib.Path, p: int) -> list[list[float]]:
    """Rows (t, identity, hyperbolic, betti, total) of heat-trace at 17 digits."""
    argv = ["heat-trace", "--manifold", str(path), "--form", str(p),
            "--format", "csv", "--t", *(repr(t) for t in TIMES)]
    out = io.StringIO()
    saved = os.environ.get("HYPERZETA_PRECISION")
    os.environ["HYPERZETA_PRECISION"] = "17"
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        if saved is None:
            del os.environ["HYPERZETA_PRECISION"]
        else:
            os.environ["HYPERZETA_PRECISION"] = saved
    assert code == 0, argv
    lines = out.getvalue().splitlines()
    assert lines[0] == "t,identity,hyperbolic,betti,total"
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _records(workdir: pathlib.Path) -> list[dict]:
    records = []
    for name, data in _spectra().items():
        path = workdir / f"{name}.json"
        save_manifold(data, path)
        for p in range(data.dimension):
            rows = _heat_trace_csv(path, p)
            assert [row[0] for row in rows] == list(TIMES)
            records.append({
                "spectrum": name,
                "p": p,
                "identity": [row[1].hex() for row in rows],
                "hyperbolic": [row[2].hex() for row in rows],
                "betti": [row[3].hex() for row in rows],
                "identity_heat_term": [
                    identity_heat_term(data, p, t).hex() for t in TIMES
                ],
                "hyperbolic_heat_term": [
                    hyperbolic_heat_term(data, p, t).hex() for t in TIMES
                ],
            })
    return records


def test_heat_trace_matches_snapshot(tmp_path):
    pinned = json.loads(SNAPSHOT.read_text())
    assert pinned["times"] == list(TIMES)
    records = _records(tmp_path)
    assert len(records) == len(pinned["records"])
    for got, want in zip(records, pinned["records"]):
        assert got == want, (got["spectrum"], got["p"])
    # the orbital part of the trace is sector p alone, so a re-pin cannot
    # let the trace drift from the per-sector terms
    for record in pinned["records"]:
        assert record["identity"] == record["identity_heat_term"], record["p"]
        assert record["hyperbolic"] == record["hyperbolic_heat_term"], record["p"]


def mpmath_identity(data: ManifoldData, p: int, t: float) -> float:
    """identity_heat_term from its definition, at 30 digits.

    chi(1) Vol / (4 pi) times C(n-1, p) pi / (2^(4k-4) Gamma(k)^2) times
    2 e^(-t (p + rho0^2)) times the integral over r > 0 of
    r P_p(r^2) tanh(pi r) e^(-t r^2), with n = 2k.
    """
    n = data.dimension
    k = n // 2
    with mpmath.workdps(30):
        tt = mpmath.mpf(t)
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in miatello_coefficients(k, p)]

        def integrand(r):
            return (r * mpmath.polyval(coeffs[::-1], r * r) * mpmath.tanh(mpmath.pi * r)
                    * mpmath.exp(-tt * r * r))

        integral = mpmath.quad(integrand, [0, 1, mpmath.sqrt(k / tt), mpmath.inf])
        norm = mpmath.pi / (mpmath.mpf(2) ** (4 * k - 4) * mpmath.factorial(k - 1) ** 2)
        shift = p + mpmath.mpf(n - 1) ** 2 / 4
        prefactor = mpmath.mpf(data.chi_one) * mpmath.mpf(data.volume) / (4 * mpmath.pi)
        weight = prefactor * math.comb(n - 1, p) * norm * 2 * mpmath.exp(-tt * shift)
        return float(weight * integral)


def test_identity_entries_against_mpmath():
    pinned = json.loads(SNAPSHOT.read_text())["records"]
    spectra = _spectra()
    sectors = {(record["spectrum"], record["p"]) for record in pinned}
    assert sectors == set(IDENTITY_CHECKS)
    for record in pinned:
        name, p = record["spectrum"], record["p"]
        for t in IDENTITY_CHECKS[name, p]:
            got = float.fromhex(record["identity_heat_term"][TIMES.index(t)])
            want = mpmath_identity(spectra[name], p, t)
            assert abs(got - want) <= 1e-13 * abs(want), (name, p, t, got, want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"times": list(TIMES), "records": _records(pathlib.Path(tmp))}
    print(json.dumps(doc, indent=1))
