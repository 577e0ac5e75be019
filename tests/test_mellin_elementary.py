"""Both Mellin routes against elementary values at every integer s in [-20, 20].

At an integer s the Bessel order nu = 1/2 - s is m + 1/2 in modulus, and K
is elementary (DLMF 10.49.12):

    K_(m+1/2)(z) = sqrt(pi/(2z)) e^-z sum_(j=0..m) (m+j)! / (j! (m-j)!) (2z)^-j,

a sum of positive terms.  ``elementary_mellin`` sums the hyperbolic Mellin
value with it, class by class, in ``math.fsum``: no quadrature node, no
Bessel family and no recurrence in the order.  It builds each amplitude
chi/j * l * C * chi_p from the spectrum's columns itself, C from the stored
c or the trivial-holonomy formula and chi_p from C(n-1, p) or the class's
holonomy, so it shares nothing with ``heat_zeta._geodesic_amplitudes``
either.  The worst errors are recorded in docs/numerics.md.
"""

import math
import sys

import pytest
from test_mellin_time_snapshot import FORMS, _spectra

from hyperzeta import GeodesicClass, ManifoldData, cli, load_manifold
from hyperzeta.heat_zeta import mellin_hyperbolic, mellin_hyperbolic_quadrature

S_VALUES = tuple(range(-20, 21))
BESSEL_BOUND = 1e-14
TIME_BOUND = 5e-14


def elementary_mellin(data: ManifoldData, p: int, s: int) -> float:
    """sum over classes of (a/sqrt(pi)) (2 sqrt(alpha)/l)^nu K_nu(l sqrt(alpha)), nu = 1/2 - s."""
    n = data.dimension
    rho0 = (n - 1) / 2
    alpha = p + rho0 * rho0
    m = s - 1 if s >= 1 else -s  # |nu| = m + 1/2
    weights = [math.factorial(m + j) // (math.factorial(j) * math.factorial(m - j))
               for j in range(m + 1)]
    terms = []
    for l, j, c, chi, holonomy in zip(*data.columns):
        if c is None:
            c = math.exp(-rho0 * l) * (1.0 - math.exp(-l)) ** (1 - n)
        character = math.comb(n - 1, p) if holonomy is None else holonomy[p]
        amplitude = chi / j * l * c * character
        z = l * math.sqrt(alpha)
        k = math.sqrt(math.pi / (2 * z)) * math.exp(-z) * math.fsum(
            w / (2 * z) ** i for i, w in enumerate(weights)
        )
        terms.append(amplitude / math.sqrt(math.pi) * (2 * math.sqrt(alpha) / l) ** (0.5 - s) * k)
    return math.fsum(terms)


def _recipe(tmp_path_factory, n: int) -> ManifoldData:
    # synth-spectrum --seed 5 --count 20 --min-length 4 --dim n, read back
    path = tmp_path_factory.mktemp("recipe") / f"m{n}.json"
    assert cli.main(["synth-spectrum", "--seed", "5", "--count", "20", "--min-length", "4",
                     "--dim", str(n), "--out", str(path)]) == 0
    return load_manifold(path)


def _mixed() -> ManifoldData:
    # the verification spectrum with every other class stripped of its
    # stored c, and the rest given a holonomy (which needs a stored c): the
    # reference builds C and chi_p itself on both branches
    data = _spectra()["verification"]
    n = data.dimension
    classes = []
    for i, (l, j, c, chi, _) in enumerate(zip(*data.columns)):
        if i % 2:
            holonomy = tuple(0.5 * math.comb(n - 1, p) - 0.25 * p for p in range(n))
            classes.append(GeodesicClass(length=l, power=j, c_value=c, chi=chi, holonomy=holonomy))
        else:
            classes.append(GeodesicClass(length=l, power=j, chi=chi))
    return ManifoldData(dimension=n, volume=1.0, betti=data.betti, geodesics=tuple(classes))


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    # (name, data, p, the s where the reference is a normal float, its values)
    spectra = [(name, data, p) for name, data in _spectra().items() for p in FORMS]
    spectra += [("mixed", _mixed(), p) for p in FORMS]
    for n in (20, 40):
        data = _recipe(tmp_path_factory, n)
        spectra += [(f"recipe_n{n}", data, p) for p in (0, n // 2 - 1)]
    out = []
    for name, data, p in spectra:
        wants = [(s, elementary_mellin(data, p, s)) for s in S_VALUES]
        wants = [(s, w) for s, w in wants if sys.float_info.min <= abs(w) <= sys.float_info.max]
        assert len(wants) >= 30, name
        out.append((name, data, p, *zip(*wants)))
    return out


def _worst(cases, route) -> float:
    return max(
        abs(got - want) / abs(want)
        for _, data, p, s_values, wants in cases
        for got, want in zip(route(data, p, s_values), wants)
    )


def test_bessel_route_at_integer_s(cases):
    assert _worst(cases, mellin_hyperbolic) <= BESSEL_BOUND


def test_time_route_at_integer_s(cases):
    assert _worst(cases, mellin_hyperbolic_quadrature) <= TIME_BOUND


def test_reference_against_the_closed_form_at_s_1():
    # nu = -1/2: K_(1/2)(z) = sqrt(pi/(2z)) e^-z, and (2 sqrt(alpha)/l)^(-1/2)
    # = sqrt(l/(2 sqrt(alpha))), so one class gives a e^-z sqrt(l / (2 sqrt(alpha) 2z)):
    # a e^-z / (2 sqrt(alpha)).  Here alpha = 1/4, z = l/2 and a = l c
    data = ManifoldData(dimension=2, volume=1.0, betti=(1, 0, 1),
                        geodesics=(GeodesicClass(length=1.5, power=1, c_value=0.5),))
    assert math.isclose(elementary_mellin(data, 0, 1), 0.75 * math.exp(-0.75), rel_tol=1e-15)
