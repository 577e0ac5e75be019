"""Conformal anomalies of p-form fields on compact hyperbolic spaces.

Exact rational anomaly tables for co-exact p-forms and conformal scalars
on even-dimensional compact hyperbolic quotients, together with the
numerical spectral toolkit behind them: Plancherel densities, heat-trace
evaluation against stored length spectra, and Mellin/Bessel zeta checks.

The exact layer (``exact``, ``plancherel``, ``anomaly``) works entirely
in rational arithmetic; floats only appear at render time.  The numeric
layer (``heat_zeta``, ``_kernels``) uses double-exponential quadrature in
pure Python (``hyperzeta.BACKEND`` is always ``"python"``).  Each name is
imported on first use, and each command of ``cli`` imports what it uses
inside its handler: an exact process loads no numeric code, and a numeric
one (``heat-trace``, ``zeta-check``, ``synth-spectrum``) loads neither
``anomaly`` nor mpmath, which ``exact`` imports only to render a value.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each exported name
_SOURCES = {
    name: module
    for module, names in (
        ("_kernels", ("BACKEND",)),
        ("exact", ("Rational", "PiValue", "PiPowerMismatchError", "bernoulli", "binomial")),
        ("plancherel", ("miatello_coefficients", "plancherel_density")),
        ("manifold", ("GeodesicClass", "ManifoldData", "ManifoldFormatError",
                      "load_manifold", "save_manifold", "synth_spectrum")),
        ("heat_zeta", ("HeatTraceBreakdown", "QuadratureError", "identity_heat_term",
                       "hyperbolic_heat_term", "coexact_trace", "bessel_k",
                       "mellin_hyperbolic", "mellin_hyperbolic_quadrature")),
        ("anomaly", ("AnomalySpec", "TableCell", "alpha_default", "alpha_conformal_scalar",
                     "alpha_massive_scalar", "conformal_anomaly", "conformal_scalar_anomaly",
                     "generate_table")),
    )
    for name in names
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    # PEP 562: called for a name not bound yet; binding it makes later reads plain
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value
    return value
