"""Conformal anomalies of p-form fields on compact hyperbolic spaces.

Exact rational anomaly tables for co-exact p-forms and conformal scalars
on even-dimensional compact hyperbolic quotients, together with the
numerical spectral toolkit behind them: Plancherel densities, heat-trace
evaluation against stored length spectra, and Mellin/Bessel zeta checks.

The exact layer (``exact``, ``plancherel``, ``anomaly``) works entirely
in rational arithmetic; floats only appear at render time.  The numeric
layer (``heat_zeta``, ``_kernels``) uses double-exponential quadrature in
pure Python (``hyperzeta.BACKEND`` is always ``"python"``).
"""

from ._kernels import BACKEND
from .anomaly import (
    AnomalyResult,
    AnomalySpec,
    TableCell,
    alpha_conformal_scalar,
    alpha_default,
    alpha_massive_scalar,
    conformal_anomaly,
    conformal_scalar_anomaly,
    generate_table,
)
from .exact import PiPowerMismatchError, PiValue, Rational, bernoulli, binomial
from .heat_zeta import (
    HeatTraceBreakdown,
    QuadratureError,
    bessel_k,
    coexact_trace,
    hyperbolic_heat_term,
    identity_heat_term,
    mellin_hyperbolic,
    mellin_hyperbolic_quadrature,
    tanh_moment_series,
    zeta_identity_at_zero,
)
from .manifold import (
    GeodesicClass,
    ManifoldData,
    ManifoldFormatError,
    load_manifold,
    save_manifold,
    synth_spectrum,
)
from .plancherel import miatello_coefficients, plancherel_density

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    # exact arithmetic
    "Rational",
    "PiValue",
    "PiPowerMismatchError",
    "bernoulli",
    "binomial",
    # Plancherel layer
    "miatello_coefficients",
    "plancherel_density",
    # manifold data
    "GeodesicClass",
    "ManifoldData",
    "ManifoldFormatError",
    "load_manifold",
    "save_manifold",
    "synth_spectrum",
    # heat trace and zeta
    "HeatTraceBreakdown",
    "QuadratureError",
    "identity_heat_term",
    "hyperbolic_heat_term",
    "coexact_trace",
    "tanh_moment_series",
    "bessel_k",
    "mellin_hyperbolic",
    "mellin_hyperbolic_quadrature",
    "zeta_identity_at_zero",
    # anomaly pipeline
    "AnomalySpec",
    "AnomalyResult",
    "TableCell",
    "alpha_default",
    "alpha_conformal_scalar",
    "alpha_massive_scalar",
    "conformal_anomaly",
    "conformal_scalar_anomaly",
    "generate_table",
]
