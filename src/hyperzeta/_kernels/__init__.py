"""Quadrature kernels of the numeric layer, implemented in ``fallback``.

``BACKEND`` names the implementation; there is one, in pure Python.
"""

from .fallback import (
    bessel_k_integral,
    mellin_time_integral,
    plancherel_integral,
    plancherel_integrals,
)

BACKEND: str = "python"

__all__ = [
    "BACKEND",
    "plancherel_integral",
    "plancherel_integrals",
    "mellin_time_integral",
    "bessel_k_integral",
]
