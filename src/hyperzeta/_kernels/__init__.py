"""Quadrature layer of the numeric half; the code is in ``fallback``.

The package reaches the engine and the kernels as ``fallback``'s public
names.  This module keeps only what perfbench reads: ``BACKEND`` (there is
one implementation, in pure Python) and the three kernels its tracer
wraps.  They go when the module moves.
"""

from .fallback import bessel_k_integral, mellin_time_integral, plancherel_integral

BACKEND: str = "python"

__all__ = ["BACKEND", "plancherel_integral", "mellin_time_integral", "bessel_k_integral"]
