"""Quadrature layer of the numeric half; the code is in ``fallback``.

The package reaches the engine and the kernels as ``fallback``'s public
names.  This module re-exports only the three kernels perfbench's tracer
wraps.  They go when the module moves.
"""

from .fallback import bessel_k_integral, mellin_time_integral, plancherel_integral

__all__ = ["plancherel_integral", "mellin_time_integral", "bessel_k_integral"]
