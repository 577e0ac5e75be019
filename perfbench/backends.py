"""Kernel backend comparison, carried over from benchmarks/bench_kernels.py.

Times the three quadrature kernels on fixed inputs with every backend that
imports, and checks that the backends agree bit for bit.  When the compiled
backend is not built it reports ``native: unavailable`` instead of failing.
"""

from __future__ import annotations

from time import perf_counter


def _plancherel(impl, miatello_coefficients):
    out = []
    for k in (1, 2, 3, 5):
        coeffs = [float(c) for c in miatello_coefficients(k, 0)]
        for t in (0.05, 0.3, 1.0, 4.0):
            out.append(impl.plancherel_integral(coeffs, t)[0])
    return out


def _mellin(impl, _):
    lengths = [1.0 + 0.37 * i for i in range(12)]
    amps = [0.8**i for i in range(12)]
    return [
        impl.mellin_time_integral(lengths, amps, alpha, s)[0]
        for s in (0.0, 0.3, 0.7)
        for alpha in (2.25, 6.25)
    ]


def _bessel(impl, _):
    return [impl.bessel_k_integral(nu, z)[0] for nu in (0.0, 0.2, 1.5, 3.0)
            for z in (0.5, 2.0, 10.0)]


KERNELS = (
    ("plancherel_integral", _plancherel),
    ("mellin_time_integral", _mellin),
    ("bessel_k_integral", _bessel),
)


def compare(repeat: int = 3) -> tuple[list[str], bool]:
    """Text lines of best-of-`repeat` kernel times per backend, and whether all agree."""
    from hyperzeta._kernels import fallback
    from hyperzeta.plancherel import miatello_coefficients

    impls = {"python": fallback}
    try:
        from hyperzeta._kernels import _native
    except ImportError:
        _native = None
    if _native is not None:
        impls["native"] = _native

    lines = []
    agree = True
    for kernel, workload in KERNELS:
        values = {}
        for backend, impl in impls.items():
            best = float("inf")
            for _ in range(repeat):
                t0 = perf_counter()
                values[backend] = workload(impl, miatello_coefficients)
                best = min(best, perf_counter() - t0)
            lines.append(f"kernels.{kernel}.self_s[{backend}] = {best:.6f} s")
        if _native is not None:
            same = values["python"] == values["native"]
            agree &= same
            lines.append(f"kernels.{kernel} bitwise identical across backends: "
                         f"{'yes' if same else 'NO'}")
    if _native is None:
        lines.append("native: unavailable")
    return lines, agree
