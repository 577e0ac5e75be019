"""What perfbench/ reads of the package, checked without running the bench.

perfbench/run.py records ``hyperzeta.BACKEND``, perfbench/tracer.py wraps
the functions its SPANS and COUNTERS name, and perfbench/backends.py times
the kernels of ``hyperzeta._kernels.fallback``.  A rename in the package
that breaks one of these reads shows here.  The bench files are loaded as
they are, and no bytecode is written next to them.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import hyperzeta
from hyperzeta import heat_zeta
from hyperzeta._kernels import fallback

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# spans of the tracer whose targets the package no longer has
ABSENT_SPANS = [
    "plancherel.EvenPolynomial.__mul__", "plancherel.plancherel_polynomial",
    "heat_zeta.zeta_identity_terms", "heat_zeta.tanh_moment_series_exact",
    "manifold.GeodesicClass.character", "manifold.GeodesicClass.c_factor",
]


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_backend_is_recorded():
    assert isinstance(hyperzeta.BACKEND, str)


def test_every_traced_module_imports():
    tracer = _bench_module("tracer")
    for _, module_name, _, _ in tracer.SPANS + tracer.COUNTERS:
        importlib.import_module(module_name)


def test_absent_spans_and_kernel_calls(small_spectrum):
    # the kernel spans wrap hyperzeta._kernels' names; the package calls the
    # same functions through heat_zeta.quadrature, so each call still counts.
    # The time route calls mellin_time_integrals, which the tracer does not
    # wrap, so its span reads 0
    tracer = _bench_module("tracer")
    traced = tracer.Tracer()
    traced.install()
    try:
        heat_zeta.identity_heat_term(small_spectrum, 1, 0.5)
        heat_zeta.mellin_hyperbolic_quadrature(small_spectrum, 1, [0.5])
    finally:
        traced.uninstall()
    assert traced.absent == ABSENT_SPANS
    assert traced.stats["kernels.plancherel_integral"].calls == 1
    assert traced.stats["kernels.mellin_time_integral"].calls == 0


def test_backend_timings_find_their_kernels():
    # backends.compare calls impl.<kernel> with impl = hyperzeta._kernels.fallback
    tree = ast.parse((BENCH / "backends.py").read_text(encoding="utf-8"))
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "impl"
    }
    assert called == {"plancherel_integral", "mellin_time_integral", "bessel_k_integral"}
    for name in called:
        assert callable(getattr(fallback, name))
