"""Every quadrature kernel runs on ``log_integrate``, the package's one engine.

A kernel gives ``log_node(u) = (log|f(u)|, sign)`` and ``log_integrate``
scans level 0 once, factors the peak out and refines the trapezoid rule
level by level, so no kernel needs a cut constant of its own.  These AST
checks fail if a kernel stops calling ``log_integrate``, if anything else
calls it, or if any other function under ``src/`` refines a trapezoid
rule, as the float-node engine beside ``log_integrate`` once did.  One
runtime check more fails if a kernel returns anything but the engine's
(mantissa, delta, level, converged, scale).
"""

import ast
import pathlib

import pytest

from hyperzeta._kernels import fallback

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperzeta"
ENGINE = "log_integrate"
KERNELS = {"plancherel_integrals", "fermi_integral", "mellin_time_integrals", "bessel_k_integral"}


def engine_callers(source: str) -> list[str]:
    """The name of the function around each call of ``log_integrate`` in ``source``.

    The call is found by its bare name or as an attribute
    (``quadrature.log_integrate(...)``); one outside any function is
    reported as ``<module>``.  A nested function reports the outermost
    function it sits in.
    """
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner == "<module>" and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == ENGINE:
                    found.append(inner)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def _halves_a_step(node) -> bool:
    # h0 / (1 << level), h0 / 2 ** level, h /= 2, h *= 0.5, h = h / 2 or
    # h = 0.5 * h: the step of a trapezoid rule that refines level by level
    def const(x, *values):
        return isinstance(x, ast.Constant) and x.value in values

    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        right = node.right
        if isinstance(right, ast.BinOp) and (
            (isinstance(right.op, ast.LShift) and const(right.left, 1))
            or (isinstance(right.op, ast.Pow) and const(right.left, 2, 2.0))
        ):
            return True
    if isinstance(node, ast.AugAssign):
        return ((isinstance(node.op, ast.Div) and const(node.value, 2, 2.0))
                or (isinstance(node.op, ast.Mult) and const(node.value, 0.5)))
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Name) and isinstance(value, ast.BinOp):
            def same(x):
                return isinstance(x, ast.Name) and x.id == target.id

            if isinstance(value.op, ast.Div):
                return same(value.left) and const(value.right, 2, 2.0)
            if isinstance(value.op, ast.Mult):
                return ((same(value.left) and const(value.right, 0.5))
                        or (same(value.right) and const(value.left, 0.5)))
    return False


def refiners(source: str) -> list[str]:
    """The functions in ``source`` that halve a step inside a loop.

    That is how a trapezoid rule refines level by level; a fixed-step
    trapezoid (the Bessel family of heat_zeta) does not count.
    """
    found = []
    for func in ast.parse(source).body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loops = [n for n in ast.walk(func) if isinstance(n, (ast.For, ast.While))]
        if any(_halves_a_step(n) for loop in loops for n in ast.walk(loop)):
            found.append(func.name)
    return found


SOURCES = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES)
def test_only_the_kernels_call_the_engine(path):
    callers = engine_callers((SRC / path).read_text(encoding="utf-8"))
    assert set(callers) <= KERNELS, callers


def test_every_kernel_calls_the_engine():
    callers = engine_callers((SRC / "_kernels" / "fallback.py").read_text(encoding="utf-8"))
    assert sorted(callers) == sorted(KERNELS)


@pytest.mark.parametrize("path", SOURCES)
def test_log_integrate_is_the_one_refinement(path):
    found = refiners((SRC / path).read_text(encoding="utf-8"))
    assert found == ([ENGINE] if path == "_kernels/fallback.py" else [])


# one call of each kernel, on an integrand whose value is a normal float
KERNEL_CALLS = {
    "plancherel_integrals": lambda kernel: kernel((0.25, 1.0))(0.5),
    "fermi_integral": lambda kernel: kernel((0.25, 1.0)),
    "mellin_time_integrals": lambda kernel: kernel([1.0, 2.0], [0.5, -0.25], 2.25)(0.3),
    "bessel_k_integral": lambda kernel: kernel(0.2, 1.0),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_every_kernel_returns_the_engine_tuple(kernel):
    # one shape for every kernel, (mantissa, delta, level, converged,
    # scale): the time route and the Bessel-K core once returned the float
    # value in a 4-tuple
    result = KERNEL_CALLS[kernel](getattr(fallback, kernel))
    assert [type(x) for x in result] == [float, float, int, bool, float], result
    assert result[3]


@pytest.mark.parametrize("source,callers", [
    pytest.param("def f(node):\n    return log_integrate(node)\n", ["f"], id="bare-name"),
    pytest.param("def g():\n    return quadrature.log_integrate(lambda u: (0.0, 1.0))\n", ["g"],
                 id="attribute"),
    pytest.param("def h(c):\n    def at(t):\n        return log_integrate(c)\n    return at\n",
                 ["h"], id="nested"),
    pytest.param("x = log_integrate(n)\n", ["<module>"], id="module-level"),
    pytest.param("def k():\n    return integrate(lambda u: 1.0)\n", [], id="other-call"),
    pytest.param("from .fallback import log_integrate\n", [], id="import-is-not-a-call"),
])
def test_guard_finds_every_call(source, callers):
    assert engine_callers(source) == callers


@pytest.mark.parametrize("body,found", [
    pytest.param("    for level in range(1, 13):\n        h = 0.5 / (1 << level)\n", True,
                 id="shift"),
    pytest.param("    for level in range(1, 13):\n        h = 0.5 / 2 ** level\n", True,
                 id="power"),
    pytest.param("    h = 0.5\n    while h > 1e-3:\n        h /= 2\n", True, id="divide-in-place"),
    pytest.param("    h = 0.5\n    while h > 1e-3:\n        h *= 0.5\n", True,
                 id="multiply-in-place"),
    pytest.param("    h = 0.5\n    for _ in range(9):\n        h = 0.5 * h\n", True, id="rebind"),
    pytest.param("    h = 0.5 / (1 << 3)\n", False, id="outside-a-loop"),
    pytest.param("    for x in range(9):\n        y = 0.5 * x\n", False, id="other-name"),
])
def test_guard_finds_every_refinement(body, found):
    assert refiners("def f():\n" + body) == (["f"] if found else [])
