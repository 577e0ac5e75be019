"""Every quadrature kernel states its node by one contract, on ``log_integrate``.

A kernel gives ``log_node(u) = (log|f(u)|, sign)`` and ``log_integrate``
factors the peak out before the engine, ``de_integrate``, sees a float
node, so no kernel needs a cut constant of its own.  This AST check fails
if any function under ``src/`` other than ``log_integrate`` calls
``de_integrate``, as the time route, the moment continuation and the
Bessel-K core did while each ran on float nodes.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperzeta"
ENGINE = "de_integrate"
CALLER = "log_integrate"


def engine_callers(source: str) -> list[str]:
    """The name of the function around each call of ``de_integrate`` in ``source``.

    The call is found by its bare name or as an attribute
    (``quadrature.de_integrate(...)``); one outside any function is
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


@pytest.mark.parametrize("path", sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")))
def test_only_log_integrate_calls_the_engine(path):
    callers = engine_callers((SRC / path).read_text(encoding="utf-8"))
    assert set(callers) <= {CALLER}, callers


def test_log_integrate_holds_the_one_call():
    callers = engine_callers((SRC / "_kernels" / "fallback.py").read_text(encoding="utf-8"))
    assert callers == [CALLER]


@pytest.mark.parametrize("source,callers", [
    pytest.param("def f(node):\n    return de_integrate(node)\n", ["f"], id="bare-name"),
    pytest.param("def g():\n    return quadrature.de_integrate(lambda u: 1.0)\n", ["g"],
                 id="attribute"),
    pytest.param("def h(c):\n    def at(t):\n        return de_integrate(c)\n    return at\n",
                 ["h"], id="nested"),
    pytest.param("x = de_integrate(n)\n", ["<module>"], id="module-level"),
    pytest.param("def k():\n    return log_integrate(lambda u: (0.0, 1.0))\n", [],
                 id="log-integrate-is-not-the-engine"),
    pytest.param("from .fallback import de_integrate\n", [], id="import-is-not-a-call"),
])
def test_guard_finds_every_call(source, callers):
    assert engine_callers(source) == callers
