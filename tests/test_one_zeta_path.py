"""The zeta checks are computed in one place, ``heat_zeta.zeta_check``.

``zeta-check`` and verify's ``mellin-vs-bessel`` and ``s-scaling`` take
every number from it.  This AST check fails if a module under ``src/``
other than ``heat_zeta`` calls a route of the check itself, or divides by
``math.gamma``, as ``cli`` and ``verify`` did when each kept its own copy
of the calls.  The routes stay independent of each other; only the
function that calls them is shared.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperzeta"
HOME = "heat_zeta.py"
ROUTES = ("mellin_hyperbolic", "mellin_hyperbolic_quadrature", "identity_zeta_term")


def zeta_check_uses(source: str) -> list[str]:
    """Each call of a route and each use of ``math.gamma`` in ``source``, in order.

    A route is found whether it is called by its bare name or as an
    attribute (``heat_zeta.mellin_hyperbolic(...)``); ``math.gamma`` by
    attribute or imported by name.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ROUTES:
                found.append(name)
        elif isinstance(node, ast.Attribute) and node.attr == "gamma":
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                found.append("math.gamma")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name == "gamma" for alias in node.names):
                found.append("math.gamma")
    return found


@pytest.mark.parametrize(
    "path", sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py") if p.name != HOME)
)
def test_only_heat_zeta_drives_the_zeta_check(path):
    assert zeta_check_uses((SRC / path).read_text(encoding="utf-8")) == []


def test_heat_zeta_holds_the_calls():
    uses = zeta_check_uses((SRC / HOME).read_text(encoding="utf-8"))
    assert set(uses) == {*ROUTES, "math.gamma"}


@pytest.mark.parametrize("source,uses", [
    pytest.param("heat_zeta.mellin_hyperbolic(d, 0, s)\n", ["mellin_hyperbolic"], id="attribute"),
    pytest.param("def f():\n    return identity_zeta_term(d, 0)\n", ["identity_zeta_term"],
                 id="bare-name-in-function"),
    pytest.param("x = [hz.mellin_hyperbolic_quadrature(d, p, s) for p in ps]\n",
                 ["mellin_hyperbolic_quadrature"], id="comprehension"),
    pytest.param("f = v / math.gamma(1e-2)\n", ["math.gamma"], id="math-gamma"),
    pytest.param("from math import gamma, pi\n", ["math.gamma"], id="imported-gamma"),
    pytest.param("heat_zeta.zeta_check(d, 0, s)\nmpmath.gamma(s)\n", [], id="zeta-check-and-mpmath"),
    pytest.param("from .heat_zeta import mellin_hyperbolic\n", [], id="import-is-not-a-call"),
])
def test_guard_finds_every_use(source, uses):
    assert zeta_check_uses(source) == uses
