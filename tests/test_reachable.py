"""Every function, class and method of the package is used by the package.

A definition that no code under ``src/hyperzeta`` names is reached only by
the tests: code that the library carries for them alone.  This AST check
finds it.  A ``def`` or ``class`` anywhere under ``src/hyperzeta`` (a
method too, unless its name is a dunder, which Python calls on its own)
must be named by some ``Name`` or ``Attribute`` node under
``src/hyperzeta``, or be listed in ALLOWED with the user outside the tests
that keeps it.  A name that appears only as a string (in an ``__all__`` or
in the package's ``_SOURCES`` table) is not a use.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperzeta"
MODULES = sorted(PACKAGE.rglob("*.py"))

# "module.name" (or "module.Class.method"): the user outside the tests
ALLOWED = {
    "heat_zeta.identity_heat_term":
        "public API in hyperzeta.__all__, documented in README and docs/numerics.md",
    "heat_zeta.hyperbolic_heat_term":
        "public API in hyperzeta.__all__, documented in README and docs/numerics.md",
    "heat_zeta.bessel_k":
        "public API in hyperzeta.__all__, documented in README and docs/numerics.md",
    "anomaly.zeta_identity_zero_total":
        "public API in hyperzeta.anomaly.__all__, documented in docs/numerics.md",
    "manifold.trivial_holonomy_c":
        "public API in hyperzeta.manifold.__all__, documented in docs/manifold-format.md",
    "_kernels.fallback.mellin_time_integral": "timed by perfbench/backends.py",
    "_kernels.fallback.bessel_k_integral": "timed by perfbench/backends.py",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every def and class, dunders aside."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                if not _is_dunder(child.name):
                    found.append((qualified, child.name))
                visit(child, qualified)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def used_names(trees: list[ast.Module]) -> set[str]:
    """Every identifier that a Name or an Attribute node reads or binds."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def unreachable(sources: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in ``sources`` that none of them names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = used_names(list(trees.values()))
    return sorted(
        qualified
        for module, tree in trees.items()
        for qualified, name in definitions(tree, module)
        if name not in used
    )


def _module_name(path: pathlib.Path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def test_modules_found():
    found = {_module_name(path) for path in MODULES}
    assert {"anomaly", "heat_zeta", "verify", "_kernels.fallback"} <= found


def test_every_definition_is_used_by_the_package():
    sources = {_module_name(path): path.read_text(encoding="utf-8") for path in MODULES}
    assert unreachable(sources) == sorted(ALLOWED)


@pytest.mark.parametrize("sources,found", [
    pytest.param({"m": "def f():\n    pass\n"}, ["m.f"], id="never-named"),
    pytest.param({"m": "def f():\n    pass\nf()\n"}, [], id="called"),
    pytest.param({"m": "def f():\n    pass\n", "n": "from m import f\ng(key=f)\n"}, [],
                 id="named-in-another-module"),
    pytest.param({"m": "class A:\n    def f(self):\n        pass\n\nA()\n"}, ["m.A.f"],
                 id="method-never-named"),
    pytest.param({"m": "class A:\n    def f(self):\n        pass\n\nA().f()\n"}, [],
                 id="method-as-attribute"),
    pytest.param({"m": "class A:\n    def __init__(self):\n        pass\n\nA()\n"}, [],
                 id="dunder-method"),
    pytest.param({"m": "class A:\n    pass\n"}, ["m.A"], id="class-never-named"),
    pytest.param({"m": "def f():\n    def g():\n        pass\n    return 1\nf()\n"}, ["m.f.g"],
                 id="nested-never-named"),
    pytest.param({"m": "def f():\n    pass\n__all__ = ['f']\n"}, ["m.f"], id="string-in-all"),
    pytest.param({"m": "def f():\n    pass\n_SOURCES = {'f': 'm'}\n"}, ["m.f"],
                 id="string-in-sources"),
])
def test_guard_reports_exactly_the_unreachable(sources, found):
    assert unreachable(sources) == found
