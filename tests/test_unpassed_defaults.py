"""Every defaulted parameter of the package is passed by the package.

A parameter with a default that no package call sets is a value only a
test can change: an extra setting of the library that nothing uses.  This
AST check finds them.  A parameter with a default in any ``def`` under
``src/hyperzeta`` must be passed, by keyword or by position, by some call
under ``src/hyperzeta`` to a function of that name, or be listed in
ALLOWED with its reason.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperzeta"
MODULES = sorted(PACKAGE.rglob("*.py"))

# "function.parameter": why no package call passes it
ALLOWED = {
    "main.argv": "the entry point that the tests and perfbench drive",
}


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, position or None if keyword-only) of every default.

    The callee is the name a call uses: the function's, or the class's for
    an ``__init__``.  The position counts from the first argument a call
    passes, so a method's ``self`` or ``cls`` is not counted.
    """
    methods = {
        id(item): node.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        callee = methods[id(node)] if node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if id(node) in methods else 0
        first_default = len(positional) - len(node.args.defaults)
        for index in range(first_default, len(positional)):
            found.append((callee, positional[index].arg, index - skip))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                found.append((callee, arg.arg, None))
    return found


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def passed_arguments(trees: list[ast.Module]) -> dict[str, tuple[set | None, int]]:
    """Per callee name: the keywords passed and the most positional arguments.

    ``*args`` counts as every position and ``**kwargs`` as every keyword
    (None in place of the keyword set).
    """
    passed: dict[str, tuple[set | None, int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _callee(node) is None:
                continue
            keywords, most = passed.get(_callee(node), (set(), 0))
            if any(k.arg is None for k in node.keywords):
                keywords = None
            elif keywords is not None:
                keywords = keywords | {k.arg for k in node.keywords}
            if any(isinstance(a, ast.Starred) for a in node.args):
                most = float("inf")
            passed[_callee(node)] = (keywords, max(most, len(node.args)))
    return passed


def unpassed_defaults(sources: list[str]) -> list[str]:
    """``callee.parameter`` of every default that no call in ``sources`` sets."""
    trees = [ast.parse(source) for source in sources]
    passed = passed_arguments(trees)
    unpassed = []
    for tree in trees:
        for callee, parameter, position in defaulted_parameters(tree):
            keywords, most = passed.get(callee, (set(), 0))
            by_keyword = keywords is None or parameter in keywords
            by_position = position is not None and most > position
            if not (by_keyword or by_position):
                unpassed.append(f"{callee}.{parameter}")
    return sorted(unpassed)


def test_modules_found():
    found = {path.relative_to(PACKAGE).as_posix() for path in MODULES}
    assert {"anomaly.py", "heat_zeta.py", "verify.py", "_kernels/fallback.py"} <= found


def test_every_default_is_passed_by_the_package():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unpassed_defaults(sources) == sorted(ALLOWED)


@pytest.mark.parametrize("sources,unpassed", [
    pytest.param(["def f(x, order=None):\n    pass\nf(1)\n"], ["f.order"], id="never-passed"),
    pytest.param(["def f(x, order=None):\n    pass\nf(1, 2)\n"], [], id="by-position"),
    pytest.param(["def f(x, order=None):\n    pass\n", "f(1, order=2)\n"], [], id="by-keyword"),
    pytest.param(["def f(x, *, order=None):\n    pass\nf(1, 2)\n"], ["f.order"],
                 id="keyword-only-by-position"),
    pytest.param(["def f(x, order=None):\n    pass\nf(*xs)\n"], [], id="starred"),
    pytest.param(["def f(x, order=None):\n    pass\nf(1, **kw)\n"], [], id="double-starred"),
    pytest.param(["class A:\n    def f(self, d=6):\n        pass\na.f(1)\n"], [], id="method"),
    pytest.param(["class A:\n    def f(self, d=6):\n        pass\na.f()\n"], ["f.d"],
                 id="method-unpassed"),
    pytest.param(["class A:\n    def __init__(self, d=6):\n        pass\nA(1)\n"], [],
                 id="init-by-class-name"),
    pytest.param(["class A:\n    def __init__(self, d=6):\n        pass\nA()\n"], ["A.d"],
                 id="init-unpassed"),
    pytest.param(["class A:\n    @staticmethod\n    def f(d=6):\n        pass\nA.f(1)\n"], [],
                 id="staticmethod"),
])
def test_guard_reports_exactly_the_unpassed(sources, unpassed):
    assert unpassed_defaults(sources) == unpassed
