"""Every name a package module imports is used there or re-exported.

No linter is part of tier 1, so this AST check stands in for one: a name
bound by ``import`` or ``from ... import`` in any module under
``src/hyperzeta`` must appear as a name elsewhere in the module, or be
listed in its ``__all__``.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperzeta"
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import, ``from __future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            names += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:  # computed: it vouches for no import
                return set()
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]


def test_modules_found():
    found = {path.relative_to(PACKAGE).as_posix() for path in MODULES}
    assert {"anomaly.py", "heat_zeta.py", "verify.py", "_kernels/fallback.py"} <= found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,unused", [
    pytest.param("import math\n", ["math (line 1)"], id="unused-import"),
    pytest.param("import os.path\nos.sep\n", [], id="dotted-import-used"),
    pytest.param("from a import b as c\nb\n", ["c (line 1)"], id="alias-unused"),
    pytest.param("from a import b\n__all__ = ['b']\n", [], id="re-exported"),
    pytest.param("from a import b\n__all__ = [*c]\n", ["b (line 1)"], id="computed-all"),
    pytest.param("from __future__ import annotations\n", [], id="future"),
    pytest.param("def f():\n    from a import b\n    return b\n", [], id="local-used"),
    pytest.param("def f():\n    from a import b\n", ["b (line 2)"], id="local-unused"),
])
def test_guard_reports_exactly_the_unused(source, unused):
    assert unused_imports(source) == unused
