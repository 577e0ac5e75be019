"""The exact half imports no numeric code, statically and at run time.

The exact half is ``exact``, ``plancherel``, ``anomaly`` and ``output``;
``cli`` reaches the numeric half (``heat_zeta``, ``manifold``,
``_kernels``, ``verify``) only inside the commands that use it, and the
package ``__init__`` resolves its exports on first use.  So an
``anomaly``, ``table`` or ``plancherel`` process never loads a numeric
module.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hyperzeta

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperzeta"
EXACT_HALF = ("exact", "plancherel", "anomaly", "output")
NUMERIC_HALF = {"heat_zeta", "manifold", "_kernels", "verify"}


def package_imports(nodes) -> set[str]:
    """The hyperzeta submodules (first component) that these import nodes name."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found |= {
                a.name.split(".")[1] for a in node.names if a.name.startswith("hyperzeta.")
            }
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("hyperzeta"):
                module = node.module.partition(".")[2]
            elif node.level == 1:
                module = node.module or ""
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:  # from . import a, b
                found |= {a.name for a in node.names}
    return found


def parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", EXACT_HALF)
def test_exact_half_imports_no_numeric_module(name):
    # at any level: a function-local import would load it just the same
    assert package_imports(ast.walk(parse(name))) & NUMERIC_HALF == set()


def test_anomaly_imports_only_exact_and_plancherel():
    assert package_imports(ast.walk(parse("anomaly"))) == {"exact", "plancherel"}


def outside_functions(node):
    """Every node below ``node`` that no function body encloses."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from outside_functions(child)


def test_cli_imports_numeric_modules_only_inside_functions():
    tree = parse("cli")
    assert package_imports(outside_functions(tree)) & NUMERIC_HALF == set()
    # and the commands do reach them
    assert package_imports(ast.walk(tree)) >= {"heat_zeta", "manifold", "verify"}


@pytest.mark.parametrize("source,found", [
    pytest.param("from . import heat_zeta, exact\n", {"heat_zeta", "exact"}, id="relative"),
    pytest.param("from ._kernels import fallback\n", {"_kernels"}, id="relative-sub"),
    pytest.param("from .heat_zeta import f\n", {"heat_zeta"}, id="relative-name"),
    pytest.param("import hyperzeta.verify\n", {"verify"}, id="absolute"),
    pytest.param("from hyperzeta.manifold import g\n", {"manifold"}, id="absolute-from"),
    pytest.param("def f():\n    from . import verify\n", {"verify"}, id="local"),
    pytest.param("import json\nfrom fractions import Fraction\n", set(), id="outside"),
])
def test_guard_finds_every_import_form(source, found):
    assert package_imports(ast.walk(ast.parse(source))) == found


def test_every_export_has_one_source():
    assert set(hyperzeta._SOURCES) == set(hyperzeta.__all__) - {"__version__"}


# runs the command line as `python -m hyperzeta` does, then prints the
# hyperzeta modules that the process loaded
_PROBE = """
import json, runpy, sys
sys.argv = ["hyperzeta", *json.loads(sys.argv[1])]
try:
    runpy.run_module("hyperzeta", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
else:
    code = None
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("hyperzeta"))]))
"""


def loaded_modules(argv: list[str]) -> tuple[object, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=env, check=True,
    )
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, modules


@pytest.mark.parametrize("argv", [
    ["anomaly", "--dim", "10", "--form", "2"],
    ["table", "--which", "table2"],
    ["plancherel", "--dim", "6", "--form", "1"],
])
def test_exact_commands_load_no_numeric_module(argv):
    code, modules = loaded_modules(argv)
    assert code == 0
    numeric = {f"hyperzeta.{m}" for m in NUMERIC_HALF} | {"hyperzeta._kernels.fallback"}
    assert numeric & set(modules) == set()
    assert "hyperzeta.anomaly" in modules

