"""The exact half imports no numeric code, statically and at run time.

The exact half is ``exact``, ``plancherel``, ``anomaly`` and ``output``;
``cli`` reaches the numeric half (``heat_zeta``, ``manifold``,
``_kernels``, ``verify``) only inside the commands that use it, and the
package ``__init__`` resolves its exports on first use.  So an
``anomaly``, ``table`` or ``plancherel`` process never loads a numeric
module: ``exact`` renders in integer arithmetic.  The other way round,
``cli`` imports the exact half's modules inside the commands too: a
``heat-trace``, ``zeta-check`` or ``synth-spectrum`` process loads no
``anomaly``.

The package imports nothing beyond the standard library, and no process of
any command loads mpmath, ``verify`` included.  The tests add mpmath,
pytest and hypothesis.  All three are pure Python and mpmath is the one
high-precision reference, so the suite collects in full on any interpreter
that has them.
"""

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hyperzeta
from hyperzeta.manifold import ManifoldData, save_manifold, synth_spectrum

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


def top_level_imports(tree: ast.Module) -> set[str]:
    """The top-level module of every absolute import in ``tree``, at any level."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


# what a module may import besides the standard library, by where it lives
ALLOWED_IMPORTS = {
    "src": {"hyperzeta"},
    "tests": {"hyperzeta", "mpmath", "pytest", "hypothesis"},
}


@pytest.mark.parametrize("where", sorted(ALLOWED_IMPORTS))
def test_only_pure_python_dependencies_imported(where):
    root = PACKAGE if where == "src" else pathlib.Path(__file__).resolve().parent
    files = sorted(root.rglob("*.py"))
    # the test modules import one another by name
    local = {path.stem for path in files} if where == "tests" else set()
    allowed = set(sys.stdlib_module_names) | ALLOWED_IMPORTS[where] | local
    assert len(files) > 10
    bad = [
        f"{path.name}: {name}"
        for path in files
        for name in sorted(top_level_imports(ast.parse(path.read_text(encoding="utf-8"))))
        if name not in allowed
    ]
    assert bad == []


def test_no_module_imports_mpmath():
    # the package renders and computes with ints, Fractions and floats; its
    # high-precision references live in the tests
    importers = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if "mpmath" in top_level_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == set()


@pytest.mark.parametrize("source,found", [
    pytest.param("import mpmath as mp\n", {"mpmath"}, id="alias"),
    pytest.param("import os.path\n", {"os"}, id="dotted"),
    pytest.param("from hypothesis.strategies import floats\n", {"hypothesis"}, id="from"),
    pytest.param("def f():\n    import json\n", {"json"}, id="local"),
    pytest.param("from . import heat_zeta\nfrom .exact import f\n", set(), id="relative"),
])
def test_top_level_imports_guard(source, found):
    assert top_level_imports(ast.parse(source)) == found


# the exports the package root defines itself, as plain constants
ROOT_EXPORTS = {"__version__", "BACKEND"}


def test_every_export_has_one_source():
    assert set(hyperzeta._SOURCES) == set(hyperzeta.__all__) - ROOT_EXPORTS
    assert ROOT_EXPORTS <= set(hyperzeta.__all__) & set(vars(hyperzeta))


# runs the command line as `python -m hyperzeta` does (no command for an
# empty argv), reads the named attributes of the package root, then prints
# the exit code, their values and the hyperzeta and mpmath modules that the
# process loaded
_PROBE = """
import importlib, json, runpy, sys
argv, read = json.loads(sys.argv[1]), json.loads(sys.argv[2])
code = None
if argv:
    sys.argv = ["hyperzeta", *argv]
    try:
        runpy.run_module("hyperzeta", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
root = importlib.import_module("hyperzeta")
print(json.dumps([code, {name: getattr(root, name) for name in read}, sorted(
    m for m in sys.modules if m.partition(".")[0] in ("hyperzeta", "mpmath")
)]))
"""


def probe(argv: list[str], read: tuple[str, ...] = ()) -> tuple[object, dict, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv), json.dumps(read)],
        capture_output=True, text=True, env=env, check=True,
    )
    code, values, modules = json.loads(done.stdout.splitlines()[-1])
    return code, values, modules


def loaded_modules(argv: list[str]) -> tuple[object, list[str]]:
    code, _, modules = probe(argv)
    return code, modules


# a module each exact command does use, so the probe is seen to see loads
USED = {"anomaly": "hyperzeta.anomaly", "table": "hyperzeta.anomaly",
        "plancherel": "hyperzeta.plancherel"}


@pytest.mark.parametrize("argv", [
    ["anomaly", "--dim", "10", "--form", "2"],
    ["table", "--which", "table2"],
    ["plancherel", "--dim", "6", "--form", "1"],
])
def test_exact_commands_load_no_numeric_module(argv):
    code, modules = loaded_modules(argv)
    assert code == 0
    numeric = {f"hyperzeta.{m}" for m in NUMERIC_HALF} | {"hyperzeta._kernels.fallback"}
    assert (numeric | {"mpmath"}) & set(modules) == set()
    assert USED[argv[0]] in modules


@pytest.mark.parametrize("argv", [
    [],
    ["anomaly", "--dim", "10", "--form", "2"],
    ["table", "--which", "table2"],
], ids=["no-command", "anomaly", "table"])
def test_backend_read_loads_no_quadrature_module(argv):
    # perfbench records hyperzeta.BACKEND in every workload's process; it is
    # a constant of the package root, so the read loads no quadrature code
    code, values, modules = probe(argv, ("BACKEND",))
    assert code == (0 if argv else None)
    assert values == {"BACKEND": "python"}
    assert "hyperzeta" in modules
    assert [m for m in modules if m.startswith("hyperzeta._kernels")] == []


def test_verify_loads_no_mpmath():
    # the full verify, whose tanh-series quadrature loaded mpmath; the probe
    # is seen to see loads by the verify module it does load
    code, modules = loaded_modules(["verify"])
    assert code == 0
    assert "hyperzeta.verify" in modules
    assert "mpmath" not in modules


@pytest.mark.parametrize("command,renders", [
    ("synth-spectrum", False),
    ("heat-trace", True),
    ("zeta-check", False),
])
def test_numeric_commands_load_no_exact_half_code(tmp_path, command, renders):
    # the anomaly layer (and mpmath) were loaded by cli's imports, for nothing
    path = tmp_path / "m.json"
    data = ManifoldData(dimension=4, volume=1.0, betti=(1, 0, 0, 0, 1),
                        geodesics=tuple(synth_spectrum(1, 3, 1.0, 2, 4)))
    save_manifold(data, path)
    argv = {
        "synth-spectrum": ["--seed", "1", "--count", "3", "--dim", "4",
                           "--out", str(tmp_path / "out.json")],
        "heat-trace": ["--manifold", str(path), "--t", "0.5", "1"],
        "zeta-check": ["--manifold", str(path)],
    }[command]
    code, modules = loaded_modules([command, *argv])
    assert code == 0
    assert {"mpmath", "hyperzeta.anomaly"} & set(modules) == set()
    assert ("hyperzeta.output" in modules) == renders
    assert "hyperzeta.manifold" in modules


def test_cli_format_choices_are_the_renderers():
    # the parser takes them from the package, so building it loads no renderer
    from hyperzeta import cli, output

    commands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    for command in ("table", "heat-trace"):
        (choices,) = [
            action.choices for action in commands[command]._actions if action.dest == "format"
        ]
        assert tuple(choices) == output.FORMATS, command
