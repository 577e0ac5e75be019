"""A geodesic class's value rules are stated once, in ``manifold._check_classes``.

``GeodesicClass``, the file loader and ``synth_spectrum`` all check classes
through that one function.  This AST check fails if a rule's message is
written anywhere else in ``manifold.py``, as it was when the constructor
and the loader each kept a copy in step by hand.  The two length messages
are not listed: ``trivial_holonomy_c``, ``synth_spectrum`` and the
constructor's type guard use them as well.
"""

import ast
import pathlib

import pytest

MANIFOLD = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperzeta" / "manifold.py"
HOME = "_check_classes"
RULE_MESSAGES = (
    "power must be a positive integer",
    "c must be positive",
    "c must be supplied explicitly for nontrivial holonomy",
    "c must be a finite number",
    "chi must be a finite number",
    "holonomy character values must be finite",
)


def message_homes(source: str, message: str) -> list[str]:
    """The innermost function around each string constant holding ``message``.

    A constant outside every function is reported as ``<module>``.
    """
    homes = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if message in node.value:
                homes.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return homes


@pytest.mark.parametrize("message", RULE_MESSAGES)
def test_rule_stated_once(message):
    assert message_homes(MANIFOLD.read_text(encoding="utf-8"), message) == [HOME]


@pytest.mark.parametrize("source,homes", [
    pytest.param("def f():\n    raise ValueError('c must be positive')\n", ["f"], id="one"),
    pytest.param(
        "class A:\n    def g(self):\n        x = 'c must be positive'\n"
        "def f():\n    return 'c must be positive (field x)'\n",
        ["g", "f"], id="method-and-longer-string",
    ),
    pytest.param("M = 'c must be positive'\n", ["<module>"], id="module-level"),
    pytest.param("def f():\n    def g():\n        'c must be positive'\n", ["g"], id="nested"),
    pytest.param("def f():\n    return f'{1} c must be positive'\n", ["f"], id="f-string"),
    pytest.param("def f():\n    return 'c must be a number'\n", [], id="other-message"),
])
def test_guard_finds_every_copy(source, homes):
    assert message_homes(source, "c must be positive") == homes
