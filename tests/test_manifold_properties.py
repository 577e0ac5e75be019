"""Property harness: a manifold file with one bad field never crashes the CLI.

Each example takes the conformance fixture (three classes, fewer than
``CUT_BLOCK``, so no cut hides an extreme class), replaces one field with
an extreme or malformed value, and runs ``heat-trace`` and ``zeta-check``
on it in-process under a SIGALRM budget.  Whatever the file holds, each
command must end in one of three ways:

- exit 0, with no ``nan`` or ``inf`` in what it prints;
- exit 1 (``zeta-check``'s mismatch verdict);
- exit 2, with exactly one ``error:`` line;

and no exception may escape ``cli.main``.  Every field is tried with every
value of ``FIXED_VALUES`` as an explicit example; hypothesis then draws
further integers of 300 to 4299 digits, strings and lists, derandomised.
"""

import contextlib
import io
import json
import math
import pathlib
import re
import signal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperzeta.cli import main

FIXTURE = (pathlib.Path(__file__).parent / "data" / "manifold_conformance.json").read_text()
COMMANDS = (
    ("heat-trace", "--form", "1", "--t", "0.5", "2"),
    ("zeta-check", "--form", "1"),
)
BUDGET_S = 10  # per command; each takes a few ms on the fixture

# every field of the fixture, as a path into the document
FIELDS = (
    [("volume",), ("chi_one",), ("radius",), ("dimension",), ("format_version",)]
    + [("betti", i) for i in range(5)]
    + [("geodesics", i, key) for i in range(3) for key in ("length", "power", "c", "chi")]
    + [("geodesics", 2, "holonomy", p) for p in range(4)]
)
FIXED_VALUES = [
    10**400, -(10**400), 10**4298, -1, -1.5, 0, 0.0, 1, 1e-300, -1e-300, 1e300, -1e300,
    math.nan, math.inf, -math.inf, "x", "1.5", "", True, False, None, [], [1.0], {},
]
VALUES = st.one_of(
    # integers of 300 to 4299 digits, either sign
    st.builds(
        lambda digits, lead, sign: sign * lead * 10 ** (digits - 1),
        st.integers(300, 4299), st.integers(1, 9), st.sampled_from([1, -1]),
    ),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=2)), max_size=3),
)


class _OverBudget(BaseException):
    """Raised by SIGALRM; a BaseException, so no handler in the package catches it."""


def _over_budget(signum, frame):
    raise _OverBudget()


def mutated(field: tuple, value) -> str:
    doc = json.loads(FIXTURE)
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    return json.dumps(doc)


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.alarm(BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _OverBudget:
        raise AssertionError(f"{argv[0]} ran past {BUDGET_S} s") from None
    except Exception as exc:  # any escape is the finding
        raise AssertionError(f"{argv[0]} raised {type(exc).__name__}: {exc}") from exc
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def check_file(path, field: tuple, value) -> None:
    path.write_text(mutated(field, value))
    for command in COMMANDS:
        code, out, err = run([command[0], "--manifold", str(path), *command[1:]])
        where = f"{command[0]} with {field} = {str(value)[:40]}: exit {code}, {err[:300]!r}"
        assert code in (0, 1, 2), where
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith("error: "), where
        if code == 0:
            assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), where


def _with_every_fixed_example(test):
    for field in FIELDS:
        for value in FIXED_VALUES:
            test = example(field=field, value=value)(test)
    return test


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(field=st.sampled_from(FIELDS), value=VALUES)
@_with_every_fixed_example
def test_one_bad_field_never_crashes(tmp_path_factory, field, value):
    check_file(tmp_path_factory.getbasetemp() / "mutated.json", field, value)


def test_fixture_runs_clean(tmp_path):
    # the harness's baseline: the fixture itself passes both commands
    path = tmp_path / "m.json"
    path.write_text(FIXTURE)
    for command in COMMANDS:
        code, out, err = run([command[0], "--manifold", str(path), *command[1:]])
        assert (code, err) == (0, "")
