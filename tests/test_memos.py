"""Every memo of the package hits when the shipped commands run.

A functools cache that never hits holds its entries in memory and costs a
lookup per call for nothing.  This test finds every ``lru_cache`` and
``cache`` at module level in the package, so a new memo is checked without
editing this file, empties them, runs each command of the CLI in-process
twice and reads each memo's ``cache_info()``.  A memo with no hit fails, unless
ALLOWED gives the reason it stays, as in ``test_reachable.py``.
"""

import importlib
import pkgutil

import hyperzeta
from hyperzeta.cli import main

# "module.name": why the memo stays though the commands below never hit it
ALLOWED: dict[str, str] = {}


def package_memos() -> dict[str, object]:
    """Every functools cache defined at module level, by "module.name"."""
    memos = {}
    for info in pkgutil.walk_packages(hyperzeta.__path__, "hyperzeta."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == info.name:
                memos[f"{info.name.removeprefix('hyperzeta.')}.{name}"] = value
    return memos


def commands(spectrum: str) -> list[list[str]]:
    """One small argv per shipped command; synth-spectrum writes the file
    that heat-trace and zeta-check read."""
    return [
        ["anomaly", "--dim", "10", "--form", "2", "--radius", "3/2"],
        ["table", "--which", "table1"],
        ["table", "--which", "custom", "--dims", "24", "--forms", "0", "5", "--format", "csv"],
        ["plancherel", "--dim", "8", "--form", "2", "--eval", "0.5"],
        ["synth-spectrum", "--seed", "3", "--count", "20", "--dim", "4", "--out", spectrum],
        ["heat-trace", "--manifold", spectrum, "--form", "1", "--t", "0.5", "1"],
        ["zeta-check", "--manifold", spectrum, "--form", "1", "--s", "0.3", "0.6"],
        ["verify", "--fast"],
    ]


def test_memos_found():
    assert {
        "_kernels.fallback._pairwise_plan", "anomaly._bern_weight", "anomaly._prefix_sums",
        "anomaly._row_weights", "cli.build_parser", "exact._pi_fixed", "exact._pi_power",
        "plancherel._full_product",
    } <= set(package_memos())


def test_every_memo_hits_when_each_command_runs_twice(tmp_path, capsys):
    memos = package_memos()
    for memo in memos.values():
        memo.cache_clear()
    for argv in commands(str(tmp_path / "spectrum.json")):
        for _ in range(2):
            assert main(argv) == 0, argv
    capsys.readouterr()
    idle = sorted(name for name, memo in memos.items() if memo.cache_info().hits == 0)
    assert idle == sorted(ALLOWED)
