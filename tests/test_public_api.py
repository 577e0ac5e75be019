"""Every exported name resolves: ``hyperzeta.__all__`` and each submodule's."""

import importlib
import pkgutil

import pytest

import hyperzeta

# __main__ runs the command line when imported, so it is left out
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(hyperzeta.__path__, prefix="hyperzeta.")
    if not info.name.endswith(".__main__")
)


def test_package_all_resolves():
    missing = [name for name in hyperzeta.__all__ if not hasattr(hyperzeta, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_submodule_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from hyperzeta import *", namespace)
    assert set(hyperzeta.__all__) <= set(namespace)
