"""Every public name a module lists in `__all__` must exist, so a deleted
or renamed function cannot leave a stale entry that only fails when a
user star-imports the package."""
import importlib

import pytest

import bqtsim

MODULES = ("bqtsim", "bqtsim.linalg", "bqtsim.channels", "bqtsim.protocol", "bqtsim.metrics", "bqtsim.oracles")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_star_import():
    namespace = {}
    exec("from bqtsim import *", namespace)
    assert set(bqtsim.__all__) <= set(namespace)
