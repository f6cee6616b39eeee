"""Every name a gpilab module exports exists (the benchmark tracer and
star imports read __all__ name by name)."""

import importlib
import pkgutil

import pytest

import gpilab

MODULES = sorted(m.name for m in pkgutil.iter_modules(gpilab.__path__))


def test_modules_are_found():
    assert {"grid", "ioperator", "dynamics", "bench"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"gpilab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
