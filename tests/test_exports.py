"""Every name a gpilab module exports exists, is defined in that module, and
every public function it defines is exported (the benchmark tracer wraps
__all__'s functions only, and star imports read __all__ name by name)."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
    if name == "cli":           # no __all__; the tracer names its functions itself
        return
    defined, public = set(), set()
    for node in ast.parse(Path(mod.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert sorted(public - set(mod.__all__)) == []
    assert sorted(set(mod.__all__) - defined) == []
