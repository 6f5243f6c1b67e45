"""Every exported rcpolar name still exists.

A deleted or renamed function can leave a stale entry in a module's
``__all__`` (``from rcpolar.x import *`` then fails) or in the package's
re-exports; these tests name the stale entry.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rcpolar

MODULES = sorted(m.name for m in pkgutil.iter_modules(rcpolar.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(f"rcpolar.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"rcpolar.{name}.__all__ lists a name twice"
    missing = [a for a in exported if not hasattr(module, a)]
    assert not missing, f"rcpolar.{name}.__all__ names missing attributes {missing}"


def test_package_imports_exist():
    tree = ast.parse(Path(rcpolar.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"rcpolar.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"rcpolar.{node.module} has no {alias.name}"
            assert hasattr(rcpolar, alias.asname or alias.name)
