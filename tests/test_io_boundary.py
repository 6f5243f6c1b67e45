"""File I/O stays at the edge: the library formats and parses text, and only
the command line opens files.

Package data read through ``importlib.resources`` is not a file the user
names, so it does not count.
"""

import ast
from pathlib import Path

import rcpolar

PACKAGE = Path(rcpolar.__file__).parent


def _opens(tree: ast.AST) -> bool:
    """Whether ``tree`` calls the builtin ``open`` (also as ``io.open`` or
    ``builtins.open``)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            return True
        if (isinstance(f, ast.Attribute) and f.attr == "open"
                and isinstance(f.value, ast.Name) and f.value.id in ("io", "builtins")):
            return True
    return False


def test_only_cli_opens_files():
    openers = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")
                     if _opens(ast.parse(p.read_text(encoding="utf-8"))))
    assert openers == ["cli.py"]
