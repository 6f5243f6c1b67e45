"""The layers that the benchmark tracer wraps still exist in rcpolar.

``rcbench/tracing.py`` replaces each ``(module, attribute)`` of its ``WRAPS``
table with a timing wrapper.  A refactor that renames or removes one of these
attributes would break only the traced benchmark run; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "rcbench" / "tracing.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("rcbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


WRAPS = load_wraps()


def test_wraps_not_empty():
    assert WRAPS


@pytest.mark.parametrize("module,attr", sorted({(m, a) for m, a, _ in WRAPS}))
def test_wrapped_attribute_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"rcpolar.{module}"), attr, None))
