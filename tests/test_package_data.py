"""Packaging: every file under the package's data directory ships in a wheel."""

from pathlib import Path

import pytest

# tomllib is in the standard library from Python 3.11 on
tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rcpolar"


def test_package_data_globs_cover_data_files():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["rcpolar"]
    shipped = {p for g in globs for p in PACKAGE.glob(g) if p.is_file()}
    present = {p for p in (PACKAGE / "data").iterdir() if p.is_file()}
    assert "log_phi_knots.txt" in {p.name for p in present}
    assert present <= shipped, sorted(p.name for p in present - shipped)
