"""A wheel must ship every bundled data file: each file under the stubs
and templates directories needs a package-data glob in pyproject.toml."""

import os
from pathlib import Path

import pytest

from conftest import REPO_ROOT

PACKAGE = Path(REPO_ROOT, "src", "verimoa")


def test_every_stub_and_template_matches_a_package_data_glob():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["verimoa"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    bundled = [
        path
        for folder in ("stubs", "templates")
        for path in (PACKAGE / folder).rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    ]
    assert len(bundled) > 2
    assert [str(p.relative_to(PACKAGE)) for p in bundled if p not in shipped] == []
