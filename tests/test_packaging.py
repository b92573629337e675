"""A wheel must ship every bundled data file: each file under the stubs
and templates directories needs a package-data glob in pyproject.toml.
numpy is a test dependency only: running the package never imports it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PROGRESSIVE_CONFIG, PROGRESSIVE_RULES, REPO_ROOT, TOY_BENCH

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


def test_numpy_is_not_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not [d for d in project["dependencies"] if d.startswith("numpy")]
    assert [d for d in project["optional-dependencies"]["test"] if d.startswith("numpy")]


def test_a_progressive_run_imports_no_numpy(tmp_path):
    # A fresh interpreter, since this one has numpy loaded by the tests.
    script = (
        "import sys, verimoa.cli\n"
        "rc = verimoa.cli.main(sys.argv[1:])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    argv = [
        "run", "--config", PROGRESSIVE_CONFIG, "--benchmark", TOY_BENCH,
        "--out", str(tmp_path / "out"), "--backend", "scripted:%s" % PROGRESSIVE_RULES,
        "--sim", "stub",
    ]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "pass@1=0.600" in result.stdout
