"""A wheel must ship every bundled data file: each file under the stubs
and templates directories needs a package-data glob in pyproject.toml.
numpy is a test dependency only: running the package never imports it.
No module imports a name it never reads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PROGRESSIVE_CONFIG, PROGRESSIVE_RULES, REPO_ROOT, TOY_BENCH

PACKAGE = Path(REPO_ROOT, "src", "verimoa")
TESTS = Path(REPO_ROOT, "tests")


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


def unread_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; __future__ imports and the
    names listed in __all__ are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)  # the base of an Attribute is such a Name too
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts}
    return ["%s:%d: %s" % (path.name, line, name)
            for name, line in imported.items() if name not in read | exported]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(paths) > 20
    assert [unused for path in paths for unused in unread_imports(path)] == []
