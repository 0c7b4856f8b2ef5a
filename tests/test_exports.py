import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import collisionless

MODULES = [info.name for info in pkgutil.iter_modules(collisionless.__path__)]


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_all_names_resolve(module):
    name = "collisionless" if module == "__init__" else f"collisionless.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


SRC = Path(collisionless.__file__).resolve().parent
RUNTIME_PACKAGES = {"numpy", "collisionless"}


def _imported_packages(path):
    """Top-level packages named by the absolute imports of one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_stdlib_and_numpy(path):
    outside = {
        name for name in _imported_packages(path)
        if name not in sys.stdlib_module_names and name not in RUNTIME_PACKAGES
    }
    assert not outside


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[<>=!~ \[;]", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_import_loads_no_scipy():
    code = (
        "import sys, collisionless; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
