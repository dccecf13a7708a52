"""The package's declared surface: exports, console scripts and dependencies."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import distilrec

REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"
SRC = REPO / "src"


def test_every_exported_name_exists():
    modules = [distilrec] + [
        importlib.import_module(f"distilrec.{info.name}")
        for info in pkgutil.iter_modules(distilrec.__path__)
    ]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert not missing


def test_every_script_target_resolves():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def test_imports_without_scipy():
    # A None entry in sys.modules makes any import of that name fail.
    script = (
        "import sys, importlib, pkgutil\n"
        "sys.modules['scipy'] = None\n"
        "import distilrec\n"
        "for info in pkgutil.iter_modules(distilrec.__path__):\n"
        "    importlib.import_module('distilrec.' + info.name)\n"
    )
    subprocess.run([sys.executable, "-c", script], cwd=SRC, check=True, timeout=60)


def test_third_party_imports_equal_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(PYPROJECT, "rb") as fh:
        declared = {re.match(r"[\w.-]+", dep).group()
                    for dep in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in (SRC / "distilrec").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    assert third_party == declared
