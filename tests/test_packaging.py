"""The package's declared surface: exports and console scripts resolve."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import distilrec

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
