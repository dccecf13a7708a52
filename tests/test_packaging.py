"""The package's declared surface: exports, console scripts and dependencies."""

import ast
import dataclasses
import importlib
import inspect
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


def test_names_without_caller_stay_deleted():
    from distilrec.data import SyntheticWorld, _parse_triples, generate_synthetic
    from distilrec.optim import OptimizerState
    from distilrec.rng import RngStream

    gone = {"forward", "bce", "reg_loss", "weighted_empirical_risk", "read_canonical_tsv",
            "write_canonical_tsv", "positive_ratio", "exposure_weights", "clone",
            "uniform", "integers", "permutation", "_is_observed", "binarize", "interaction"}
    modules = [importlib.import_module(f"distilrec.{info.name}")
               for info in pkgutil.iter_modules(distilrec.__path__)]
    classes = [obj for m in modules for obj in vars(m).values()
               if isinstance(obj, type) and obj.__module__ == m.__name__]
    found = [f"{owner.__name__}.{name}" for owner in [distilrec, *modules, *classes]
             for name in gone & set(vars(owner))]
    assert not found
    assert [f.name for f in dataclasses.fields(SyntheticWorld)] == ["prob"]
    assert not {"beta1", "beta2", "epsilon_hat"} & {f.name for f in dataclasses.fields(OptimizerState)}
    assert "scale" not in inspect.signature(generate_synthetic).parameters
    assert "p" not in inspect.signature(RngStream.choice).parameters
    assert "source" not in inspect.signature(_parse_triples).parameters


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
