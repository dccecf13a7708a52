"""The package's declared surface: exports, console scripts and dependencies."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import distilrec

REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"
SRC = REPO / "src"
WORKFLOW = REPO / ".github" / "workflows" / "tier1.yml"


def project():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def test_every_exported_name_exists():
    modules = [distilrec] + [
        importlib.import_module(f"distilrec.{info.name}")
        for info in pkgutil.iter_modules(distilrec.__path__)
    ]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert not missing


def test_names_without_caller_stay_deleted():
    from distilrec.data import SyntheticWorld, generate_synthetic
    from distilrec.network import save_checkpoint
    from distilrec.optim import OptimizerState
    from distilrec.rng import RngStream

    gone = {"forward", "bce", "reg_loss", "weighted_empirical_risk", "read_canonical_tsv",
            "write_canonical_tsv", "positive_ratio", "exposure_weights", "clone",
            "uniform", "integers", "permutation", "_is_observed", "binarize", "interaction",
            "_reg_grad_wrt_student", "_whole_file_fields", "_parse_triples", "_parse_matrix",
            "FIELD_DIGITS", "observed_pairs", "_shapes_match", "_check_ids", "_whole",
            "param_count", "MAE", "JEFFREYS", "_rows", "_shared_ids", "_collector_paused",
            "_column", "_checked_columns", "_from_columns", "_positioned", "_range_candidates",
            "_merged_cells", "_on_two_threads", "_check_moments"}
    modules = [importlib.import_module(f"distilrec.{info.name}")
               for info in pkgutil.iter_modules(distilrec.__path__)]
    classes = [obj for m in modules for obj in vars(m).values()
               if isinstance(obj, type) and obj.__module__ == m.__name__]
    found = [f"{owner.__name__}.{name}" for owner in [distilrec, *modules, *classes]
             for name in gone & set(vars(owner))]
    assert not found
    assert [f.name for f in dataclasses.fields(SyntheticWorld)] == ["prob"]
    assert not ({"beta1", "beta2", "epsilon_hat", "kind", "m", "v"}
                & {f.name for f in dataclasses.fields(OptimizerState)})
    assert "scale" not in inspect.signature(generate_synthetic).parameters
    assert "seed" not in inspect.signature(save_checkpoint).parameters
    assert "p" not in inspect.signature(RngStream.choice).parameters


def test_every_record_is_frozen():
    # A checked record whose fields can be replaced is checked for nothing; the optimizer
    # state's step, which each update advances, is written by apply_update alone.
    modules = [importlib.import_module(f"distilrec.{info.name}")
               for info in pkgutil.iter_modules(distilrec.__path__)]
    mutable = [f"{m.__name__}.{name}" for m in modules for name, obj in vars(m).items()
               if dataclasses.is_dataclass(obj) and isinstance(obj, type)
               and obj.__module__ == m.__name__ and not obj.__dataclass_params__.frozen]
    assert not mutable


def test_package_root_exports_only_version():
    # Each name is imported from the module that defines it; the root re-exported 17.
    script = ("import distilrec\n"
              "print(sorted(n for n in vars(distilrec) if not n.startswith('__')), "
              "distilrec.__version__)\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=SRC, check=True, timeout=60,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", distilrec.__version__]


def test_every_script_target_resolves():
    scripts = project().get("scripts", {})
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


def test_workflow_python_meets_the_declared_floor():
    # CI tests no Python below the declared floor; its pinned numpy 2.4.6 needs 3.11.
    floor = re.fullmatch(r">=(\d+)\.(\d+)", project()["requires-python"]).groups()
    tested = re.findall(r'python-version: "(\d+)\.(\d+)"', WORKFLOW.read_text())
    assert tested and all(tuple(map(int, v)) >= tuple(map(int, floor)) for v in tested)


def test_third_party_imports_equal_declared_dependencies():
    declared = {re.match(r"[\w.-]+", dep).group() for dep in project()["dependencies"]}
    imported = set()
    for path in (SRC / "distilrec").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    assert third_party == declared


def package_trees():
    """Each module of the package by its name, parsed."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((SRC / "distilrec").glob("*.py"))}


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs here; this is its unused-import check, on the package and its tests.
    trees = {**package_trees(), **{f"tests/{path.stem}": ast.parse(path.read_text())
                                   for path in sorted((REPO / "tests").glob("*.py"))}}
    unused = []
    for module, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}: {alias.name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused


def test_every_input_rule_has_one_home():
    # The rules live in _rules, which imports only numbers and numpy. The model stack
    # (network, losses, optim) imports nothing from data, and the only private name one
    # module takes from another, other than a rule, is the BCE that bce_eval shares.
    # The training loop sits at the top of the import graph: no module imports it, and it
    # takes no private name but a rule.
    trees = package_trees()
    imports = [(module, (node.module or "").removeprefix("distilrec."), alias.name)
               for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level == 1 or (node.module or "").startswith("distilrec"))
               for alias in node.names]
    assert not [i for i in imports if i[0] in ("network", "losses", "optim") and i[1] == "data"]
    assert not [i for i in imports if "train" in (i[1], i[2])]
    assert not [alias.name for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names
                if "train" in alias.name.split(".")]
    assert not [node.attr for node in ast.walk(trees["train"])
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")]
    assert {i for i in imports if i[2].startswith("_") and i[1] != "_rules"} == {
        ("metrics", "losses", "_bce_terms")}
    rules = trees.pop("_rules")
    assert {alias.name for node in ast.walk(rules)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names} == {"annotations", "numbers", "numpy"}
    homes = {node.name: [] for node in rules.body if isinstance(node, ast.FunctionDef)}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in homes:
                homes[node.name].append(module)
    assert len(homes) == 12
    assert not {name: modules for name, modules in homes.items() if modules}
