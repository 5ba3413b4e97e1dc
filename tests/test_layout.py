"""The package's layout: which module may import which.

``config`` (the YAML's rules) and ``csvtext`` (CSV text) sit below the run
in ``scenario`` and the CLI, and ``csvtext`` below every other module.
Every import is at module level, so a module's imports are what it says
at its top.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "camsim"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def camsim_imports(tree: ast.Module) -> set[str]:
    """The camsim modules that ``tree`` imports, by their names in the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("camsim.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "camsim":
                continue
            inner = module.split(".")[1:] if node.level == 0 else module.split(".")
            found |= {inner[0]} if inner and inner[0] else {a.name for a in node.names}
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_function_imports_at_call_time(name):
    inside = [
        (fn.name, node.lineno)
        for fn in ast.walk(MODULES[name])
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inside == []


def test_csvtext_imports_nothing_from_camsim():
    assert camsim_imports(MODULES["csvtext"]) == set()


@pytest.mark.parametrize("name", ["config", "csvtext"])
def test_config_and_csvtext_import_neither_the_run_nor_the_cli(name):
    assert camsim_imports(MODULES[name]) & {"scenario", "cli"} == set()
