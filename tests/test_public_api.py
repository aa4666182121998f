"""The public surface: every name in a library module's ``__all__`` resolves,
and every name a module imports is used there or exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fgcount

# ``cli`` is the ``fgcount`` command, not a library module.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(fgcount.__path__) if info.name != "cli"
)


def test_every_module_is_found():
    assert {"edgecount", "oracles", "reductions", "satcount"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"fgcount.{name}")
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"fgcount.{name} has no __all__"
    assert len(set(exported)) == len(exported), f"fgcount.{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"fgcount.{name}.__all__ names undefined {missing}"


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", sorted(Path(fgcount.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_every_import_is_used_or_exported(path):
    # A lint-style check: an unused import is dead weight, or a sign that
    # the code which used it was dropped.
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(
        "fgcount" if path.stem == "__init__" else f"fgcount.{path.stem}")
    unused = set(_imported_names(tree)) - used - set(getattr(module, "__all__", ()))
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"
