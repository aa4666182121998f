"""The public surface: every name in a library module's ``__all__`` resolves."""

import importlib
import pkgutil

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
