"""Guard against stale exports: every advertised public name must exist."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hopfbvp

# __main__ is left out: importing it runs the command line
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(hopfbvp.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"hopfbvp.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"hopfbvp.{name}.__all__ names missing objects: {missing}"


def test_package_imports_exist():
    tree = ast.parse(Path(hopfbvp.__file__).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"hopfbvp.{node.module}")
            for alias in node.names:
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                if not hasattr(hopfbvp, alias.asname or alias.name):
                    missing.append(f"hopfbvp.{alias.asname or alias.name}")
    assert not missing, f"names imported by hopfbvp/__init__.py are missing: {missing}"
