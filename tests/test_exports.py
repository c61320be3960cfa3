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


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # a top-level import must be read in the module or listed in __all__;
    # lines marked `# noqa: F401` are bound on purpose.  MODULES holds the
    # submodules, so __init__.py, which imports only to re-export, is not checked
    source = Path(hopfbvp.__file__).with_name(f"{name}.py").read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(getattr(importlib.import_module(f"hopfbvp.{name}"), "__all__", ()))
    unused = sorted(n for n in imported if n not in read and n not in exported)
    assert not unused, f"hopfbvp.{name} imports names it never uses: {unused}"
