"""Static checks on the imports of the package's modules: no import goes
unused, and NumPy is the only third-party runtime dependency."""
import ast
import sys
from pathlib import Path

import pytest

import llaft

MODULES = sorted(Path(llaft.__file__).parent.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    # the string entries of a module-level `__all__ = [...]`
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _imported(tree):
    # (bound name, line) of every import, `from __future__` excepted
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree)
              if name not in used and name not in _exported(tree)]
    assert not unused, f"unused imports: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib_or_numpy(path):
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module, node.lineno))
    outside = [f"{path.name}:{line} {name}" for name, line in found
               if name.split(".")[0] not in allowed]
    assert not outside, f"imports outside the standard library and numpy: {outside}"
