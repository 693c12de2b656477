"""Static checks on the package source.

Every module-level import in ``src/excursion_kit`` must be used: the module
references the bound name or re-exports it through ``__all__``.  The package
``__init__`` exists to re-export and is exempt.
"""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "excursion_kit"
MODULES = sorted(p for p in PKG.glob("*.py") if p.name != "__init__.py")


def _bound_names(node):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(_bound_names(node))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(imported - used - _exported(tree))
    assert not unused, f"{path.name} imports but never uses: {unused}"
