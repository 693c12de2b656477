"""Static checks on the package source.

Every module-level import in ``src/excursion_kit`` must be used: the module
references the bound name or re-exports it through ``__all__``.  The package
``__init__`` exists to re-export and is exempt.

Every module-level private function, class and constant (a name starting
with one underscore) must be referenced somewhere in the package, so a
removed caller cannot leave its helper behind.

No function imports anything: every dependency of a module shows at its top.
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


def _module_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id


def test_no_unreferenced_private_helpers():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PKG.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                referenced.add(n.id)
            elif isinstance(n, ast.Attribute):
                referenced.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                referenced.update(alias.name for alias in n.names)
    unreferenced = sorted(
        f"{name}.{defn}"
        for name, tree in trees.items()
        for defn in _module_definitions(tree)
        if defn.startswith("_") and not defn.startswith("__") and defn not in referenced
    )
    assert not unreferenced, f"private definitions nobody references: {unreferenced}"


def test_no_imports_inside_functions():
    nested = sorted(
        {
            f"{path.name}:{fn.name}"
            for path in PKG.glob("*.py")
            for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )
    assert not nested, f"functions with their own imports: {nested}"
