"""Static checks on the package source.

Every module-level import in ``src/excursion_kit`` must be used: the module
references the bound name or re-exports it through ``__all__``.  The package
``__init__`` exists to re-export and is exempt.

Every module-level private function, class and constant (a name starting
with one underscore) must be referenced somewhere in the package, so a
removed caller cannot leave its helper behind.

No function imports anything: every dependency of a module shows at its top.

The callers outside the library -- ``cli.py``, ``scripts/`` and
``perfbench/`` -- use only public package names: they import no
underscore name from ``excursion_kit`` and read none off a package module.

Importing ``excursion_kit.cli`` in a fresh interpreter loads no module of
``scipy.stats`` or ``scipy.ndimage``; the CI workflow runs the same line.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "excursion_kit"
MODULES = sorted(p for p in PKG.glob("*.py") if p.name != "__init__.py")
CALLERS = [
    PKG / "cli.py",
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]
# every run of the command line pays this import first; scipy.stats alone
# was about half of it
IMPORT_CHECK = (
    "import sys, excursion_kit.cli; "
    "heavy = sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.ndimage'))); "
    "sys.exit(f'importing excursion_kit.cli loads {heavy}' if heavy else 0)"
)


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


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_package_refs(tree, relative_is_package):
    """Underscore names the module imports from excursion_kit or reads as an
    attribute of a name bound to an excursion_kit module."""
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level and relative_is_package:
                mod = "excursion_kit" + ("." + mod if mod else "")
            if mod.split(".")[0] != "excursion_kit":
                continue
            found += [f"{mod}.{a.name}" for a in node.names if _is_private(a.name)]
            if mod == "excursion_kit":
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "excursion_kit":
                    modules.add(alias.asname or "excursion_kit")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_callers_use_only_public_package_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = _private_package_refs(tree, relative_is_package=path.parent == PKG)
    assert not found, f"{path.name} uses private package names: {found}"


def test_private_package_refs_are_found():
    # both forms: an underscore import and an underscore attribute of a
    # package module, absolute or relative to the package
    src = (
        "from excursion_kit.cli import _parse\n"
        "from . import mc as mc_mod\n"
        "import excursion_kit.mec as mec\n"
        "mc_mod._sweep(mec._face_sum, mc_mod.GridSpec, mc_mod.__file__, self._x)\n"
    )
    found = _private_package_refs(ast.parse(src), relative_is_package=True)
    assert found == ["excursion_kit.cli._parse", "mc_mod._sweep", "mec._face_sum"]


def test_cli_import_loads_no_heavy_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
