import ast
import graphlib
import importlib
import re
from pathlib import Path

import pytest

import hedgelab

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "hedgelab"


def test_package_exports_are_the_readme_example_names():
    block = re.search(r"from hedgelab import \((.*?)\)", README.read_text(), re.S).group(1)
    names = {name.strip() for name in block.split(",") if name.strip()}
    assert names == set(hedgelab.__all__)
    assert all(hasattr(hedgelab, name) for name in hedgelab.__all__)


# `paths.csv` and `manifest.json` in README.md are output files, not attributes.
OUTPUT_FILE_SUFFIXES = {"csv", "json"}


def test_readme_module_references_resolve():
    modules = {path.stem for path in SRC.glob("*.py")}
    refs = re.findall(r"`(\w+)\.(\w+)", README.read_text())
    checked = [(mod, name) for mod, name in refs if mod in modules and name not in OUTPUT_FILE_SUFFIXES]
    assert checked
    missing = [
        f"{mod}.{name}" for mod, name in checked
        if not hasattr(importlib.import_module(f"hedgelab.{mod}"), name)
    ]
    assert missing == []


# Imported only so that the traced benchmark run can wrap them as
# attributes of hedgelab.experiments: see SITES in perfbench/tracing.py.
TRACER_ONLY_IMPORTS = {("experiments", "comp_cumsum"), ("experiments", "bs_delta")}


def _unused_imports(source: str) -> set[str]:
    """Module-level imported names that the module neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(module):
    allowed = {name for mod, name in TRACER_ONLY_IMPORTS if mod == module.stem}
    assert _unused_imports(module.read_text()) == allowed


def _references(tree: ast.AST, skip=range(0)) -> set[str]:
    """Every identifier `tree` reads or imports, and every string constant
    (perfbench names patched attributes as strings), outside the lines in
    `skip`."""
    found = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_definition_is_used(module):
    # A definition counts as used when code in src/hedgelab other than its
    # own body, perfbench, or README.md (as `module.name`) refers to it.
    # Tests alone do not keep a definition alive.
    others = [path for path in (*SRC.glob("*.py"), *ROOT.glob("perfbench/*.py")) if path != module]
    used = set().union(*(_references(ast.parse(path.read_text())) for path in others))
    used.update(name for mod, name in re.findall(r"`(\w+)\.(\w+)", README.read_text()) if mod == module.stem)
    tree = ast.parse(module.read_text())
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = range(min([node.lineno, *(d.lineno for d in node.decorator_list)]), node.end_lineno + 1)
            if node.name not in used | _references(tree, skip=own):
                unused.append(node.name)
    assert unused == []


def _relative_imports(module: Path, modules: set[str]) -> set[str]:
    """The package modules `module` imports relatively, at module level or
    inside a function; `from . import name` of a non-module is __init__."""
    found = set()
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def test_package_imports_form_no_cycle():
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {path.stem: _relative_imports(path, modules) for path in SRC.glob("*.py")}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(reversed(exc.args[1]))}")
