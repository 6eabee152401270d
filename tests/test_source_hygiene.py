"""Checks on the package source that no linter runs here: every import in
``src/episampler`` is used in its module, and every private top-level
function or class is referenced somewhere in ``src/episampler`` outside
its own body. Also checks the runtime dependencies: the package imports
only the standard library, numpy and itself, and ``pyproject.toml``
declares numpy alone."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "episampler"
MODULES = sorted(SRC.glob("*.py"))

# (module, name) imports that the module itself does not use. training
# binds sample_episode so that perfbench's TRACE_TARGETS can wrap
# training.sample_episode.
KEPT_IMPORTS = {("training", "sample_episode")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(node: ast.AST):
    """Every name the node reads and every attribute it takes, nested ones included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    unused = [name for name in imported if name not in used and (path.stem, name) not in KEPT_IMPORTS]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_every_private_definition_is_referenced():
    counts = Counter()
    private = []
    for path in MODULES:
        for stmt in _tree(path).body:
            own = Counter(_read_names(stmt))
            counts.update(own)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                if not stmt.name.startswith("__"):
                    private.append((f"{path.stem}.{stmt.name}", own[stmt.name]))
    unreferenced = [name for name, own in private if counts[name.split(".")[1]] == own]
    assert not unreferenced, f"never referenced in src outside their own bodies: {unreferenced}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_only_the_standard_library_numpy_and_itself(path):
    allowed = sys.stdlib_module_names | {"numpy", "episampler"}
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported <= allowed, f"{path.name} imports {sorted(imported - allowed)}"


def test_numpy_is_the_only_declared_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", requirement).group() for requirement in project["dependencies"]]
    assert names == ["numpy"]
