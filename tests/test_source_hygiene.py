"""Checks on the package source that no linter runs here: every import in
``src/episampler`` is used in its module, and every private top-level
function or class is referenced somewhere in ``src/episampler`` outside
its own body."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "episampler"
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
