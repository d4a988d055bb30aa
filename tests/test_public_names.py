"""No public name without a library caller: each one is used in `src/` or exported."""

import ast
from pathlib import Path

import progress_lab

SRC = Path(progress_lab.__file__).parent


def _public_top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (name for name in targets if not name.startswith("_"))


def test_every_public_name_is_used_in_src_or_exported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    loaded = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_top_level_names(tree)
        if name not in loaded and name not in progress_lab.__all__
    )
    assert unused == []
