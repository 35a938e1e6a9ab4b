"""Every module of the package, every test module and every demo uses
each name it imports.

A deletion that leaves an import behind shows up here. The package
``__init__`` is exempt: its imports are the public surface it re-exports.
"""

import ast
from pathlib import Path

import pytest

import topkflip

REPO = Path(__file__).resolve().parent.parent
MODULES = (
    sorted(
        path for path in Path(topkflip.__file__).parent.glob("*.py") if path.name != "__init__.py"
    )
    + sorted((REPO / "tests").glob("*.py"))
    + sorted((REPO / "demos").glob("*.py"))
)


def _annotations(tree):
    """Annotation nodes, including those written as strings."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set:
    """Names read in code or in string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"
