"""Every module of the package, every test module and every demo uses
each name it imports, and every private module-level helper of the
package has a reader in the package.

A deletion that leaves an import or a helper behind shows up here. The
package ``__init__`` is exempt from the import check: its imports are the
public surface it re-exports.
"""

import ast
from pathlib import Path

import pytest

import topkflip

REPO = Path(__file__).resolve().parent.parent
PACKAGE = sorted(Path(topkflip.__file__).parent.glob("*.py"))
MODULES = (
    [path for path in PACKAGE if path.name != "__init__.py"]
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


def _string_annotation_names(tree):
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _used_names(tree) -> set:
    """Names read in code or in string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(_string_annotation_names(tree))


def _private_definitions(tree):
    """Module-level functions, classes and constants named with a leading
    underscore (dunders excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def _references(tree):
    """Names read as a variable, an attribute, an import or in a string
    annotation; a binding alone is not a read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
    yield from _string_annotation_names(tree)


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


def test_every_private_helper_has_a_reader_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    read = {name for tree in trees.values() for name in _references(tree)}
    stranded = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    )
    assert not stranded, f"private helpers nothing in the package reads: {stranded}"
