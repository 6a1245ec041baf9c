"""Every name a module under src/artiscene imports is used in that module.

Deleting code tends to leave its imports behind; this guard reads each
module's syntax tree, so it needs no linter. A name counts as used when it
appears as a name anywhere in the module, annotations included, or inside a
string annotation (the form TYPE_CHECKING imports are used in).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "artiscene"


def imported_names(tree):
    """name -> line of each name bound by an import, __future__ aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations(tree):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= used_names(ast.parse(n.value, mode="eval"))
    return used


def test_guard_sees_unused_and_annotation_only_imports():
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "import os.path, json\n"
                     "from .a import b as c, d\n"
                     "if TYPE_CHECKING:\n"
                     "    from e import F\n"
                     "def g(x: 'F') -> None:\n"
                     "    return os.path.join(c)\n")
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"json", "d"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"
