"""Every name a module under src/artiscene imports is used in that module,
and every function, class and method it defines is named somewhere in
src/artiscene outside its own body.

Deleting code tends to leave its imports, and the helpers only it called,
behind; these guards read each module's syntax tree, so they need no
linter. A name counts as used when it appears as a name anywhere in the
module, annotations included, or inside a string annotation (the form
TYPE_CHECKING imports are used in).
"""

import ast
from collections import Counter
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


# defined in src but called from outside it, each with the reason
CALLED_FROM_OUTSIDE = {
    "validate_plan": "the benchmark's set-up check calls it, and it is to become "
                     "pipeline code (ROADMAP item 2)",
}


def references(node):
    """How often each name is named under node: as a name, an attribute or
    inside a string annotation."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    for annotation in annotations(node):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                found.update(references(ast.parse(n.value, mode="eval")))
    return found


def definitions(tree):
    """Module-level functions and classes, and non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def uncalled(trees):
    """Definitions named nowhere in trees outside their own body."""
    everywhere = sum((references(t) for t in trees.values()), Counter())
    return sorted(f"{name}.{d.name}" for name, tree in trees.items()
                  for d in definitions(tree)
                  if everywhere[d.name] == references(d)[d.name])


def test_definition_guard_sees_uncalled_and_self_only_names():
    tree = ast.parse("class A:\n"
                     "    def m(self): return self.m()\n"
                     "    def n(self): return A()\n"
                     "    def __len__(self): return 0\n"
                     "class B:\n"
                     "    def k(self) -> 'B': return B()\n"
                     "def f(): return f()\n"
                     "def g(): return A().n()\n")
    assert uncalled({"mod": tree}) == ["mod.B", "mod.f", "mod.g", "mod.k", "mod.m"]


def test_every_definition_has_a_caller_in_src():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    found = [d for d in uncalled(trees) if d.split(".")[1] not in CALLED_FROM_OUTSIDE]
    assert not found, f"defined in src/artiscene but called only from outside it: {found}"
