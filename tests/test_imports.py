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
import math
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


# defaulted parameters that no call in src passes, each with the reason
DEFAULT_ONLY = {
    "main(argv)": "the console script calls main() and tests pass an argument list",
    "validate_plan(config)": "the benchmark's set-up check passes it; it goes with a "
                             "benchmark change (ROADMAP item 2)",
    "explore_scene(handles)": "a handle detector model is to pass detected handles "
                              "(ROADMAP item 6)",
}


def defaulted_parameters(tree):
    """(function, parameter, its positional index after self, or None when
    keyword-only) for every parameter with a default, methods included."""
    methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [*args.posonlyargs, *args.args][id(node) in methods:]
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield node.name, arg.arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def passed(trees):
    """name -> (the most positional arguments of a call to it, the keywords
    passed), over calls by name or attribute; a *args or **kwargs argument
    counts as passing every parameter."""
    found = {}
    for tree in trees.values():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            most, keywords = found.setdefault(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords |= {k.arg for k in call.keywords}
            found[name] = (math.inf if starred or None in keywords
                           else max(most, len(call.args)), keywords)
    return found


def never_passed(trees):
    """'module.function(parameter)' for each defaulted parameter that no call
    in trees passes, by position or by keyword."""
    calls = passed(trees)
    return sorted(f"{module}.{function}({param})" for module, tree in trees.items()
                  for function, param, index in defaulted_parameters(tree)
                  if not (param in calls.get(function, (0, ()))[1]
                          or (index is not None and calls.get(function, (0,))[0] > index)))


def test_default_guard_sees_parameters_no_call_passes():
    tree = ast.parse("def f(a, b=1, *, c=2, d=3): pass\n"
                     "def g(x=0): pass\n"
                     "def h(y=0): pass\n"
                     "def k(z=0): pass\n"
                     "class A:\n"
                     "    def m(self, p=1, q=2): pass\n"
                     "f(0, 1, d=4)\n"
                     "g(*args)\n"
                     "k(**kwargs)\n"
                     "A().m(5)\n"
                     "h\n")
    assert never_passed({"mod": tree}) == ["mod.f(c)", "mod.h(y)", "mod.m(q)"]


def test_every_default_is_passed_somewhere_in_src():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    found = [d for d in never_passed(trees) if d.split(".", 1)[1] not in DEFAULT_ONLY]
    assert not found, f"defaulted parameters that no call in src/artiscene passes: {found}"
    assert sorted(d.split(".", 1)[1] for d in never_passed(trees)) == sorted(DEFAULT_ONLY)
