"""Every name a module under src/artiscene imports is used in that module,
every function, class and method it defines is named somewhere in
src/artiscene outside its own body, and every parameter and dataclass field
is one that calls in src/artiscene set: passed where it has a default, and
not always as one and the same UPPER_CASE constant. scipy is imported in
one place, PointCloud.kdtree, on the first neighbour query.

Deleting code tends to leave its imports, and the helpers only it called,
behind; these guards read each module's syntax tree, so they need no
linter. A name counts as used when it appears as a name anywhere in the
module, annotations included, or inside a string annotation (the form
TYPE_CHECKING imports are used in).
"""

import ast
import re
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


def scipy_imports(tree):
    """(enclosing 'Class.function' or '<module>', line) of each import of
    scipy or one of its submodules, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            else:
                modules = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


def test_scipy_guard_sees_every_import_and_where_it_sits():
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "import scipy\n"
                     "if TYPE_CHECKING:\n"
                     "    from scipy.spatial import cKDTree\n"
                     "class PointCloud:\n"
                     "    def kdtree(self):\n"
                     "        from scipy.spatial import cKDTree\n"
                     "        return cKDTree(self.points)\n"
                     "    def other(self):\n"
                     "        import numpy, scipy.spatial as s\n"
                     "def kdtree():\n"
                     "    from scipy import spatial\n"
                     "import scipyx\n"
                     "from . import scipy\n")
    assert scipy_imports(tree) == [("<module>", 2), ("<module>", 4), ("PointCloud.kdtree", 7),
                                   ("PointCloud.other", 10), ("kdtree", 12)]


def test_only_the_point_cloud_tree_imports_scipy():
    found = [(p.name, *where) for p in sorted(PACKAGE.glob("*.py"))
             for where in scipy_imports(ast.parse(p.read_text()))]
    assert [f[:2] for f in found] == [("geometry.py", "PointCloud.kdtree")], found


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


# defaulted parameters and dataclass fields that no call in src passes, each
# with the reason
DEFAULT_ONLY = {
    "main(argv)": "the console script calls main() and tests pass an argument list",
    "validate_plan(config)": "the benchmark's set-up check passes it; it goes with a "
                             "benchmark change (ROADMAP item 2)",
    "explore_scene(handles)": "a handle detector model is to pass detected handles "
                              "(ROADMAP item 6)",
}


def is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def parameters(tree):
    """(name, parameter, its positional index or None when keyword-only,
    whether it has a default) for every function and method parameter, self
    aside, and every @dataclass field, which its __init__ takes in order."""
    methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [*args.posonlyargs, *args.args][id(node) in methods:]
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional):
                yield node.name, arg.arg, i, i >= first
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                yield node.name, arg.arg, None, default is not None
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
            for i, f in enumerate(fields):
                yield node.name, f.target.id, i, f.value is not None


def arguments(trees):
    """name -> one {position or keyword: the argument's source} per call to
    it by name or attribute, or None for a call with *args or **kwargs,
    which may pass anything; a name handed to a call as an argument (a class
    or function called further on) counts as one such call."""
    found = {}
    for tree in trees.values():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            given = {i: ast.unparse(a) for i, a in enumerate(call.args)}
            given.update({k.arg: ast.unparse(k.value) for k in call.keywords})
            if any(isinstance(a, ast.Starred) for a in call.args) or None in given:
                given = None
            found.setdefault(name, []).append(given)
            for a in call.args:
                if isinstance(a, ast.Name):
                    found.setdefault(a.id, []).append(None)
    return found


def never_passed(trees):
    """'module.name(parameter)' for each defaulted parameter or dataclass
    field that no call in trees passes, by position or by keyword."""
    calls = arguments(trees)
    return sorted(f"{module}.{name}({param})" for module, tree in trees.items()
                  for name, param, index, defaulted in parameters(tree)
                  if defaulted and not any(given is None or param in given or index in given
                                           for given in calls.get(name, ())))


def test_default_guard_sees_parameters_no_call_passes():
    tree = ast.parse("def f(a, b=1, *, c=2, d=3): pass\n"
                     "def g(x=0): pass\n"
                     "def h(y=0): pass\n"
                     "def k(z=0): pass\n"
                     "class A:\n"
                     "    def m(self, p=1, q=2): pass\n"
                     "@dataclass\n"
                     "class C:\n"
                     "    r: int\n"
                     "    s: int = 0\n"
                     "    t: int = 0\n"
                     "@dataclass(frozen=True)\n"
                     "class E:\n"
                     "    u: int = 0\n"
                     "f(0, 1, d=4)\n"
                     "g(*args)\n"
                     "k(**kwargs)\n"
                     "A().m(5)\n"
                     "C(0, t=1)\n"
                     "build(E)\n"
                     "h\n")
    assert never_passed({"mod": tree}) == ["mod.C(s)", "mod.f(c)", "mod.h(y)", "mod.m(q)"]


def test_every_default_is_passed_somewhere_in_src():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    found = [d for d in never_passed(trees) if d.split(".", 1)[1] not in DEFAULT_ONLY]
    assert not found, f"defaulted parameters that no call in src/artiscene passes: {found}"
    assert sorted(d.split(".", 1)[1] for d in never_passed(trees)) == sorted(DEFAULT_ONLY)


# parameters that every call in src passes the same UPPER_CASE constant, each
# with the reason
CONSTANT_ONLY = {
    "inflated(margin)": "OrientedBox.inflated is a general box primitive: the reference "
                        "checks in tests/oracles.py inflate boxes by MARGIN",
    "_near_polygon(radius)": "tests probe radii a few ulps either side of each distance",
    "_near_edges(radius)": "tests probe radii a few ulps either side of each distance",
}
CONSTANT = re.compile(r"(\w+\.)*[A-Z][A-Z0-9_]*")  # NAME or module.NAME


def set_alike(trees):
    """'name(parameter)' for each parameter or dataclass field that every
    call in trees passes as one and the same UPPER_CASE constant."""
    calls = arguments(trees)
    found = set()
    for tree in trees.values():
        for name, param, index, _ in parameters(tree):
            seen = {"*" if given is None else given.get(param, given.get(index))
                    for given in calls.get(name, ())}
            if len(seen) == 1 and CONSTANT.fullmatch(seen.pop() or ""):
                found.add(f"{name}({param})")
    return sorted(found)


def test_constant_guard_sees_parameters_every_call_sets_alike():
    tree = ast.parse("def f(a, b, *, c=0): pass\n"
                     "def g(x): pass\n"
                     "def h(y, z=0): pass\n"
                     "@dataclass\n"
                     "class D:\n"
                     "    p: int\n"
                     "    q: int = 0\n"
                     "class A:\n"
                     "    def m(self, u, v): pass\n"
                     "f(K, 1, c=mod.LIMIT)\n"
                     "f(K, 2, c=mod.LIMIT)\n"
                     "g(K)\n"
                     "g(2 * K)\n"
                     "h(K, Z)\n"
                     "h(*args)\n"
                     "D(K, q=Q)\n"
                     "D(K)\n"
                     "A().m(K, v=K)\n")
    assert set_alike({"mod": tree}) == ["D(p)", "f(a)", "f(c)", "m(u)", "m(v)"]


def test_no_parameter_is_set_alike_by_every_call_in_src():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    found = [d for d in set_alike(trees) if d not in CONSTANT_ONLY]
    assert not found, f"parameters that every call in src/artiscene sets alike: {found}"
    assert set_alike(trees) == sorted(CONSTANT_ONLY)
