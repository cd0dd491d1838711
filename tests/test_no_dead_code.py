"""Dead-helper guard: every private helper of `src/mdssd` is used there.

An underscore-prefixed module-level function, method or constant (dunders
excepted) that nothing in `src/mdssd` reads, apart from its own definition,
can only serve the tests or nothing at all.  References are found by name
with `ast`: a load of the name, or an attribute of that name on any object,
anywhere in the package outside the definition itself.  Two helpers that
share a name therefore count as one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mdssd"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def definitions(tree: ast.Module):
    """(name, defining node) of each private module-level function or
    constant and of each private method of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body if isinstance(item, functions))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def references(tree: ast.Module):
    """(name, node) of each read of a name and each attribute access."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    used: dict[str, set[int]] = {}
    for tree in trees.values():
        for name, node in references(tree):
            used.setdefault(name, set()).add(id(node))
    dead = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if _private(name):
                own = {id(inner) for inner in ast.walk(node)}
                if not used.get(name, set()) - own:
                    dead.append(f"{module}.{name}")
    return dead


def test_every_private_helper_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(trees) == []


def test_the_guard_finds_an_unused_helper():
    module = ("_K = 1\n_L = 2\n\n\ndef _f():\n    return _f() + _K\n\n\n"
              "class C:\n    def _g(self):\n        return 0\n\n"
              "    def h(self):\n        return self._g()\n\n"
              "    def __repr__(self):\n        return ''\n")
    assert unreferenced({"m": ast.parse(module)}) == ["m._L", "m._f"]
