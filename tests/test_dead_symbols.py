"""Every private name in the package is used in the package.

A private (leading underscore, not dunder) def, class or assignment at
the top of a src/levelup module must be named on some other line of
src/levelup; otherwise nothing in the package can reach it.  Likewise
every field, method and self attribute of a private class must be read
as .name on a line of src/levelup other than those defining it.  And
every module-level import of a src/levelup module other than __init__,
whose imports are the package's re-exports, must be read in its module.
Every optional parameter of a module-level private function must be
passed, by position or by keyword, by some call of it in src/levelup.
"""

import ast
import re
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "levelup").glob("*.py"))


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree):
    """(name, line) of each module-level private def, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(id=node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and is_private(name.id):
                    yield name.id, node.lineno


def private_class_members(tree):
    """(name, line) of each field and method of a module-level private
    class, and of each attribute its methods assign on self; dunders
    excepted."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and is_private(node.name)):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not item.name.endswith("__"):
                    yield item.name, item.lineno
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        yield sub.attr, sub.lineno
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield item.target.id, item.lineno
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name) and not target.id.endswith("__"):
                        yield target.id, item.lineno


def unused_imports(tree):
    """(name, line) of each name a module-level import binds that no name
    in the module reads; __future__ imports excepted."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    yield name, node.lineno


def unpassed_parameters(trees):
    """'module:line function(parameter)' of each optional parameter of a
    module-level private function in trees ({path: tree}) that no call by
    the function's name passes.  A function whose name is also read other
    than as a call, as a callback say, is taken to have every parameter
    passed, as is any call unpacking *args or **kwargs."""
    calls, other = {}, set()
    for tree in trees.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
                callees.add(id(node.func))
        other |= {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                  and id(node) not in callees}
    for path, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and is_private(node.name)) or node.name in other:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            optional = [(i, a.arg) for i, a in enumerate(positional)
                        if i >= len(positional) - len(args.defaults)]
            optional += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None]
            for i, param in optional:
                if not any(
                        any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg in (None, param) for k in call.keywords)
                        or (i is not None and len(call.args) > i)
                        for call in calls.get(node.name, [])):
                    yield f"{path.name}:{node.lineno} {node.name}({param})"


def unused(pattern, definitions, lines):
    """The definitions (path, name, line) that no line of any source
    matches pattern(name) on, except the lines defining that name."""
    defined = {}
    for path, name, lineno in definitions:
        defined.setdefault(name, set()).add((path, lineno))
    dead = []
    for name, where in sorted(defined.items()):
        word = re.compile(pattern(name))
        if not any(word.search(line)
                   for other, text in lines.items()
                   for i, line in enumerate(text, 1)
                   if (other, i) not in where):
            dead += [f"{path.name}:{lineno} {name}" for path, lineno in sorted(where)]
    return dead


def sources():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in SOURCES}
    return lines, {path: ast.parse("\n".join(text)) for path, text in lines.items()}


def test_no_dead_private_symbols():
    lines, trees = sources()
    dead = []
    for path, tree in trees.items():
        dead += unused(lambda name: rf"\b{re.escape(name)}\b",
                       [(path, name, lineno) for name, lineno in private_definitions(tree)],
                       lines)
    assert dead == []


def test_no_dead_private_class_members():
    lines, trees = sources()
    definitions = [(path, name, lineno) for path, tree in trees.items()
                   for name, lineno in private_class_members(tree)]
    assert unused(lambda name: rf"\.{re.escape(name)}\b", definitions, lines) == []


def test_no_unused_imports():
    _, trees = sources()
    unread = [f"{path.name}:{lineno} {name}" for path, tree in trees.items()
              if path.name != "__init__.py" for name, lineno in unused_imports(tree)]
    assert unread == []


def test_no_unpassed_optional_parameters():
    _, trees = sources()
    assert list(unpassed_parameters(trees)) == []


def test_finds_an_unused_private_function():
    tree = ast.parse("def _unused():\n    pass\n\n_TABLE = {}\n__all__ = []\n")
    assert list(private_definitions(tree)) == [("_unused", 1), ("_TABLE", 4)]


def test_finds_the_fields_and_methods_of_a_private_class():
    tree = ast.parse("class _Table:\n    n: int\n    LIMIT = 3\n"
                     "    def __init__(self):\n        self.k = 1\n"
                     "    def total(self):\n        return self.k\n\n"
                     "class Table:\n    m: int\n")
    assert list(private_class_members(tree)) == [("n", 2), ("LIMIT", 3), ("k", 5), ("total", 6)]
    lines = {Path("a.py"): ["class _Table:", "    n: int", "x.total()", "x.k"]}
    definitions = [(Path("a.py"), "n", 2), (Path("a.py"), "total", 6), (Path("a.py"), "k", 5)]
    assert unused(lambda name: rf"\.{re.escape(name)}\b", definitions, lines) == ["a.py:2 n"]


def test_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nimport os.path\nimport numpy as np\n"
                     "from dataclasses import dataclass, replace\n\n"
                     "@dataclass\nclass A:\n    x: np.ndarray\n\n"
                     "def f():\n    import json\n    return os.path.sep\n")
    assert list(unused_imports(tree)) == [("math", 2), ("replace", 5)]


def test_finds_an_unpassed_optional_parameter():
    tree = ast.parse("def _f(a, b=None, *, c=1, d=2):\n    pass\n\n"
                     "def _g(x=0):\n    pass\n\n"
                     "def _h(y=0):\n    pass\n\n"
                     "def _k(z=0):\n    pass\n\n"
                     "def f(w=0):\n    pass\n\n"
                     "_f(1, d=3)\nmap(_g, [])\n_h(*[1])\nx._k(z=1)\nf()\n")
    assert list(unpassed_parameters({Path("a.py"): tree})) == ["a.py:1 _f(b)", "a.py:1 _f(c)"]
