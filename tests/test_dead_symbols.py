"""Every module-level private name in the package is used in the package.

A private (leading underscore, not dunder) def, class or assignment at
the top of a src/levelup module must be named on some other line of
src/levelup; otherwise nothing in the package can reach it.
"""

import ast
import re
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "levelup").glob("*.py"))


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
                if (isinstance(name, ast.Name) and name.id.startswith("_")
                        and not name.id.endswith("__")):
                    yield name.id, node.lineno


def test_no_dead_private_symbols():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in SOURCES}
    dead = []
    for path in SOURCES:
        for name, lineno in private_definitions(ast.parse("\n".join(lines[path]))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(word.search(line)
                       for other, text in lines.items()
                       for i, line in enumerate(text, 1)
                       if (other, i) != (path, lineno))
            if not used:
                dead.append(f"{path.name}:{lineno} {name}")
    assert dead == []


def test_finds_an_unused_private_function():
    tree = ast.parse("def _unused():\n    pass\n\n_TABLE = {}\n__all__ = []\n")
    assert list(private_definitions(tree)) == [("_unused", 1), ("_TABLE", 4)]
