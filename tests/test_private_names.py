"""Every module-level private name in the package is read somewhere in the package.

A helper that a deletion leaves behind, or one that only tests call, fails
here instead of lingering.  A name counts as read where it is loaded (or
reached as an attribute) anywhere in the package outside the top-level
statement that defines it, so a function that only calls itself is unread.
"""

import ast
from pathlib import Path

import croccolab

PACKAGE = Path(croccolab.__file__).resolve().parent


def _private_names():
    """Each module-level private name's defining (module, statement) pairs, and the pairs that read it."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, set()).add((module, id(stmt)))
    read = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in defined:
                    read.setdefault(name, set()).add((module, id(stmt)))
    return defined, read


def test_every_private_module_name_is_read_in_the_package():
    defined, read = _private_names()
    assert len(defined) > 100  # the scan sees the package
    unread = sorted(name for name, sites in defined.items() if not read.get(name, set()) - sites)
    assert unread == []
