"""Properties of the package source itself."""

import ast
from pathlib import Path

import ncomplex

SRC = Path(ncomplex.__file__).parent


def test_no_bare_asserts():
    """Invariant checks are explicit raises: ``python -O`` strips every
    ``assert``, so none may guard a theorem."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare asserts in src/ncomplex: {found}"


def _unread_locals(tree):
    """(line, name) of each plain name a function assigns or defines in its
    own body and never reads, in that body or in a nested one.  Unpacking,
    loop and comprehension targets, ``_`` and names declared global or
    nonlocal are left out."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared, todo = {}, set(), list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stored.setdefault(node.name, node.lineno)
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id != "_":
                    stored.setdefault(t.id, t.lineno)
            if not isinstance(node, scopes):
                todo.extend(ast.iter_child_nodes(node))
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        found += [(line, name) for name, line in stored.items()
                  if name not in read and name not in declared]
    return sorted(found)


def test_no_unread_locals():
    """A local that is assigned and never read is dead work or a slip."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line} {name}"
                  for line, name in _unread_locals(tree)]
    assert not found, f"unread locals in src/ncomplex: {found}"
