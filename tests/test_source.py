"""Properties of the package source itself."""

import ast
import importlib.util
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


def _unused_imports(tree):
    """(line, name) of each name a module-level import binds that the module
    never reads.  ``from __future__`` imports are left out, and a name listed
    in ``__all__`` counts as read: the module re-exports it."""
    bound = {}
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.If, ast.Try)):
            todo.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            todo.extend(node.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    """A module-level import that the module never reads is dead weight.
    ``__init__.py`` is exempt: its imports re-export the public API."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line} {name}"
                  for line, name in _unused_imports(tree)]
    assert not found, f"unused imports in src/ncomplex: {found}"


def test_benchmark_tracer_installs():
    """Every entry point ``perfbench/layers.py`` wraps still exists under its
    name, so a renamed traced function or method fails in tier-1 as well as
    in the traced benchmark run; uninstalling puts every original back."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    before = {m.__name__: dict(vars(m)) for m in layers.package_modules()}
    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert {m.__name__: dict(vars(m)) for m in layers.package_modules()} == before
