"""Properties of the package source itself."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import ncomplex

SRC = Path(ncomplex.__file__).parent
TESTS = Path(__file__).parent


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
    """A module-level import that the module never reads is dead weight, in
    the package and in the tests alike.  ``__init__.py`` is exempt: its
    imports re-export the public API."""
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.parent.name}/{path.name}:{line} {name}"
                  for line, name in _unused_imports(tree)]
    assert not found, f"unused imports: {found}"


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


def test_kernel_helpers_stay_in_the_kernel():
    """The row format's reduction steps belong to the one elimination loop,
    ``_kernel_py.Echelon.absorb``: no other module names them, whether as an
    import, a plain name or an attribute."""
    private = {"_axpy", "_axpy_int", "_primitive"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_kernel_py.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in private]
    assert not found, f"kernel-private helpers outside _kernel_py: {found}"


# Public names of src/ncomplex that no program code calls, each with the
# reason it ships.  Keys are ``module.name`` or ``module.Class.method``.
PROGRAM_UNUSED = {
    "ndiff.homotopy_criterion_lemma3":
        "Lemma 3, the homotopy criterion sum d^(N-1-k) h_k d^k = 1",
    "ndiff.homotopy_criterion_lemma4":
        "Lemma 4, the criterion h d - q d h = 1 under (A1)",
    "ndiff.block_module":
        "the Jordan sum of D_n blocks, each at most N, whose block sizes "
        "are the multiplicities Proposition 4 counts",
    "graded.MatrixAlgebraComplex.lemma4_homotopy":
        "the homotopy that makes the matrix-algebra example acyclic by Lemma 4",
    "graded.les_check":
        "the long exact sequences (S_n,p) of a graded short exact sequence",
    "graded.GradedSES":
        "the short exact sequence that les_check takes",
    "cosimplicial.q_tensor_leibniz_witness":
        "the q-tensor square of a complex fails the graded q-Leibniz rule",
    "cosimplicial.chevalley_eilenberg":
        "the Chevalley-Eilenberg complex, the paper's N = 2 Lie example",
    "young.nonassociativity_witness":
        "the product of the Young-symmetrized forms is not associative",
    "gauge.GaugeCochains.prop8_check":
        "Proposition 8, the d-span of H in C(U, H) realizes H-bullet",
    "brs.derivation_forms_cohomology":
        "the longitudinal forms of a free foliation by derivations",
    "brs.koszul_homology": "perfbench/layers.py wraps it by name",
    "cosimplicial.universal_envelope": "perfbench/layers.py wraps it by name",
    "cosimplicial.omega_q": "perfbench/layers.py wraps it by name",
}


def _public_definitions(tree):
    """(qualified name, reference name, kind, node) of each public
    module-level function and class of a module ("name") and of each public
    method of such a class: a static method is referenced as
    ``Class.name`` ("static"), any other method as ``x.name``
    ("attribute")."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if (isinstance(node, (*functions, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, "name", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, functions) and not sub.name.startswith("_"):
                        qualname = f"{node.name}.{sub.name}"
                        if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                               for d in sub.decorator_list):
                            yield qualname, qualname, "static", sub
                        else:
                            yield qualname, sub.name, "attribute", sub


def _referenced_names(tree, kind="name"):
    """Counter of the names read in ``tree``: as a plain name or an attribute
    ("name"), only as an attribute ``x.name`` ("attribute"), or only as
    ``Class.name`` or ``module.Class.name``, counted as "Class.name"
    ("static"), so that ``Field.zero`` is no reference to ``Subspace.zero``.
    A re-export by import is no reference."""
    if kind == "static":
        return Counter(f"{getattr(node.value, 'id', None) or node.value.attr}.{node.attr}"
                       for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                       and isinstance(node.value, (ast.Name, ast.Attribute)))
    kinds = ast.Attribute if kind == "attribute" else (ast.Name, ast.Attribute)
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, kinds))


def test_every_public_name_runs():
    """The package ships only what runs: a public function, class or method
    of src/ncomplex is referenced by the package's own code outside its
    definition, or by the benchmark workloads; otherwise it is in
    ``PROGRAM_UNUSED`` with its reason, and an entry whose name gained a
    program caller, or is gone, is stale.  A method counts only through an
    attribute reference ``x.name``, a static method only through
    ``Class.name``: a local variable or another class's attribute of the
    same name is no caller.  Test scaffolding lives in ``tests/helpers.py``."""
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    workload_tree = ast.parse(workloads.read_text())
    # (package references, workload references), keyed by reference kind
    refs = {kind: (sum((_referenced_names(t, kind) for t in trees.values()),
                       Counter()),
                   _referenced_names(workload_tree, kind))
            for kind in ("name", "attribute", "static")}
    unused, defined = [], set()
    for module, tree in trees.items():
        for qualname, name, kind, node in _public_definitions(tree):
            package, called = refs[kind]
            key = f"{module}.{qualname}"
            defined.add(key)
            runs = (name in called
                    or package[name] > _referenced_names(node, kind)[name])
            if runs == (key in PROGRAM_UNUSED):
                unused.append(key)
    unused += sorted(set(PROGRAM_UNUSED) - defined)
    assert not unused, (
        f"public names that no program code runs, or stale PROGRAM_UNUSED "
        f"entries: {unused}")
