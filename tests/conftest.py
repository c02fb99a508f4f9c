import pytest

from ncomplex import kernel
from ncomplex.linalg import EchelonSolver, ExactMatrix


@pytest.fixture
def elimination_counts(monkeypatch):
    """Counters ``{"solvers": n, "row_echelon": n}`` of the EchelonSolver
    builds and kernel eliminations made during the test."""
    counts = {"solvers": 0, "row_echelon": 0}
    init, row_echelon = EchelonSolver.__init__, kernel.row_echelon

    def counting_init(self, M):
        counts["solvers"] += 1
        init(self, M)

    def counting_row_echelon(*args, **kwargs):
        counts["row_echelon"] += 1
        return row_echelon(*args, **kwargs)

    monkeypatch.setattr(EchelonSolver, "__init__", counting_init)
    monkeypatch.setattr(kernel, "row_echelon", counting_row_echelon)
    return counts


@pytest.fixture
def no_draws():
    """An rng stand-in that fails the test on any use: a verifier handed it
    must decide without drawing."""

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"rng.{name} used")

    return NoDraws()


@pytest.fixture(scope="session")
def criterion_report():
    """``criterion_report(n)`` is criterion n's report at seed 42, computed
    the first time it is asked for and shared by every later test, so each
    criterion runs once in a session."""
    from ncomplex import acceptance

    criteria, reports = list(acceptance.ALL_CRITERIA), {}

    def report(number):
        if number not in reports:
            reports[number] = criteria[number - 1](seed=42)
        return reports[number]

    return report


def validate_relations(E):
    """The cosimplicial relations of E, each formed as a matrix identity on
    every level: (F) f_j f_i = f_i f_(j-1) for i < j, (S) s_j s_i =
    s_i s_(j+1) for i <= j and (SF).  Raises ValueError naming the first
    failing relation, level and indices.  The builders certify these
    relations by the algebra and bimodule laws; this is their oracle."""
    for n in range(E.n_max):
        if len(E.cofaces[n]) != n + 2:
            raise ValueError(f"level {n} must have {n + 2} cofaces")
    for n in range(E.n_max - 1):
        for j in range(n + 3):
            for i in range(j):
                lhs = E.cofaces[n + 1][j] @ E.cofaces[n][i]
                rhs = E.cofaces[n + 1][i] @ E.cofaces[n][j - 1]
                if lhs != rhs:
                    raise ValueError(f"(F) fails at level {n}, indices i={i}, j={j}")
    if E.codegens is None:
        return
    for n in range(E.n_max):
        if len(E.codegens[n]) != n + 1:
            raise ValueError(f"level {n} must have {n + 1} codegeneracies")
    for n in range(E.n_max - 1):
        for i in range(n + 2):
            for j in range(i, n + 1):
                lhs = E.codegens[n][j] @ E.codegens[n + 1][i]
                rhs = E.codegens[n][i] @ E.codegens[n + 1][j + 1]
                if lhs != rhs:
                    raise ValueError(f"(S) fails at level {n}, indices i={i}, j={j}")
    # (SF) on E^n -> E^n: s_j f_i is f_i s_(j-1) for i < j, the identity for
    # i = j, j + 1 and f_(i-1) s_j for i > j + 1
    for n in range(E.n_max):
        for i in range(n + 2):
            for j in range(n + 1):
                got = E.codegens[n][j] @ E.cofaces[n][i]
                if i in (j, j + 1):
                    want = ExactMatrix.identity(E.dims[n], E.field)
                elif i < j:
                    want = E.cofaces[n - 1][i] @ E.codegens[n - 1][j - 1]
                else:
                    want = E.cofaces[n - 1][i - 1] @ E.codegens[n - 1][j]
                if got != want:
                    raise ValueError(f"(SF) fails at level {n}, indices i={i}, j={j}")


@pytest.fixture
def cosimplicial_relations():
    """``validate_relations``, the full relation check of a cosimplicial
    module, for the tests that run it as an oracle."""
    return validate_relations
