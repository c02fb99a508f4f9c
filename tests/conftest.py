import pytest

from ncomplex import kernel
from ncomplex.linalg import EchelonSolver


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
