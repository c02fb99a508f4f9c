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
