"""Exact workbench for N-differential modules, N-complexes and their
generalized homology over the rationals and cyclotomic fields."""

from .fields import (
    Field,
    QQ,
    check_assumptions,
    cyclotomic_polynomial,
    make_cyclotomic,
    q_binomial,
    q_factorial,
    q_int,
    rat,
)
from .kernel import BACKEND
from .linalg import (
    EchelonSolver,
    ExactMatrix,
    Subspace,
    image_basis,
    intersection,
    kernel_basis,
    rank,
)

__version__ = "0.1.0"
