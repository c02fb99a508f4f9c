"""The sparse row-echelon kernel behind every rank, kernel basis, solve,
quotient and image basis: one elimination loop, ``Echelon.absorb``.

``row_echelon`` and ``Echelon`` are ``_kernel_py``'s; see there for the
contract.  Over Q they take and return integer rows, eliminate fraction-free
and build no rational (row / lead is a normalized echelon row); over
Q(zeta_M) they run on the field's bound scalar operations.  ``BACKEND``
names the elimination path in benchmark and environment records.
"""

from ._kernel_py import Echelon, row_echelon

BACKEND = "pure"

__all__ = ["BACKEND", "Echelon", "row_echelon"]
