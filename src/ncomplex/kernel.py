"""The sparse row-echelon kernel behind every rank, kernel basis, solve and
quotient; image bases use its reduction steps through ``linalg.Echelon``.

``row_echelon`` is ``_kernel_py.row_echelon``; see there for the contract.
Over Q it takes and returns integer rows, eliminates fraction-free and
builds no rational (row / lead is a normalized echelon row); over Q(zeta_M)
it runs on the field's bound scalar operations.  ``BACKEND`` names the elimination path
in benchmark and environment records.
"""

from ._kernel_py import row_echelon

BACKEND = "pure"

__all__ = ["BACKEND", "row_echelon"]
