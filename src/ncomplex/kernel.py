"""The sparse row-echelon kernel behind every rank, kernel, image and solve.

``row_echelon`` is ``_kernel_py.row_echelon``; see there for the contract.
``BACKEND`` names the elimination path in benchmark and environment records.
"""

from ._kernel_py import row_echelon

BACKEND = "pure"

__all__ = ["BACKEND", "row_echelon"]
