"""Matrix algebra over GF(2^8).

The destination in MORE decodes a batch by inverting the K x K matrix of
code vectors (Section 3.1.3).  Forwarders never invert matrices; they only
need rank / linear-independence checks, which live in
:mod:`repro.coding.buffer`.  This module provides the general-purpose matrix
routines of the decode oracle, which the incremental decoder is tested
against:

* ``row_reduce`` — Gaussian elimination to (reduced) row-echelon form,
* ``rank`` — matrix rank over the field,
* ``invert`` — matrix inverse (raises if singular),
* ``solve`` — solve ``A x = B`` for ``x``.

All matrices are numpy ``uint8`` arrays interpreted element-wise as field
elements.
"""

from __future__ import annotations

import numpy as np

from repro.gf.arithmetic import scale_and_add, vec_scale
from repro.gf.tables import INV


class SingularMatrixError(ValueError):
    """Raised when attempting to invert or solve with a singular matrix."""


def _as_field_matrix(matrix: np.ndarray) -> np.ndarray:
    """Validate and copy the input as a 2-D uint8 matrix."""
    array = np.asarray(matrix, dtype=np.uint8)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {array.shape}")
    return array.copy()


def row_reduce(matrix: np.ndarray, reduced: bool = True) -> tuple[np.ndarray, list[int]]:
    """Gaussian-eliminate ``matrix`` over GF(2^8).

    Args:
        matrix: 2-D array of field elements.
        reduced: if True produce reduced row-echelon form (pivots are 1 and
            are the only non-zero entry in their column); otherwise stop at
            row-echelon form.

    Returns:
        A tuple ``(echelon, pivot_columns)`` where ``echelon`` is the
        eliminated matrix and ``pivot_columns`` lists the column index of
        each pivot row in order.
    """
    work = _as_field_matrix(matrix)
    rows, cols = work.shape
    pivot_columns: list[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # Find a row at or below pivot_row with a non-zero entry in col.
        candidates = np.nonzero(work[pivot_row:, col])[0]
        if candidates.size == 0:
            continue
        swap = pivot_row + int(candidates[0])
        if swap != pivot_row:
            work[[pivot_row, swap]] = work[[swap, pivot_row]]
        # Normalise the pivot row so the pivot is 1.
        pivot_value = int(work[pivot_row, col])
        if pivot_value != 1:
            work[pivot_row] = vec_scale(work[pivot_row], int(INV[pivot_value]))
        # Eliminate the pivot column from the other rows.
        start = 0 if reduced else pivot_row + 1
        for row in range(start, rows):
            if row == pivot_row:
                continue
            factor = int(work[row, col])
            if factor:
                scale_and_add(work[row], work[pivot_row], factor)
        pivot_columns.append(col)
        pivot_row += 1
    return work, pivot_columns


def rank(matrix: np.ndarray) -> int:
    """Return the rank of ``matrix`` over GF(2^8)."""
    _, pivots = row_reduce(matrix, reduced=False)
    return len(pivots)


def solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` over GF(2^8).

    ``rhs`` may be a vector or a matrix whose rows correspond to the rows of
    ``matrix`` (this is how the decoder recovers native packets: the rhs rows
    are the coded payloads).

    Raises:
        SingularMatrixError: if ``matrix`` is singular.
    """
    a = _as_field_matrix(matrix)
    b = np.asarray(rhs, dtype=np.uint8)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b.reshape(-1, 1)
    if a.shape[0] != a.shape[1]:
        raise ValueError("solve requires a square coefficient matrix")
    if a.shape[0] != b.shape[0]:
        raise ValueError("rhs row count must match the coefficient matrix")
    augmented = np.concatenate([a, b.copy()], axis=1)
    echelon, pivots = row_reduce(augmented, reduced=True)
    if len(pivots) < a.shape[0] or any(p >= a.shape[1] for p in pivots):
        raise SingularMatrixError("coefficient matrix is singular over GF(2^8)")
    solution = echelon[:, a.shape[1]:]
    return solution[:, 0] if vector_rhs else solution


def invert(matrix: np.ndarray) -> np.ndarray:
    """Return the inverse of a square matrix over GF(2^8).

    Raises:
        SingularMatrixError: if the matrix is singular.
    """
    a = _as_field_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError("only square matrices can be inverted")
    identity = np.eye(a.shape[0], dtype=np.uint8)
    return solve(a, identity)

