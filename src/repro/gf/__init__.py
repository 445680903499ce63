"""Finite-field GF(2^8) arithmetic used by MORE's network coding.

The public surface re-exports the scalar helpers, the row operations and
coefficient draws, the vectorized batch-coding kernels (``gf_matmul`` and
friends from :mod:`repro.gf.kernels`) and the matrix routines of the decode
oracle.
"""

from repro.gf.arithmetic import (
    CoefficientStream,
    add,
    inv,
    mul,
    random_code_vector,
    random_nonzero_coefficient,
    scale_and_add,
    vec_scale,
)
from repro.gf.kernels import ShiftedRows, gf_matmul, gf_vecmat
from repro.gf.matrix import SingularMatrixError, invert, rank, row_reduce, solve
from repro.gf.tables import EXP, FIELD_SIZE, INV, LOG, MUL, MUL_ROWS, MUL_TABLE_BYTES

__all__ = [
    "CoefficientStream",
    "EXP",
    "FIELD_SIZE",
    "INV",
    "LOG",
    "MUL",
    "MUL_ROWS",
    "MUL_TABLE_BYTES",
    "ShiftedRows",
    "SingularMatrixError",
    "add",
    "gf_matmul",
    "gf_vecmat",
    "inv",
    "invert",
    "mul",
    "random_code_vector",
    "random_nonzero_coefficient",
    "rank",
    "row_reduce",
    "scale_and_add",
    "solve",
    "vec_scale",
]
