"""Finite-field GF(2^8) arithmetic used by MORE's network coding.

The public surface re-exports the scalar helpers, the vector kernels used on
packet payloads, the vectorized batch-coding kernels (``gf_matmul`` and
friends from :mod:`repro.gf.kernels`) and the matrix routines used by the
decoder.
"""

from repro.gf.arithmetic import (
    CoefficientStream,
    add,
    div,
    inv,
    mul,
    power,
    random_code_vector,
    random_coefficients,
    random_nonzero_coefficient,
    scale_and_add,
    sub,
    vec_add,
    vec_mul,
    vec_scale,
)
from repro.gf.kernels import ShiftedRows, gf_matmul, gf_vecmat
from repro.gf.matrix import (
    SingularMatrixError,
    invert,
    is_invertible,
    matmul,
    rank,
    row_reduce,
    solve,
)
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
    "div",
    "gf_matmul",
    "gf_vecmat",
    "inv",
    "invert",
    "is_invertible",
    "matmul",
    "mul",
    "power",
    "random_code_vector",
    "random_coefficients",
    "random_nonzero_coefficient",
    "rank",
    "row_reduce",
    "scale_and_add",
    "solve",
    "sub",
    "vec_add",
    "vec_mul",
    "vec_scale",
]
