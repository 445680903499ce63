"""Lookup tables for GF(2^8) arithmetic.

MORE performs all network-coding arithmetic in the finite field GF(2^8)
(one field element per payload byte).  Section 4.6(a) of the paper explains
that the implementation keeps a 64 KiB table of all 256x256 byte products so
that multiplying a packet by a random coefficient reduces to table lookups.
This module builds exactly those tables once at import time:

``EXP`` / ``LOG``
    Discrete exponential / logarithm with respect to the generator 0x03 of
    the multiplicative group, used to derive the other tables and for scalar
    inverse computation.

``MUL``
    The full 256x256 product table (numpy ``uint8``), i.e. the paper's
    64 KiB lookup table.  ``MUL[a, b] == gf_mul(a, b)``.

``MUL_ROWS``
    The same table as 256 ``bytes`` rows: ``data.translate(MUL_ROWS[c])``
    multiplies every byte of ``data`` by ``c`` — the lookup-table multiply
    over a ``bytes`` object, which is how the coding buffer scales its
    K-byte rows without a numpy call.

``INV``
    Multiplicative inverses; ``INV[0]`` is defined as 0 and never used by
    callers that respect field semantics.

The reducing polynomial is the AES polynomial x^8 + x^4 + x^3 + x + 1
(0x11B).  Any primitive polynomial works for network coding; we pick the
conventional one so the tables can be validated against well-known vectors.
"""

from __future__ import annotations

import numpy as np

#: Order of the field (number of elements).
FIELD_SIZE = 256

#: Reducing polynomial for GF(2^8): x^8 + x^4 + x^3 + x + 1.
REDUCING_POLYNOMIAL = 0x11B

#: Generator of the multiplicative group used to build EXP/LOG.
GENERATOR = 0x03


def _carryless_multiply(a: int, b: int) -> int:
    """Multiply two field elements bit-by-bit, reducing modulo the polynomial.

    This is the slow reference implementation used only to build the lookup
    tables and in tests that validate them.
    """
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= REDUCING_POLYNOMIAL
    return result & 0xFF


def _build_exp_log() -> tuple[np.ndarray, np.ndarray]:
    """Build exponential and logarithm tables for the generator."""
    exp = np.zeros(FIELD_SIZE * 2, dtype=np.uint8)
    log = np.zeros(FIELD_SIZE, dtype=np.int32)
    x = 1
    for i in range(FIELD_SIZE - 1):
        exp[i] = x
        log[x] = i
        x = _carryless_multiply(x, GENERATOR)
    # Duplicate the table so EXP[log a + log b] never needs a modulo.
    for i in range(FIELD_SIZE - 1, FIELD_SIZE * 2):
        exp[i] = exp[i - (FIELD_SIZE - 1)]
    return exp, log


def _build_mul_table(exp: np.ndarray, log: np.ndarray) -> np.ndarray:
    """Build the full 256x256 product table (the paper's 64 KiB table)."""
    table = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
    a = np.arange(1, FIELD_SIZE)
    b = np.arange(1, FIELD_SIZE)
    log_a = log[a][:, None]
    log_b = log[b][None, :]
    table[1:, 1:] = exp[log_a + log_b]
    return table


def _build_inverse_table(exp: np.ndarray, log: np.ndarray) -> np.ndarray:
    """Build the multiplicative-inverse table (0 maps to 0)."""
    inv = np.zeros(FIELD_SIZE, dtype=np.uint8)
    for a in range(1, FIELD_SIZE):
        inv[a] = exp[(FIELD_SIZE - 1) - log[a]]
    return inv


EXP, LOG = _build_exp_log()
MUL = _build_mul_table(EXP, LOG)
MUL_ROWS: tuple[bytes, ...] = tuple(row.tobytes() for row in MUL)
INV = _build_inverse_table(EXP, LOG)

#: Size in bytes of the product table, reported for the memory-overhead
#: discussion in Section 4.6(b) of the paper (64 KiB).
MUL_TABLE_BYTES = MUL.nbytes
