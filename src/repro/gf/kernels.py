"""Vectorized batch-coding kernels over GF(2^8).

The scalar helpers in :mod:`repro.gf.arithmetic` operate one coefficient at
a time, which forces every encoder and buffer to run a K-iteration Python
loop per packet.  These kernels lift the arithmetic to whole matrices so
that coding N packets, pre-coding over a forwarder's buffer, or reducing a
vector against a stored row-echelon matrix is a handful of numpy array
operations:

``gf_matmul``
    ``C = A @ B`` over the field: the workhorse.  Encoding N packets of a
    K-packet batch is one ``(N, K) @ (K, S)`` product; reducing an incoming
    vector against stored pivot rows is a ``(1, r) @ (r, K)`` product.

``ShiftedRows``
    A cacheable expansion of a right operand for repeated products against
    the *same* matrix (the source encoder codes thousands of packets over
    one fixed batch).  See below for the formulation.

``gf_outer``
    Outer product ``column[:, None] * row[None, :]`` — the rank-1 update
    used when a new pivot is eliminated from every stored row at once.

``scale_rows`` / ``scale_and_add_rows``
    Row-wise scaling by a coefficient per row, plain and XOR-accumulating —
    the batched form of :func:`repro.gf.arithmetic.scale_and_add`.

All kernels are exact: GF(2^8) arithmetic has no rounding, so the
vectorized results are bit-identical to the scalar loops they replace
(the differential tests in ``tests/coding`` assert exactly that).

Two formulations are used, picked by operand shape:

* **LOG/EXP gather** (small products): ``a * b = EXP[LOG[a] + LOG[b]]``
  with a sentinel logarithm for zero, evaluated as one broadcast gather
  into a 2 KiB table that stays resident in L1.  This beats the 64 KiB
  product table for the ``(1, r) @ (r, K)`` reductions on the hot
  receive path, where building any per-operand structure would dominate.

* **XOR of shifted rows** (large products): multiplication by a field
  element is GF(2)-linear, so ``c * row`` is the XOR of ``x^j * row`` over
  the set bits ``j`` of ``c``.  Stacking the eight polynomial shifts of
  every row of ``B`` once turns each output row into an XOR-reduce of
  ~4K selected rows, processed eight bytes at a time through a ``uint64``
  view — roughly an order of magnitude faster than per-byte table lookups
  for batch-sized products, and the stack is cacheable across calls
  (:class:`ShiftedRows`).
"""

from __future__ import annotations

import numpy as np

from repro.gf.tables import EXP, FIELD_SIZE, LOG, MUL

#: Upper bound on the intermediate (rows, k, s) tensors of the gather path.
_CHUNK_BYTES = 1 << 23  # 8 MiB

#: Sentinel "logarithm of zero": any sum involving it lands in the zero
#: region of the padded antilog table, so zero operands multiply to zero
#: without masking.
_LOG_ZERO = 1024

#: int16 log table with the zero sentinel.
_LOG16 = np.full(FIELD_SIZE, _LOG_ZERO, dtype=np.int16)
_LOG16[1:] = LOG[1:].astype(np.int16)

#: Antilog table padded so indices up to 2 * _LOG_ZERO resolve (to zero
#: beyond the genuine 510 exponent entries).
_EXP_PAD = np.zeros(2 * _LOG_ZERO + 1, dtype=np.uint8)
_EXP_PAD[:510] = EXP[:510]

#: Reducing polynomial reduced to uint16 work width (x^8 := 0x1B after the
#: overflow bit is dropped).
_POLY_LOW = 0x11B


def _as_matrix(array: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(array, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {matrix.shape}")
    return matrix


def _matmul_gather(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """LOG/EXP formulation: one broadcast gather into the padded antilog."""
    n, k = left.shape
    s = right.shape[1]
    result = np.zeros((n, s), dtype=np.uint8)
    log_right = _LOG16[right]
    rows_per_chunk = max(1, _CHUNK_BYTES // max(1, 2 * k * s))
    for start in range(0, n, rows_per_chunk):
        stop = min(start + rows_per_chunk, n)
        exponents = _LOG16[left[start:stop, :, None]] + log_right[None, :, :]
        np.bitwise_xor.reduce(_EXP_PAD[exponents], axis=1,
                              out=result[start:stop])
    return result


def _xtimes(matrix: np.ndarray) -> np.ndarray:
    """Multiply every element by x (the generator polynomial shift)."""
    wide = matrix.astype(np.uint16)
    return (((wide << 1) ^ ((wide >> 7) * _POLY_LOW)) & 0xFF).astype(np.uint8)


class ShiftedRows:
    """The stacked-shifted-rows expansion of a right operand ``B``.

    For each row ``k`` of ``B`` the eight products ``x^j * B[k]`` are
    precomputed and stacked (row ``8 k + j``).  ``c * B[k]`` is then the
    XOR of the stacked rows selected by the set bits of ``c``, and a full
    ``(N, K) @ B`` product is one XOR-reduce per output row over a
    ``uint64`` view of the stack — no table gathers at all.

    Build once per right operand and reuse: the source encoder keeps one
    instance per batch, so each coded packet costs a single reduce.
    """

    #: Row widths up to this use the cached-log gather for single-vector
    #: products (measured crossover: the gather wins below ~64 bytes, the
    #: uint64 stack XOR wins for full 1500-byte payloads).
    VEC_GATHER_MAX_WIDTH = 64

    def __init__(self, matrix: np.ndarray) -> None:
        rows = _as_matrix(matrix, "matrix")
        self.k, self.s = rows.shape
        # Pad the row width to a multiple of 8 so the stack can be viewed
        # as uint64 words.
        padded = (self.s + 7) // 8 * 8
        self._stack = np.zeros((self.k * 8, padded), dtype=np.uint8)
        shifted = rows
        for j in range(8):
            self._stack[j::8, : self.s] = shifted
            if j < 7:
                shifted = _xtimes(shifted)
        self._words = self._stack.view(np.uint64) if padded else None
        # Original operand rows, kept for the narrow single-vector products
        # of the per-transmission encode path (one MUL-table gather beats
        # the stacked XOR below ~64-byte rows; wide operands never use it).
        self._rows: np.ndarray | None = None
        if self.s and self.s <= self.VEC_GATHER_MAX_WIDTH:
            self._rows = rows

    def vecmul(self, vector: np.ndarray) -> np.ndarray:
        """``vector @ B`` for one 1-D coefficient vector (hot encode path).

        Bit-identical to ``matmul(vector[None, :])[0]``; narrow operands
        take one MUL-table gather plus one XOR-reduce (no per-call operand
        prep), wide ones the stacked-XOR formulation.
        """
        rows = self._rows
        if rows is None:
            return self.matmul(vector.reshape(1, -1))[0]
        if vector.shape[0] != self.k:
            raise ValueError(
                f"inner dimensions do not match: ({vector.shape[0]},) @ "
                f"({self.k}, {self.s})"
            )
        return np.bitwise_xor.reduce(MUL[vector[:, None], rows], axis=0)

    def matmul(self, a: np.ndarray) -> np.ndarray:
        """``a @ B`` over GF(2^8) for an ``(n, k)`` coefficient matrix."""
        left = _as_matrix(a, "a")
        n = left.shape[0]
        if left.shape[1] != self.k:
            raise ValueError(
                f"inner dimensions do not match: {left.shape} @ ({self.k}, {self.s})"
            )
        if self._words is None or n == 0 or self.k == 0:
            return np.zeros((n, self.s), dtype=np.uint8)
        bits = np.unpackbits(left[:, :, None], axis=2,
                             bitorder="little").reshape(n, self.k * 8)
        out = np.zeros((n, self._words.shape[1]), dtype=np.uint64)
        for i in range(n):
            selected = np.nonzero(bits[i])[0]
            if selected.size:
                np.bitwise_xor.reduce(self._words[selected], axis=0, out=out[i])
        return out.view(np.uint8)[:, : self.s]


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^8), fully vectorized.

    Args:
        a: ``(n, k)`` matrix of field elements.
        b: ``(k, s)`` matrix of field elements.

    Returns:
        The ``(n, s)`` product, where multiplication is field
        multiplication and addition is XOR.
    """
    left = _as_matrix(a, "a")
    right = _as_matrix(b, "b")
    n, k = left.shape
    if right.shape[0] != k:
        raise ValueError(
            f"inner dimensions do not match: {left.shape} @ {right.shape}"
        )
    s = right.shape[1]
    if n == 0 or k == 0 or s == 0:
        return np.zeros((n, s), dtype=np.uint8)
    # Building the shifted-row stack costs ~8 passes over B; it pays off
    # once several output rows amortise it.  Single-vector reductions (the
    # hot receive path) stay on the gather formulation.
    if n >= 8 and s >= 8:
        return ShiftedRows(right).matmul(left)
    return _matmul_gather(left, right)


def gf_vecmat(vector: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``vector @ matrix`` over GF(2^8) for a 1-D coefficient vector.

    The single-packet form used by the innovation check and the incremental
    Gauss–Jordan reduction — the hottest kernel entry point, so the gather
    runs directly (no matmul dispatch, no chunking, no output staging);
    results are bit-identical to ``gf_matmul(vector[None, :], matrix)[0]``.
    """
    coefficients = np.asarray(vector, dtype=np.uint8)
    if coefficients.ndim != 1:
        raise ValueError(f"vector must be 1-D, got shape {coefficients.shape}")
    right = _as_matrix(matrix, "matrix")
    k = coefficients.shape[0]
    if right.shape[0] != k:
        raise ValueError(
            f"inner dimensions do not match: (1, {k}) @ {right.shape}"
        )
    if k == 0 or right.shape[1] == 0:
        return np.zeros(right.shape[1], dtype=np.uint8)
    # Product-table gather: for the single-vector shape, one fancy index
    # into the 64 KiB MUL table plus one XOR-reduce beats the two-gather
    # LOG/EXP route (no intermediate int16 tensor).
    return np.bitwise_xor.reduce(MUL[coefficients[:, None], right], axis=0)


def gf_vecmat_reference(vector: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The ``vector @ matrix`` oracle: through :func:`gf_matmul`.

    Nothing at run time calls this: it is the reference the tests hold
    :func:`gf_vecmat` against, bit for bit.
    """
    coefficients = np.asarray(vector, dtype=np.uint8)
    if coefficients.ndim != 1:
        raise ValueError(f"vector must be 1-D, got shape {coefficients.shape}")
    return gf_matmul(coefficients[None, :], matrix)[0]


def gf_outer(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Outer product ``column ⊗ row`` over GF(2^8).

    Returns the ``(len(column), len(row))`` matrix whose entry ``(i, j)``
    is ``column[i] * row[j]`` — the rank-1 update eliminating a new pivot
    from every stored row in one shot.
    """
    c = np.asarray(column, dtype=np.uint8)
    r = np.asarray(row, dtype=np.uint8)
    if c.ndim != 1 or r.ndim != 1:
        raise ValueError("gf_outer expects 1-D operands")
    return _EXP_PAD[_LOG16[c[:, None]] + _LOG16[r[None, :]]]


def scale_rows(matrix: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Multiply row ``i`` of ``matrix`` by ``coefficients[i]``, returning a copy."""
    rows = _as_matrix(matrix, "matrix")
    factors = np.asarray(coefficients, dtype=np.uint8)
    if factors.ndim != 1 or factors.shape[0] != rows.shape[0]:
        raise ValueError(
            f"need one coefficient per row: {factors.shape} vs {rows.shape}"
        )
    return _EXP_PAD[_LOG16[factors[:, None]] + _LOG16[rows]]


def scale_and_add_rows(accumulator: np.ndarray, matrix: np.ndarray,
                       coefficients: np.ndarray) -> None:
    """In-place ``accumulator[i] ^= coefficients[i] * matrix[i]`` for every row.

    The batched form of :func:`repro.gf.arithmetic.scale_and_add`: one call
    folds N scaled packets into N accumulators.
    """
    rows = _as_matrix(matrix, "matrix")
    if accumulator.shape != rows.shape:
        raise ValueError(
            f"accumulator shape {accumulator.shape} does not match {rows.shape}"
        )
    np.bitwise_xor(accumulator, scale_rows(rows, coefficients), out=accumulator)
