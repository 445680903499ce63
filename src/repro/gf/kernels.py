"""Vectorized batch-coding kernels over GF(2^8).

The scalar helpers in :mod:`repro.gf.arithmetic` operate one coefficient at
a time, which would force every encoder to run a K-iteration Python loop
over S-byte rows per packet.  These kernels lift the arithmetic on *payload
bytes* to whole matrices, so that coding N packets or materialising a
buffer's payloads is a handful of numpy array operations.  (The K-byte code
vectors are below the size at which a numpy call earns its fixed cost:
:class:`repro.coding.buffer.BatchBuffer` eliminates and combines over them
without these kernels.)

``gf_vecmat``
    ``vector @ B`` for one coefficient vector, for any ``B``: the public
    single-vector product.

``gf_matmul``
    ``C = A @ B`` over the field.  Materialising a buffer's deferred
    payloads is one ``(r, r) @ (r, S)`` product.

``ShiftedRows``
    A right operand kept for repeated products against the *same* rows: the
    source encoder codes thousands of packets over one fixed batch, and a
    forwarder pre-codes over raw payloads that are only ever appended to.
    See below for the formulation.

All kernels are exact: GF(2^8) arithmetic has no rounding, so the
vectorized results are bit-identical to the scalar loops they replace
(the differential tests in ``tests/coding`` assert exactly that).

Two formulations are used, picked by the width of the rows:

* **MUL-table gather** (single vectors, narrow rows): one fancy index into
  the 64 KiB product table plus one XOR-reduce, no per-operand structure
  at all.  ``gf_vecmat`` always takes it, and so does
  ``ShiftedRows.vecmul`` for rows up to ``VEC_GATHER_MAX_WIDTH`` bytes
  (every preset's 16-byte coded payloads), which therefore build nothing.

* **XOR of shifted rows** (matrix products, wide rows): multiplication by
  a field element is GF(2)-linear, so ``c * row`` is the XOR of ``x^j *
  row`` over the set bits ``j`` of ``c``.  Stacking the eight polynomial
  shifts of every row of ``B`` turns each output row into an XOR-reduce of
  ~4K selected rows, processed eight bytes at a time through a ``uint64``
  view — roughly an order of magnitude faster than per-byte table lookups
  for batch-sized products.  A row's eight stack lines depend on that row
  alone, so the stack is built once per row: :class:`ShiftedRows` expands
  only the rows appended since the last product.  ``gf_matmul`` always
  takes it.
"""

from __future__ import annotations

import numpy as np

from repro.gf.tables import MUL

#: The reducing polynomial below its x^8 term: what x^8 folds back to.
_POLY_LOW = 0x1B


def _as_matrix(array: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(array, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {matrix.shape}")
    return matrix


def _xtimes(matrix: np.ndarray) -> np.ndarray:
    """Multiply every element by x (the generator polynomial shift).

    All in ``uint8``: the left shift drops the overflowing x^8 bit, which
    the second term folds back in as the reducing polynomial's low bits.
    """
    return (matrix << 1) ^ ((matrix >> 7) * _POLY_LOW)


class ShiftedRows:
    """A right operand ``B`` for repeated products, append-only by rows.

    For each row ``k`` of ``B`` the eight products ``x^j * B[k]`` are
    stacked (row ``8 k + j``).  ``c * B[k]`` is then the XOR of the stacked
    rows selected by the set bits of ``c``, and a full ``(N, K) @ B``
    product is one XOR-reduce per output row over a ``uint64`` view of the
    stack — no table gathers at all.

    The operand is the first ``rows`` rows of ``matrix`` (all of them by
    default) and keeps reading that ``uint8`` array: a caller that fills
    further rows in place — a forwarder's raw payload slots — announces
    them with :meth:`grow`, and only those rows are expanded.  Rows already
    announced must not change.

    What is built follows from the row width and the product asked for:
    :meth:`vecmul` serves rows up to ``VEC_GATHER_MAX_WIDTH`` bytes from the
    matrix itself, so such an operand has no stack until :meth:`matmul` is
    called; a wider one expands each row as it is announced; a zero-width
    one never runs a kernel.
    """

    #: Row widths up to this use the MUL-table gather for single-vector
    #: products (measured crossover: the gather wins below ~64 bytes, the
    #: uint64 stack XOR wins for full 1500-byte payloads).
    VEC_GATHER_MAX_WIDTH = 64

    def __init__(self, matrix: np.ndarray, rows: int | None = None) -> None:
        self._matrix = _as_matrix(matrix, "matrix")
        self.k = 0
        self.s = self._matrix.shape[1]
        self._words: np.ndarray | None = None
        self._expanded = 0
        self.grow(self._matrix.shape[0] if rows is None else rows)

    def grow(self, rows: int) -> None:
        """The operand is now the first ``rows`` rows of its matrix."""
        if not self.k <= rows <= self._matrix.shape[0]:
            raise ValueError(
                f"an operand of {self.k} rows over a {self._matrix.shape} matrix "
                f"cannot grow to {rows}")
        self.k = rows
        self._rows = self._matrix[:rows]
        if self.s > self.VEC_GATHER_MAX_WIDTH:
            self._expand()

    def _expand(self) -> np.ndarray:
        """The ``uint64`` stack, with every announced row's shifts in it."""
        words = self._words
        if words is None:
            # Room for every row the matrix can hold, the row width padded
            # to whole words; pages are touched as rows are expanded.
            words = self._words = np.zeros(
                (self._matrix.shape[0] * 8, (self.s + 7) // 8), dtype=np.uint64)
        start, stop = self._expanded, self.k
        if start < stop:
            stack = words.view(np.uint8)
            shifted = self._rows[start:]
            for j in range(8):
                stack[8 * start + j:8 * stop:8, :self.s] = shifted
                if j < 7:
                    shifted = _xtimes(shifted)
            self._expanded = stop
        return words

    def vecmul(self, vector: np.ndarray) -> np.ndarray:
        """``vector @ B`` for one 1-D coefficient vector (hot encode path).

        Bit-identical to ``matmul(vector[None, :])[0]``; narrow operands
        take one MUL-table gather plus one XOR-reduce (no per-call operand
        prep), wide ones the stacked-XOR formulation.
        """
        if self.s > self.VEC_GATHER_MAX_WIDTH:
            return self.matmul(vector.reshape(1, -1))[0]
        if vector.shape[0] != self.k:
            raise ValueError(
                f"inner dimensions do not match: ({vector.shape[0]},) @ "
                f"({self.k}, {self.s})"
            )
        if not self.s:
            return np.zeros(0, dtype=np.uint8)
        return np.bitwise_xor.reduce(MUL[vector[:, None], self._rows], axis=0)

    def matmul(self, a: np.ndarray) -> np.ndarray:
        """``a @ B`` over GF(2^8) for an ``(n, k)`` coefficient matrix."""
        left = _as_matrix(a, "a")
        n = left.shape[0]
        if left.shape[1] != self.k:
            raise ValueError(
                f"inner dimensions do not match: {left.shape} @ ({self.k}, {self.s})"
            )
        if n == 0 or self.k == 0 or self.s == 0:
            return np.zeros((n, self.s), dtype=np.uint8)
        words = self._expand()
        bits = np.unpackbits(left[:, :, None], axis=2,
                             bitorder="little").reshape(n, self.k * 8)
        out = np.zeros((n, words.shape[1]), dtype=np.uint64)
        for i in range(n):
            selected = np.nonzero(bits[i])[0]
            if selected.size:
                np.bitwise_xor.reduce(words[selected], axis=0, out=out[i])
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
    if right.shape[0] != left.shape[1]:
        raise ValueError(
            f"inner dimensions do not match: {left.shape} @ {right.shape}"
        )
    return ShiftedRows(right).matmul(left)


def gf_vecmat(vector: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``vector @ matrix`` over GF(2^8) for a 1-D coefficient vector.

    The single-vector form: one MUL-table gather, with no operand built;
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
    return np.bitwise_xor.reduce(MUL[coefficients[:, None], right], axis=0)

