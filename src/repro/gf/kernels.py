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

* **MUL-table gather** (narrow rows, and every single vector of
  ``gf_vecmat``): one fancy index into the 64 KiB product table plus one
  XOR-reduce, no per-operand structure at all.  A :class:`ShiftedRows`
  over rows up to ``VEC_GATHER_MAX_WIDTH`` bytes (every preset's 16-byte
  coded payloads) takes it for both its products, and so builds nothing.

* **XOR of shifted rows** (wide rows): multiplication by a field element
  is GF(2)-linear, so ``c * row`` is the XOR of ``x^j * row`` over the set
  bits ``j`` of ``c``.  Writing ``c = lo + x^4 hi`` for its two nibbles,
  ``c * row = lo * row + x^4 (hi * row)``, and both nibble products are
  XORs of the four shifts ``x^0 .. x^3`` of the row.  Stacking those four
  lines for every row of ``B`` turns each output row into two XOR-reduces
  of ~2K selected lines, processed eight bytes at a time through a
  ``uint64`` view, and one table multiply of the high partial by ``x^4``
  for all output rows at once — roughly an order of magnitude faster than
  per-byte table lookups for batch-sized products.  A row's four lines
  depend on that row alone, so they are built once per row: a
  :class:`ShiftedRows` expands only the rows appended since the last
  product.
"""

from __future__ import annotations

import numpy as np

from repro.gf.tables import MUL, MUL_ROWS

#: Stack lines kept per row of a wide operand: ``x^0 .. x^3`` times the row,
#: the shifts one nibble of a coefficient selects from.
SHIFTS = 4

#: ``bytes.translate`` tables for ``x^1 .. x^3``: the stack lines above the row.
_SHIFT_TABLES = (MUL_ROWS[2], MUL_ROWS[4], MUL_ROWS[8])

#: Multiplication by ``x^4``, which lifts the high-nibble partial into place.
_TIMES_X4 = MUL_ROWS[16]


def _as_matrix(array: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(array, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {matrix.shape}")
    return matrix


def _write_shifts(lines: np.ndarray, rows: np.ndarray) -> None:
    """Write ``x^j * rows`` into ``lines[:, j]`` for every ``j < SHIFTS``.

    ``lines`` is ``(m, SHIFTS, s)`` and ``rows`` is ``(m, s)``: one table
    pass over the rows' bytes per shift above ``x^0``.
    """
    lines[:, 0] = rows
    data = rows.tobytes()
    for j, table in enumerate(_SHIFT_TABLES, 1):
        lines[:, j] = np.frombuffer(data.translate(table),
                                    dtype=np.uint8).reshape(rows.shape)


class ShiftedRows:
    """A right operand ``B`` for repeated products, append-only by rows.

    For each row ``k`` of a wide ``B`` the four products ``x^j * B[k]``
    are stacked (line ``SHIFTS * k + j``).  ``c * B[k]`` is then the XOR of
    the lines selected by the low-nibble bits of ``c``, plus ``x^4`` times
    the XOR of those its high-nibble bits select; a full ``(N, K) @ B``
    product is two XOR-reduces per output row over a ``uint64`` view of
    the stack and one table multiply for all rows — no per-byte gathers.

    The operand is the first ``rows`` rows of ``matrix`` (all of them by
    default) and keeps reading that ``uint8`` array: a caller that fills
    further rows in place — a forwarder's raw payload slots — announces
    them with :meth:`grow`, and only those rows are expanded.  Rows already
    announced must not change.

    What is built follows from the row width alone: rows up to
    ``VEC_GATHER_MAX_WIDTH`` bytes are served from the matrix itself by the
    MUL-table gather, so such an operand never has a stack; a wider one
    expands each row as it is announced.
    """

    #: Row widths up to this use the MUL-table gather for every product
    #: (measured crossover, for single vectors and K x K products alike:
    #: the gather wins below ~64 bytes, the uint64 stack XOR above it).
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
                (self._matrix.shape[0] * SHIFTS, (self.s + 7) // 8), dtype=np.uint64)
        start, stop = self._expanded, self.k
        if start < stop:
            lines = words.view(np.uint8).reshape(self._matrix.shape[0], SHIFTS, -1)
            _write_shifts(lines[start:stop, :, :self.s], self._rows[start:])
            self._expanded = stop
        return words

    def vecmul(self, vector: np.ndarray) -> np.ndarray:
        """``vector @ B`` for one 1-D coefficient vector (hot encode path).

        Bit-identical to ``matmul(vector[None, :])[0]``.
        """
        if self.s > self.VEC_GATHER_MAX_WIDTH:
            return self.matmul(vector.reshape(1, -1))[0]
        if vector.shape[0] != self.k:
            raise ValueError(
                f"inner dimensions do not match: ({vector.shape[0]},) @ "
                f"({self.k}, {self.s})"
            )
        return np.bitwise_xor.reduce(MUL[vector[:, None], self._rows], axis=0)

    def matmul(self, a: np.ndarray) -> np.ndarray:
        """``a @ B`` over GF(2^8) for an ``(n, k)`` coefficient matrix."""
        left = _as_matrix(a, "a")
        n = left.shape[0]
        if left.shape[1] != self.k:
            raise ValueError(
                f"inner dimensions do not match: {left.shape} @ ({self.k}, {self.s})"
            )
        if self.s <= self.VEC_GATHER_MAX_WIDTH:
            return np.bitwise_xor.reduce(MUL[left[:, :, None], self._rows], axis=1)
        if n == 0 or self.k == 0:
            return np.zeros((n, self.s), dtype=np.uint8)
        words = self._expand()
        # Half 0 of output row i selects the stack lines its coefficients'
        # low-nibble bits pick, half 1 those their high-nibble bits pick.
        bits = np.unpackbits(left[:, :, None], axis=2, bitorder="little")
        halves = bits.reshape(n, self.k, 2, SHIFTS).transpose(2, 0, 1, 3) \
            .reshape(2, n, self.k * SHIFTS)
        partials = np.zeros((2, n, words.shape[1]), dtype=np.uint64)
        for half in range(2):
            for i in range(n):
                selected = np.flatnonzero(halves[half, i])
                if selected.size:
                    np.bitwise_xor.reduce(words.take(selected, axis=0), axis=0,
                                          out=partials[half, i])
        low = partials[0].view(np.uint8)
        high = np.frombuffer(partials[1].tobytes().translate(_TIMES_X4),
                             dtype=np.uint8).reshape(low.shape)
        return (low ^ high)[:, : self.s]


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
    return np.bitwise_xor.reduce(MUL[coefficients[:, None], right], axis=0)

