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
    ``C = A @ B`` over the field, one-shot: ``B`` is written into a fresh
    operand's rows.  Kept rows are multiplied through their own operand
    instead (a destination's decode is one ``(K, K) @ (K, S)`` product
    through its raw slots').

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
  per output row — roughly an order of magnitude faster than per-byte table
  lookups for batch-sized products.  Line ``x^0`` is the row itself, and
  the stack is where the row is stored: a wide :class:`ShiftedRows`
  keeps no separate matrix, and its rows are written straight into line
  0 (a forwarder's raw slots, a source's natives, the ``b`` of a one-shot
  ``gf_matmul``).  Lines ``x^1 .. x^3`` depend on that row alone, so they
  are built once per row: an operand expands only the rows appended since
  the last product.
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


def _write_shifts(lines: np.ndarray) -> None:
    """Write ``x^j * lines[:, 0]`` into ``lines[:, j]`` for ``1 <= j < SHIFTS``.

    ``lines`` is ``(m, SHIFTS, s)``, and line 0 of each of its ``m`` rows is
    the row itself: one table pass over the rows' bytes per shift above it.
    """
    rows = lines[:, 0]
    data = rows.tobytes()
    for j, table in enumerate(_SHIFT_TABLES, 1):
        lines[:, j] = np.frombuffer(data.translate(table),
                                    dtype=np.uint8).reshape(rows.shape)


class ShiftedRows:
    """A right operand ``B`` for repeated products, append-only by rows.

    For each row ``k`` of a wide ``B`` the four products ``x^j * B[k]``
    are stacked (line ``SHIFTS * k + j``).  ``c * B[k]`` is then the XOR of
    the lines selected by the low-nibble bits of ``c``, plus ``x^4`` times
    the XOR of those its high-nibble bits select; each output row of an
    ``(N, K) @ B`` product is two XOR-reduces over a ``uint64`` view of
    the stack and one table multiply — no per-byte gathers.

    The operand's rows are its own :attr:`matrix`.  Rows up to
    ``VEC_GATHER_MAX_WIDTH`` bytes are served from a plain ``uint8`` matrix
    by the MUL-table gather, so such an operand never has a stack.  A wider
    one stores each row once, as line 0 of its stack: :attr:`matrix` is
    the strided ``uint8`` view of those lines, and building the operand
    expands only ``x^1 .. x^3``.

    The operand is the first :attr:`k` rows of :attr:`matrix`.  A caller
    that fills further rows in place — a forwarder's raw payload slots —
    announces them with :meth:`grow`, and only those rows are expanded.
    Rows already announced must not change.
    """

    #: Row widths up to this use the MUL-table gather for every product
    #: (measured crossover, for single vectors and K x K products alike:
    #: the gather wins below ~64 bytes, the uint64 stack XOR above it).
    VEC_GATHER_MAX_WIDTH = 64

    # Kept small: every sender's rows hold one operand from the start,
    # used or not.
    __slots__ = ("k", "s", "matrix", "_rows", "_words", "_lines")

    def __init__(self, matrix: np.ndarray, rows: int | None = None) -> None:
        """An operand over the first ``rows`` rows of ``matrix`` (all by
        default).  A narrow matrix becomes :attr:`matrix` itself; a wide
        one is copied, every row of it, into the stack's line 0."""
        source = _as_matrix(matrix, "matrix")
        self._hold(*source.shape, source)
        self.grow(source.shape[0] if rows is None else rows)

    @classmethod
    def empty(cls, capacity: int, width: int) -> "ShiftedRows":
        """An operand of no rows, with room for ``capacity`` rows of
        ``width`` bytes: fill rows of :attr:`matrix`, then :meth:`grow`."""
        operand = cls.__new__(cls)
        operand._hold(capacity, width, None)
        return operand

    def _hold(self, capacity: int, width: int, source: np.ndarray | None) -> None:
        self.k = 0
        self.s = width
        if width <= self.VEC_GATHER_MAX_WIDTH:
            self._words: np.ndarray | None = None
            self.matrix = (source if source is not None
                           else np.zeros((capacity, width), dtype=np.uint8))
        else:
            # Every line padded to whole words; a row's lines are adjacent.
            line_words = (width + 7) // 8
            words = self._words = np.zeros((capacity * SHIFTS, line_words),
                                           dtype=np.uint64)
            self._lines = words.view(np.uint8) \
                .reshape(capacity, SHIFTS, 8 * line_words)[:, :, :width]
            self.matrix = self._lines[:, 0]
            if source is not None:
                self.matrix[:] = source
        self._rows = self.matrix[:0]

    def grow(self, rows: int) -> None:
        """The operand is now the first ``rows`` rows of :attr:`matrix`."""
        if not self.k <= rows <= self.matrix.shape[0]:
            raise ValueError(
                f"an operand of {self.k} rows over a {self.matrix.shape} matrix "
                f"cannot grow to {rows}")
        start, self.k = self.k, rows
        self._rows = self.matrix[:rows]
        if self._words is not None and start < rows:
            _write_shifts(self._lines[start:rows])

    def vecmul(self, vector: np.ndarray) -> np.ndarray:
        """``vector @ B`` for one 1-D coefficient vector (hot encode path).

        Bit-identical to ``matmul(vector[None, :])[0]``.
        """
        if self._words is not None:
            return self.matmul(vector.reshape(1, -1))[0]
        if vector.shape[0] != self.k:
            raise ValueError(
                f"inner dimensions do not match: ({vector.shape[0]},) @ "
                f"({self.k}, {self.s})"
            )
        return np.bitwise_xor.reduce(MUL[vector[:, None], self._rows], axis=0)

    def matmul(self, a: np.ndarray) -> np.ndarray:
        """``a @ B`` over GF(2^8) for an ``(n, k)`` coefficient matrix, as a
        fresh ``(n, s)`` array."""
        left = _as_matrix(a, "a")
        n = left.shape[0]
        if left.shape[1] != self.k:
            raise ValueError(
                f"inner dimensions do not match: {left.shape} @ ({self.k}, {self.s})"
            )
        words = self._words
        if words is None:
            return np.bitwise_xor.reduce(MUL[left[:, :, None], self._rows], axis=1)
        out = np.zeros((n, self.s), dtype=np.uint8)
        if n == 0 or self.k == 0:
            return out
        # Half 0 of output row i selects the stack lines its coefficients'
        # low-nibble bits pick, half 1 those their high-nibble bits pick.
        halves = np.unpackbits(left[:, :, None], axis=2, bitorder="little") \
            .reshape(n, self.k, 2, SHIFTS).transpose(0, 2, 1, 3) \
            .reshape(n, 2, self.k * SHIFTS)
        partials = np.zeros((2, words.shape[1]), dtype=np.uint64)
        low = partials[0].view(np.uint8)[:self.s]
        for i in range(n):
            for half in range(2):
                selected = np.flatnonzero(halves[i, half])
                if selected.size:
                    np.bitwise_xor.reduce(words.take(selected, axis=0), axis=0,
                                          out=partials[half])
                else:
                    partials[half] = 0
            high = np.frombuffer(partials[1].tobytes().translate(_TIMES_X4),
                                 dtype=np.uint8)
            np.bitwise_xor(low, high[:self.s], out=out[i])
        return out


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

