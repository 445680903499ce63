"""Batch buffer with incremental innovation checking (Algorithm 2).

Every MORE node (source excepted) maintains, per flow, a buffer of the
innovative packets it has heard from the current batch.  Section 3.2.3(b) of
the paper describes the trick that makes innovation checking cheap: the code
vectors of buffered packets are kept in row-echelon (triangular) form so a
newly heard vector can be reduced against them with at most K row operations.
Only if the reduced vector is non-zero is the packet innovative; its
*payload bytes are never touched* during the check.

:class:`BatchBuffer` implements exactly that data structure, storing for each
pivot position the (reduced) code vector and the correspondingly combined
payload so the destination can later decode with a cheap back-substitution
free pass (the rows are maintained in *reduced* row-echelon form as the
paper's decoder does).

Payload arithmetic leaves the per-insert path entirely.  Each stored row
is the code vector *augmented with a transform row*: the row's linear
combination over the raw payloads admitted so far.  Inserts eliminate over
the ``2K``-byte combined rows (code columns + transform columns) and write
the raw payload, untouched, into its slot of :attr:`BatchBuffer.raw` —
which, for wide payloads, is line ``x^0`` of the slots' own
:class:`~repro.gf.kernels.ShiftedRows` stack, so each row is stored once.
The reduced payloads are computed only when a decode needs the bytes: one
``(K, K) @ (K, S)`` product of the transform through that same operand,
written into the one ``K x S`` matrix the natives are rows of.  A pre-code
never does (:meth:`BatchBuffer.combine_rows` returns coefficients over the
raw slots, and the packet coded from them builds its bytes only if a
listener stores it), and neither does an arrival that turns out not to be
innovative: ``add`` reads a packet's payload in its innovative branch only.
Deferring the back-substitution this way is what turns per-packet payload
elimination (two O(K * S) row passes per arrival) into a single batched
product per batch completion.  GF(2^8) arithmetic is exact,
so the deferred form produces the same bytes as the per-row Python-loop
Gauss–Jordan it is tested against (``ScalarBatchBuffer`` in
``tests/coding/test_vectorized_differential.py``).

The algebra runs on no array.  A row is K (or 2K) bytes, far below the
size at which a numpy call earns its fixed cost, so each row is kept as
one Python int (its bytes, little-endian): adding two rows is one ``^``,
and scaling one by a coefficient is ``bytes.translate`` through that
coefficient's row of the product table
(:data:`repro.gf.tables.MUL_ROWS`) — the paper's lookup-table multiply,
literally.  Arrays appear where payload bytes or a caller-visible matrix
do.

Every arrival combines the stored rows twice — the reduction (each row
scaled by the arrival's entry in its pivot column) and the clear of the
new pivot column (each row plus its own multiple of the new row) — so
one scaling per row makes coding work grow as the rank per arrival and
K^2 per batch.  Above :attr:`BatchBuffer.ROW_LOOP_MAX_RANK` stored rows
both run by distributivity instead, at a fixed number of scalings: the
reduction XORs each row into two 16-entry buckets keyed by its
coefficient's low and high nibble, folds them into the eight bit-planes
and sums ``x^t * plane t`` by Horner (seven scalings by x); the clear
tabulates the 16 low-nibble and 16 high-nibble multiples of the new row
from its eight ``x^t`` multiples, after which each row takes two XORs.
Below the constant the per-row loop is cheaper and runs instead; both
forms give the same bytes.

Because the stored rows are in *reduced* row-echelon form, every
coefficient the reduction of an incoming vector needs can be read from the
*incoming* bytes up front, which is bit-identical to the paper's sequential
row-by-row elimination: no stored row has a non-zero entry in another row's
pivot column, so no reduction step can change the coefficient a later step
reads.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable

import numpy as np

from repro.coding.packet import CodedPacket, PayloadRows
from repro.gf.kernels import gf_matmul
from repro.gf.tables import INV, MUL_ROWS

#: ``_INVERSE[a]`` as a Python int, without a numpy scalar in between.
_INVERSE = INV.tobytes()


def _bit_planes(buckets: list[int]) -> list[int]:
    """The four bit-planes of 16 nibble buckets: plane t is the XOR of the
    buckets whose index has bit t set, so ``sum(n * buckets[n])`` is
    ``sum(x^t * plane t)``."""
    _, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = buckets
    odd_pairs = b3 ^ b7 ^ b11 ^ b15
    return [b1 ^ b5 ^ b9 ^ b13 ^ odd_pairs,
            b2 ^ b6 ^ b10 ^ b14 ^ odd_pairs,
            b4 ^ b5 ^ b6 ^ b7 ^ b12 ^ b13 ^ b14 ^ b15,
            b8 ^ b9 ^ b10 ^ b11 ^ b12 ^ b13 ^ b14 ^ b15]


def _nibble_multiples(p0: int, p1: int, p2: int, p3: int) -> list[int]:
    """``n * row`` for each nibble n, indexed by n, from ``p_t = x^t * row``;
    handed ``x^4 .. x^7 * row`` it gives ``(n << 4) * row``, the high nibble's."""
    p01 = p0 ^ p1
    p02 = p0 ^ p2
    p12 = p1 ^ p2
    p012 = p01 ^ p2
    return [0, p0, p1, p01, p2, p02, p12, p012,
            p3, p3 ^ p0, p3 ^ p1, p3 ^ p01, p3 ^ p2, p3 ^ p02, p3 ^ p12, p3 ^ p012]


class BatchBuffer:
    """Stores the innovative coded packets of one batch in row-echelon form.

    Args:
        batch_size: K, the number of native packets in the batch.
        packet_size: payload bytes per packet.  A size of 0 is the one way
            to keep code vectors only: rank progression, innovation checks
            and decoding bookkeeping work as at any width, over K-byte rows
            with no transform, and every payload is the empty vector.
    """

    #: Up to this many stored rows, a combination scales each row through
    #: the product table; above it, it buckets the rows by nibble
    #: (``_combination``; the pivot clear in ``add`` likewise).  The bucketed
    #: form pays seven scalings and some fifty XORs whatever the rank.
    #: Measured crossover (µs per insert, per-row loop vs buckets, one
    #: process, interleaved): 256-byte rows (K=128 with payloads) 25 vs 33
    #: at 8 rows, 40 vs 30 at 24, 53 vs 38 at 32, 314 vs 119 at 127; 64-byte
    #: rows (K=32) 30 vs 26 at 31; 32-byte rows (K=32 vector-only) 27 vs 28
    #: at 31.  Break-even lies between 16 and 31 rows by row width, so at 32
    #: every buffer of K <= 32 keeps the loop.
    ROW_LOOP_MAX_RANK = 32

    def __init__(self, batch_size: int, packet_size: int) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if packet_size < 0:
            raise ValueError("packet_size must be non-negative")
        self.batch_size = batch_size
        self.packet_size = packet_size
        self.received = 0
        self.innovative = 0
        # A row's bytes: [0, K) the reduced code vector, whose leading
        # non-zero coefficient is a 1 at the row's pivot column; [K, 2K) the
        # transform (coefficients over the raw payloads in admission order),
        # kept only when there are payload bytes.
        self._with_transform = packet_size > 0
        #: Bytes per stored row: K, plus K transform bytes when payload
        #: bytes are kept.
        self.width = 2 * batch_size if self._with_transform else batch_size
        #: The pivot columns present, increasing, and the row of each.
        self._pivots: list[int] = []
        self._rows: list[int] = []
        #: The admitted raw payloads, one slot per innovative arrival in
        #: admission order (zero-width when no bytes are kept): the operand
        #: of every packet re-coded from this buffer.  Slots are append-only
        #: and a flush moves on to fresh ones, so a packet handed out
        #: earlier can build its bytes from them at any later time.
        self.raw = PayloadRows(batch_size, packet_size)
        self._payload_cache: np.ndarray | None = None

    @property
    def rank(self) -> int:
        """Current rank (number of innovative packets stored)."""
        return len(self._pivots)

    @property
    def is_full(self) -> bool:
        """True when the buffer holds K linearly independent packets."""
        return len(self._pivots) >= self.batch_size

    def occupied_pivots(self) -> list[int]:
        """Return the pivot columns currently present, in increasing order."""
        return list(self._pivots)

    def _combination(self, start: int, coefficients: Iterable[int]) -> int:
        """``start`` plus the stored rows scaled by ``coefficients`` (one per
        row, in pivot-column order): the one combination behind the
        reduction of an arrival, the dry-run innovation check and a
        forwarder's pre-code."""
        rows = self._rows
        width = self.width
        from_bytes = int.from_bytes
        tables = MUL_ROWS
        if len(rows) <= self.ROW_LOOP_MAX_RANK:
            for coefficient, row in zip(coefficients, rows):
                if coefficient:
                    start ^= from_bytes(
                        row.to_bytes(width, "little").translate(tables[coefficient]),
                        "little")
            return start
        # c * row is (c & 0x0F) * row ^ (c & 0xF0) * row: XOR each row into
        # two buckets, by its coefficient's low and high nibble, then fold
        # the buckets into the eight bit-planes (plane t: the XOR of the
        # rows whose coefficient has bit t).
        low = [0] * 16
        high = [0] * 16
        for coefficient, row in zip(coefficients, rows):
            if coefficient:
                low[coefficient & 15] ^= row
                high[coefficient >> 4] ^= row
        planes = _bit_planes(low) + _bit_planes(high)
        # sum(x^t * plane t) by Horner: seven multiplications by x.
        double = tables[2]
        combined = planes[7]
        for plane in planes[6::-1]:
            combined = from_bytes(
                combined.to_bytes(width, "little").translate(double), "little") ^ plane
        return start ^ combined

    def add(self, packet: CodedPacket) -> bool:
        """Insert a coded packet; return True iff it was innovative.

        Implements Algorithm 2 of the paper with the additional reduced-form
        maintenance used by the destination decoder: when a new pivot is
        admitted, rows above it are also cleared in that column so the stored
        matrix stays in *reduced* row-echelon form.
        """
        batch_size = self.batch_size
        code = packet.code_vector
        if len(code) != batch_size:
            raise ValueError(
                f"packet code vector length {len(code)} does not match "
                f"buffer batch size {batch_size}"
            )
        if packet.size != self.packet_size:
            raise ValueError(
                f"payload length {packet.size} does not match buffer "
                f"packet size {self.packet_size}"
            )
        self.received += 1
        pivots = self._pivots
        rows = self._rows
        slot = len(pivots)
        extended = int.from_bytes(code, "little")
        if self._with_transform and slot < batch_size:
            # This arrival would occupy raw slot ``slot``; rows carry their
            # combination over admitted arrivals in the transform columns.
            extended |= 1 << (8 * (batch_size + slot))
        extended = self._combination(extended, map(code.__getitem__, pivots))
        reduced = extended.to_bytes(self.width, "little")
        remaining = reduced[:batch_size].lstrip(b"\0")
        if not remaining:
            # Vector reduced to zero: the packet is not innovative; its
            # payload was never read.
            return False
        column = batch_size - len(remaining)
        inverse = _INVERSE[remaining[0]]
        if inverse != 1:
            reduced = reduced.translate(MUL_ROWS[inverse])
            extended = int.from_bytes(reduced, "little")
        # Clear the new pivot column from every stored row.
        shift = 8 * column
        from_bytes = int.from_bytes
        tables = MUL_ROWS
        if len(rows) <= self.ROW_LOOP_MAX_RANK:
            for index, row in enumerate(rows):
                factor = (row >> shift) & 0xFF
                if factor:
                    rows[index] = row ^ from_bytes(reduced.translate(tables[factor]),
                                                   "little")
        else:
            # Each row adds its own multiple of the one row ``reduced``, and
            # a multiple is (f & 0x0F) * reduced ^ (f & 0xF0) * reduced: tabulate
            # both nibbles' 16 multiples once, from the eight x^t * reduced.
            powers = [extended] + [from_bytes(reduced.translate(tables[1 << t]), "little")
                                   for t in range(1, 8)]
            low = _nibble_multiples(*powers[:4])
            high = _nibble_multiples(*powers[4:])
            rows[:] = [row ^ low[(row >> shift) & 15] ^ high[(row >> (shift + 4)) & 15]
                       for row in rows]
        index = bisect(pivots, column)
        pivots.insert(index, column)
        rows.insert(index, extended)
        self.innovative += 1
        if self._with_transform:
            # The one read of the packet's bytes on the receive path.
            self.raw.matrix[slot] = packet.payload
        self._payload_cache = None
        return True

    def is_innovative(self, code_vector: bytes) -> bool:
        """Check whether a code vector would be innovative, without inserting it."""
        if len(code_vector) != self.batch_size:
            raise ValueError("code vector length does not match batch size")
        reduced = self._combination(int.from_bytes(code_vector, "little"),
                                    map(code_vector.__getitem__, self._pivots))
        # The code columns are the low K bytes; the rest is transform.
        return bool(reduced & ((1 << (8 * self.batch_size)) - 1))

    def _columns(self, start: int, stop: int) -> np.ndarray:
        """Bytes ``[start, stop)`` of every stored row, as a fresh matrix."""
        width = self.width
        data = bytearray().join(row.to_bytes(width, "little")[start:stop]
                                for row in self._rows)
        return np.frombuffer(data, dtype=np.uint8).reshape(len(self._rows), stop - start)

    def coefficient_matrix(self) -> np.ndarray:
        """Return the stored code vectors stacked as a rank x K matrix."""
        return self._columns(0, self.batch_size)

    def _transform(self) -> np.ndarray:
        """The stored rows' transform columns: ``(rank, rank)``, row ``i``
        the reduced payload ``i`` over the raw slots filled so far."""
        batch_size = self.batch_size
        return self._columns(batch_size, batch_size + self.rank)

    def payload_matrix(self) -> np.ndarray:
        """Return the stored payloads stacked as a rank x S matrix.

        An inspection, off every run path: the reduced payloads are one
        ``transform @ raw`` product by a one-shot
        :func:`~repro.gf.kernels.gf_matmul`, which leaves :attr:`raw`'s own
        operand as it was, cached until the next insert.
        """
        cache = self._payload_cache
        if cache is None:
            cache = self._payload_cache = (
                gf_matmul(self._transform(), self.raw.matrix[:self.rank])
                if self._with_transform
                else np.zeros((self.rank, 0), dtype=np.uint8))
        return cache.copy()

    def combine_rows(self, coefficients: bytes) -> int:
        """One linear combination over the stored rows, as one ``[code |
        mix]`` row — no payload byte is touched.

        The forwarder pre-code path: ``coefficients @ [M | T]`` is one
        combination of the stored ``[code | transform]`` rows.  Its code half
        is the combined code vector; its transform half ``c @ T`` is the
        combined payload expressed over the raw slots :attr:`raw`, because
        the reduced payloads are ``T @ R``::

            c @ (T @ R)  ==  (c @ T) @ R

        which is exact in GF(2^8), so a packet that builds its bytes as
        ``mix @ R`` gets the bytes of the materialised path bit for bit at
        ``O(r^2 + r*S)`` instead of ``O(r^2 * S)`` — and one that is never
        stored pays the ``O(r^2)`` alone.

        Args:
            coefficients: one combination coefficient per stored row, in
                pivot-column order (the order of :meth:`coefficient_matrix`).

        Returns:
            The combined row as an int of :attr:`width` little-endian
            bytes: bytes ``[0, K)`` the code vector, bytes ``[K, 2K)`` the
            mix (one coefficient per raw slot the buffer can hold, zero
            beyond the slots filled so far; absent when no payload bytes
            are kept).  Full width, so that later arrivals can be folded in
            at their slots.
        """
        count = self.rank
        if count == 0:
            raise RuntimeError("cannot combine over an empty buffer")
        if len(coefficients) != count:
            raise ValueError(
                f"expected {count} combination coefficients, "
                f"got {len(coefficients)}")
        return self._combination(0, coefficients)

    def decode(self) -> np.ndarray:
        """Recover the K native payloads; requires a full-rank buffer.

        Because the buffer maintains reduced row-echelon form incrementally,
        once rank reaches K the stored coefficient matrix is the identity and
        the stored payloads *are* the native packets, in order.

        This is where the deferred back-substitution lands: the natives are
        ``transform @ raw``, one product through :attr:`raw`'s own operand
        (the raw slots are its rows), written into the one fresh matrix
        returned.

        Returns:
            A K x S matrix whose row ``i`` is native packet ``i``.

        Raises:
            RuntimeError: if the buffer is not yet full rank.
        """
        if not self.is_full:
            raise RuntimeError(
                f"cannot decode: rank {self.rank} < batch size {self.batch_size}"
            )
        if not self._with_transform:
            return np.zeros((self.batch_size, 0), dtype=np.uint8)
        return self.raw.matmul(self._transform())

    def clear(self) -> None:
        """Drop all stored state (used when a batch is flushed)."""
        self._pivots.clear()
        self._rows.clear()
        # Fresh slots, not zeroed ones: packets handed out from this batch
        # may still build their bytes from the old.
        self.raw = self.raw.successor()
        self._payload_cache = None
