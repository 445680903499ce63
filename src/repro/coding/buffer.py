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
the ``K x 2K`` combined matrix (code columns + transform columns) and stash
the raw payload untouched; the reduced payload matrix is materialised
lazily — one ``(rank, rank) @ (rank, S)`` product, cached until the next
insert — when a decode or inspection actually needs the bytes.  A pre-code
never does (:meth:`BatchBuffer.combine_rows` returns coefficients over the
raw slots, and the packet coded from them builds its bytes only if a
listener stores it), and neither does an arrival that turns out not to be
innovative: ``add`` reads a packet's payload in its innovative branch only.
Deferring the back-substitution this way is what turns per-packet payload
elimination (two O(K * S) row passes per arrival) into a single batched
product per rank advance/batch completion.  GF(2^8) arithmetic is exact,
so the deferred form produces the same bytes as the per-row Python-loop
Gauss–Jordan it is tested against (``ScalarBatchBuffer`` in
``tests/coding/test_vectorized_differential.py``).

Because the stored matrix is in *reduced* row-echelon form, reducing an
incoming vector against all pivots simultaneously (one ``(1, r) @ (r, K)``
product) is bit-identical to the paper's sequential row-by-row elimination:
no stored row has a non-zero entry in another row's pivot column, so no
reduction step can change the coefficient a later step reads.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.coding.packet import CodedPacket, PayloadRows
from repro.gf.arithmetic import vec_scale, zero_bytes
from repro.gf.kernels import gf_matmul, gf_vecmat
from repro.gf.tables import INV, MUL


class BatchBuffer:
    """Stores the innovative coded packets of one batch in row-echelon form.

    Args:
        batch_size: K, the number of native packets in the batch.
        packet_size: payload bytes per packet.  A size of 0 is valid and is
            how the vector-only simulation mode skips payload arithmetic
            entirely: rank progression and decoding bookkeeping still work,
            but every payload is the empty vector.
        track_payloads: when False only code vectors are stored; forwarders
            that merely need rank information (e.g. in analytical tests) can
            avoid the payload memory.
    """

    def __init__(self, batch_size: int, packet_size: int,
                 track_payloads: bool = True) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if packet_size < 0:
            raise ValueError("packet_size must be non-negative")
        self.batch_size = batch_size
        self.packet_size = packet_size
        self.track_payloads = track_payloads
        self._occupied = np.zeros(batch_size, dtype=bool)
        self._rank = 0
        self.received = 0
        self.innovative = 0
        # Combined matrix: columns [0, K) hold the reduced code vectors
        # (row i, when occupied, has its leading non-zero coefficient at
        # column i; unoccupied rows stay all-zero), columns [K, 2K) the
        # transform rows (coefficients over the raw payloads in admission
        # order).  Transform columns are only maintained when payload bytes
        # can ever be asked for.
        self._with_transform = track_payloads and packet_size > 0
        width = 2 * batch_size if self._with_transform else batch_size
        self._ops = np.zeros((batch_size, width), dtype=np.uint8)
        self._matrix = self._ops[:, :batch_size]
        #: The admitted raw payloads, one slot per innovative arrival in
        #: admission order (zero-width when no bytes are kept): the operand
        #: of every packet re-coded from this buffer.  Slots are append-only
        #: and a flush moves on to fresh ones, so a packet handed out
        #: earlier can build its bytes from them at any later time.
        self.raw = PayloadRows(np.zeros(
            (batch_size, packet_size if self._with_transform else 0), dtype=np.uint8))
        self._payload_cache: np.ndarray | None = None

    @property
    def rank(self) -> int:
        """Current rank (number of innovative packets stored)."""
        return self._rank

    @property
    def is_full(self) -> bool:
        """True when the buffer holds K linearly independent packets."""
        return self._rank >= self.batch_size

    def occupied_pivots(self) -> list[int]:
        """Return the pivot columns currently present, in increasing order."""
        return [int(i) for i in np.nonzero(self._occupied)[0]]

    def add(self, packet: CodedPacket) -> bool:
        """Insert a coded packet; return True iff it was innovative.

        Implements Algorithm 2 of the paper with the additional reduced-form
        maintenance used by the destination decoder: when a new pivot is
        admitted, rows above it are also cleared in that column so the stored
        matrix stays in *reduced* row-echelon form.
        """
        if packet.batch_size != self.batch_size:
            raise ValueError(
                f"packet code vector length {packet.batch_size} does not match "
                f"buffer batch size {self.batch_size}"
            )
        self.received += 1
        # Deferred-transform insert: code vector + transform row only.
        batch_size = self.batch_size
        with_transform = self._with_transform
        if self.track_payloads and packet.size != self.packet_size:
            raise ValueError(
                f"payload length {packet.size} does not match buffer "
                f"packet size {self.packet_size}"
            )
        ops = self._ops
        slot = self._rank
        extended = np.zeros(ops.shape[1], dtype=np.uint8)
        extended[:batch_size] = packet.code_vector
        if with_transform and slot < batch_size:
            # This arrival would occupy raw slot ``slot``; rows carry their
            # combination over admitted arrivals in the transform columns.
            extended[batch_size + slot] = 1
        # Active width: code columns plus the transform columns in use.  No
        # stored row (nor the incoming one) has a non-zero entry beyond it.
        width = batch_size + slot + 1 if with_transform else batch_size
        pivots = np.nonzero(self._occupied)[0]
        if pivots.size:
            coefficients = extended[pivots]
            if coefficients.tobytes() != zero_bytes(pivots.size):
                extended[:width] ^= gf_vecmat(coefficients, ops[pivots, :width])
        remaining = np.nonzero(extended[:batch_size])[0]
        if remaining.size == 0:
            # Vector reduced to zero: the packet is not innovative; its
            # payload was never read.
            return False
        column = int(remaining[0])
        inverse = int(INV[int(extended[column])])
        if inverse != 1:
            extended[:width] = vec_scale(extended[:width], inverse)
        if pivots.size:
            factors = ops[pivots, column]
            mask = factors != 0
            hit = pivots[mask]
            if hit.size:
                # Rank-1 update clearing the new pivot column from every
                # stored row at once; the MUL-table outer product beats the
                # LOG/EXP formulation at these widths.
                ops[hit, :width] ^= MUL[factors[mask][:, None], extended[:width]]
        ops[column] = extended
        self._occupied[column] = True
        self._rank += 1
        self.innovative += 1
        if with_transform:
            # The one read of the packet's bytes on the receive path.
            self.raw.matrix[slot] = packet.payload
        self._payload_cache = None
        return True

    def add_packets(self, packets: Iterable[CodedPacket]) -> list[bool]:
        """Insert a whole reception event's packets; one verdict per packet.

        Payload back-substitution is deferred across the entire event, so N
        inserts cost N code-vector eliminations and zero payload arithmetic
        — the payload matrix materialises once, on the first decode or
        inspection after the event.
        """
        return [self.add(packet) for packet in packets]

    def is_innovative(self, code_vector: np.ndarray) -> bool:
        """Check whether a code vector would be innovative, without inserting it."""
        vector = np.asarray(code_vector, dtype=np.uint8)
        if vector.shape[0] != self.batch_size:
            raise ValueError("code vector length does not match batch size")
        if self._rank == 0:
            return bool(vector.any())
        if self.is_full:
            return False
        pivots = np.nonzero(self._occupied)[0]
        coefficients = vector[pivots]
        if not coefficients.any():
            return bool(vector.any())
        reduced = vector ^ gf_vecmat(coefficients, self._matrix[pivots])
        return bool(reduced.any())

    def stored_packets(self) -> list[CodedPacket]:
        """Return the stored (reduced) packets as :class:`CodedPacket` objects."""
        pivots = self.occupied_pivots()
        if not pivots:
            return []
        if self.track_payloads:
            payloads = self.payload_matrix()
        else:
            payloads = np.zeros((len(pivots), self.packet_size), dtype=np.uint8)
        return [
            CodedPacket(code_vector=self._matrix[column].copy(),
                        payload=payloads[index].copy())
            for index, column in enumerate(pivots)
        ]

    def coefficient_matrix(self) -> np.ndarray:
        """Return the stored code vectors stacked as a rank x K matrix."""
        return self._matrix[self._occupied].copy()

    def payload_matrix(self) -> np.ndarray:
        """Return the stored payloads stacked as a rank x S matrix.

        This is where the deferred back-substitution lands: the reduced
        payloads are one ``transform @ raw_payloads`` product, computed on
        first request after a rank advance and cached until the next insert.
        """
        if not self.track_payloads:
            raise RuntimeError("buffer was created without payload tracking")
        cache = self._payload_cache
        if cache is None:
            cache = self._payload_cache = self._materialize_payloads()
        return cache.copy()

    def _materialize_payloads(self) -> np.ndarray:
        """Reduce the admitted raw payloads through the stored transform."""
        count = self._rank
        if not self._with_transform or count == 0:
            return np.zeros((count, self.packet_size), dtype=np.uint8)
        batch_size = self.batch_size
        transform = self._ops[self._occupied, batch_size:batch_size + count]
        return gf_matmul(transform, self.raw.matrix[:count])

    def combine_rows(self, coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One linear combination over the stored rows, as a code vector and
        a mix over the raw payload slots — no payload byte is touched.

        The forwarder pre-code path: ``coefficients @ [M | T]`` is one
        product over the stored ``[code | transform]`` rows.  Its code half
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
            The combined code vector (length K) and the mix (one
            coefficient per raw slot the buffer can hold, zero beyond the
            slots filled so far; empty when no payload bytes are kept).
            Both are views of one freshly owned row.
        """
        count = self._rank
        if count == 0:
            raise RuntimeError("cannot combine over an empty buffer")
        if coefficients.shape[0] != count:
            raise ValueError(
                f"expected {count} combination coefficients, "
                f"got {coefficients.shape[0]}")
        batch_size = self.batch_size
        if not self._with_transform:
            row = gf_vecmat(coefficients, self._matrix[self._occupied])
        else:
            # Full width, so that later arrivals can be folded in at their
            # slots; the product runs over the columns in use.
            width = batch_size + count
            row = np.zeros(2 * batch_size, dtype=np.uint8)
            row[:width] = gf_vecmat(coefficients, self._ops[self._occupied, :width])
        return row[:batch_size], row[batch_size:]

    def decode(self) -> np.ndarray:
        """Recover the K native payloads; requires a full-rank buffer.

        Because the buffer maintains reduced row-echelon form incrementally,
        once rank reaches K the stored coefficient matrix is the identity and
        the stored payloads *are* the native packets, in order.

        Returns:
            A K x S matrix whose row ``i`` is native packet ``i``.

        Raises:
            RuntimeError: if the buffer is not yet full rank or payloads are
                not tracked.
        """
        if not self.track_payloads:
            raise RuntimeError("cannot decode a buffer created without payload tracking")
        if not self.is_full:
            raise RuntimeError(
                f"cannot decode: rank {self._rank} < batch size {self.batch_size}"
            )
        return self.payload_matrix()

    def clear(self) -> None:
        """Drop all stored state (used when a batch is flushed)."""
        self._ops[:] = 0
        # Fresh slots, not zeroed ones: packets handed out from this batch
        # may still build their bytes from the old.
        self.raw = self.raw.successor()
        self._payload_cache = None
        self._occupied[:] = False
        self._rank = 0
