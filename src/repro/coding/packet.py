"""Packet abstractions for intra-flow network coding.

MORE distinguishes *native* packets (the K uncoded packets of a batch) from
*coded* packets (random linear combinations of natives, Table 3.1).  A coded
packet carries a *code vector* of K coefficients describing how it was
derived from the natives, plus the combined payload bytes — computed when
they are first read (:class:`PayloadRows`), because most packets put on the
air are never stored by anyone.

A code vector is ``bytes``, K header bytes as MORE carries them, from the
draw through the header to the buffer; payloads are numpy ``uint8``
vectors.  Every byte is one GF(2^8) element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gf.kernels import ShiftedRows

#: Default packet payload size used throughout the evaluation (Section 4.1.2).
DEFAULT_PACKET_SIZE = 1500

#: Default batch size used throughout the evaluation (Section 4.1.2).
DEFAULT_BATCH_SIZE = 32


def _as_payload(data: np.ndarray | bytes | bytearray) -> np.ndarray:
    """Coerce payload bytes to a 1-D uint8 array."""
    if isinstance(data, (bytes, bytearray)):
        return np.frombuffer(bytes(data), dtype=np.uint8).copy()
    array = np.asarray(data, dtype=np.uint8)
    if array.ndim != 1:
        raise ValueError(f"payload must be 1-D, got shape {array.shape}")
    return array.copy()


class PayloadRows:
    """The payload rows a sender holds, as the operand of its packets' bytes.

    A source holds the K native payloads of a batch; a forwarder holds the
    raw payloads of its innovative arrivals, one slot per arrival in
    admission order.  Rows are append-only: a filled row never changes, and
    a sender that starts over (a flushed batch) continues on a
    :meth:`successor` with fresh rows, so a product over the first ``n``
    rows means the same bytes whenever it is asked for.

    :attr:`matrix` is the rows of the :class:`~repro.gf.kernels.ShiftedRows`
    operand itself — line 0 of its stack for wide rows — so a row is
    written once, where the products read it.  Nothing is expanded until a
    product is: each product grows the operand to the rows it reaches.
    """

    __slots__ = ("matrix", "_operand", "_built")

    def __init__(self, count: int, width: int) -> None:
        self._operand = ShiftedRows.empty(count, width)
        #: ``(count, width)`` ``uint8`` rows, zero until filled in place.
        self.matrix = self._operand.matrix
        # One count per sender, shared along the chain of successors.
        self._built = [0]

    @property
    def built(self) -> int:
        """Payloads computed from this sender's rows so far."""
        return self._built[0]

    def successor(self) -> "PayloadRows":
        """Empty rows of the same shape for the sender's next batch.

        This object stays as the packets handed out before the flush know
        it; only the count of built payloads carries over.
        """
        rows = PayloadRows(*self.matrix.shape)
        rows._built = self._built
        return rows

    def _over(self, count: int) -> ShiftedRows:
        """The operand, covering at least the first ``count`` rows."""
        operand = self._operand
        if operand.k < count:
            operand.grow(count)
        return operand

    def combine(self, row: bytes) -> np.ndarray:
        """``row @ matrix[:len(row)]``: the bytes of one coded packet."""
        count = len(row)
        operand = self._over(count)
        if operand.k > count:
            # A late read: the rows filled since carry coefficient zero.
            row += bytes(operand.k - count)
        self._built[0] += 1
        return operand.vecmul(np.frombuffer(row, dtype=np.uint8))

    def matmul(self, coefficients: np.ndarray) -> np.ndarray:
        """``coefficients @ matrix[:n]`` for ``(m, n)`` coefficients: ``m``
        payloads, as one fresh ``(m, width)`` array.

        ``n`` is every filled row: a source's eager batch, a destination's
        decode.
        """
        self._built[0] += coefficients.shape[0]
        return self._over(coefficients.shape[1]).matmul(coefficients)


class CodedPacket:
    """A random linear combination of the native packets of one batch.

    The payload bytes are a read-on-demand property.  A packet built by the
    constructor or :meth:`from_owned` has them from the start; one built by
    :meth:`deferred` carries the recipe instead — its sender's
    :class:`PayloadRows` and one coefficient row over them — and runs the
    product on the first read of :attr:`payload`, after which it owns the
    bytes and forgets the recipe.  A packet nobody stores (a non-innovative
    or unheard transmission) never runs it; :attr:`size` does not read.

    Packets compare and hash by identity: two packets are the same packet,
    not merely equal bytes.

    Attributes:
        code_vector: the K combination coefficients, one byte each.
        payload: combined payload bytes.
        batch_id: identifier of the batch this packet belongs to.
    """

    __slots__ = ("code_vector", "batch_id", "_payload", "_rows", "_row")

    def __init__(self, code_vector: bytes, payload: np.ndarray | bytes | bytearray,
                 batch_id: int = 0) -> None:
        if not isinstance(code_vector, (bytes, bytearray)):
            raise TypeError(
                f"code vector must be bytes, got {type(code_vector).__name__}")
        self.code_vector = bytes(code_vector)
        self.batch_id = batch_id
        self._payload: np.ndarray | None = _as_payload(payload)
        self._rows: PayloadRows | None = None
        self._row: bytes | None = None

    @classmethod
    def from_owned(cls, code_vector: bytes, payload: np.ndarray,
                   batch_id: int = 0) -> "CodedPacket":
        """Wrap a code vector and a freshly-created payload without the
        defensive copy.

        The caller transfers ownership of ``payload`` (uint8, 1-D,
        referenced by nothing that will mutate it afterwards).  Encoders use
        this on the batched path where the payloads are rows of a matrix
        allocated for this call alone; external callers should use the
        normal constructor, which copies.
        """
        assert payload.dtype == np.uint8 and payload.ndim == 1
        packet = cls.__new__(cls)
        packet.code_vector = code_vector
        packet.batch_id = batch_id
        packet._payload = payload
        packet._rows = packet._row = None
        return packet

    @classmethod
    def deferred(cls, code_vector: bytes, rows: PayloadRows, row: bytes,
                 batch_id: int = 0) -> "CodedPacket":
        """A packet whose bytes are ``row @ rows.matrix[:len(row)]``, unbuilt.

        ``row`` holds one coefficient per filled row of ``rows``; ``rows``
        stays the sender's, which only ever appends to it.
        """
        packet = cls.__new__(cls)
        packet.code_vector = code_vector
        packet.batch_id = batch_id
        packet._payload = None
        packet._rows = rows
        packet._row = row
        return packet

    @property
    def payload(self) -> np.ndarray:
        """Combined payload bytes (computed, once, by the first read)."""
        payload = self._payload
        if payload is None:
            payload = self._payload = self._rows.combine(self._row)
            self._rows = self._row = None
        return payload

    @property
    def batch_size(self) -> int:
        """K, the length of the code vector."""
        return len(self.code_vector)

    @property
    def size(self) -> int:
        """Payload length in bytes (known without building the payload)."""
        payload = self._payload
        if payload is None:
            return int(self._rows.matrix.shape[1])
        return int(payload.shape[0])

    def copy(self) -> "CodedPacket":
        """Return an independent copy of this packet (its bytes built)."""
        # The constructor copies the payload; the code vector is immutable.
        return CodedPacket(self.code_vector, self.payload, self.batch_id)


@dataclass(frozen=True, slots=True)
class Batch:
    """A batch of K native packets: the rows of one ``(K, S)`` ``uint8``
    matrix, row ``i`` native packet ``i``.

    The source codes over one batch at a time (Section 3.1.1).
    """

    batch_id: int
    payloads: np.ndarray

    @property
    def size(self) -> int:
        """Number of native packets K in the batch."""
        return int(self.payloads.shape[0])

    @property
    def packet_size(self) -> int:
        """Payload size of the packets in this batch (bytes)."""
        return int(self.payloads.shape[1])


def split_file(
    data: bytes | bytearray | np.ndarray,
    batch_size: int = DEFAULT_BATCH_SIZE,
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> list[Batch]:
    """Split a byte stream into batches of native packets.

    The final packet of the final batch is zero-padded to ``packet_size`` and
    the final batch may contain fewer than ``batch_size`` packets, exactly as
    a real transfer would (the paper notes K may vary between batches).

    Args:
        data: the file contents.
        batch_size: K, packets per batch.
        packet_size: payload bytes per packet.

    Returns:
        The ordered list of batches covering ``data``.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if packet_size <= 0:
        raise ValueError("packet_size must be positive")
    flat = (np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray))
            else np.asarray(data, dtype=np.uint8).reshape(-1))
    # The whole file, padded once: every batch is a block of its rows.
    packets = np.zeros((-(-flat.size // packet_size), packet_size), dtype=np.uint8)
    packets.reshape(-1)[:flat.size] = flat
    return [Batch(batch_id, packets[start:start + batch_size])
            for batch_id, start in enumerate(range(0, len(packets), batch_size))]


def make_batch(
    batch_size: int = DEFAULT_BATCH_SIZE,
    packet_size: int = DEFAULT_PACKET_SIZE,
    rng: np.random.Generator | None = None,
    batch_id: int = 0,
) -> Batch:
    """Create a batch filled with random payload bytes.

    One draw.  ``integers(0, 256, dtype=uint8)`` fills its bytes from whole
    32-bit words and drops the rest of the last one, so rows drawn padded to
    whole words and then cut are the bytes — and leave the generator state —
    of one draw per native.
    """
    generator = rng if rng is not None else np.random.default_rng(0)
    padded = 4 * -(-packet_size // 4)
    payloads = generator.integers(0, 256, size=(batch_size, padded), dtype=np.uint8)
    return Batch(batch_id, payloads[:, :packet_size])
