"""MORE packet header (Section 3.3.1, Figure 3-1).

Every MORE packet starts with a small set of required fields (type, source,
destination, flow id, batch id) followed by optional fields: the code vector
(data packets only) and the forwarder list with per-forwarder TX credits.

The paper bounds the header at roughly 70 bytes by limiting the forwarder
list to 10 entries, hashing node ids to one byte and compressing batch ids;
this implementation reproduces those field widths so the <5% header-overhead
claim of Section 4.6(c) can be checked against real serialised bytes.  It
does not hash: :meth:`MoreHeader.pack` refuses a node id or K that does not
fit its byte.

The simulator builds no header per frame: a data frame carries its
:class:`~repro.coding.packet.CodedPacket` (code vector and batch id) and
its flow id, and a plan's one representative header
(:meth:`~repro.protocols.more.flow.MoreFlowHandle.replan`) decides the
forwarder list every frame would carry and the frame's size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

#: Maximum number of forwarders carried in a header (Section 4.6(c)).
MAX_FORWARDERS = 10

#: Largest batch size K the header can carry: K has one byte.
MAX_BATCH_SIZE = 0xFF

#: Fixed-point scale used to quantise TX credits into one byte (4.4 format).
CREDIT_SCALE = 16


def _one_byte(name: str, value: int) -> int:
    """``value``, which must fit the one byte the header gives ``name``."""
    if not 0 <= value <= 0xFF:
        raise ValueError(f"{name} {value} does not fit the header's one-byte field")
    return value


class MorePacketType(IntEnum):
    """Packet type field: data packets vs batch ACKs."""

    DATA = 0
    ACK = 1


@dataclass
class ForwarderEntry:
    """One forwarder-list entry: node id plus its TX credit."""

    node_id: int
    tx_credit: float

    def quantized_credit(self) -> int:
        """Credit quantised to 4.4 fixed point (saturating)."""
        return min(255, max(0, int(round(self.tx_credit * CREDIT_SCALE))))


@dataclass(slots=True)
class MoreHeader:
    """The MORE header of a data packet or batch ACK, as it goes on the wire.

    Attributes:
        packet_type: DATA or ACK.
        source: source node id of the flow.
        destination: destination node id of the flow.
        flow_id: flow identifier.
        batch_id: batch the packet belongs to.
        code_vector: combination coefficients, one byte each (data packets
            only).
        forwarders: the forwarder list with TX credits, ordered by
            increasing distance (ETX) to the destination.
    """

    packet_type: MorePacketType
    source: int
    destination: int
    flow_id: int
    batch_id: int
    code_vector: bytes | None = None
    forwarders: list[ForwarderEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.forwarders) > MAX_FORWARDERS:
            # Keep the closest-to-destination forwarders (list is ordered).
            self.forwarders = self.forwarders[:MAX_FORWARDERS]
        if self.code_vector is not None:
            if not isinstance(self.code_vector, (bytes, bytearray)):
                raise TypeError("code vector must be bytes, "
                                f"got {type(self.code_vector).__name__}")
            self.code_vector = bytes(self.code_vector)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    _REQUIRED = struct.Struct("!BIIHBBB")  # type, src, dst, flow, batch, K, n_fwd

    def pack(self) -> bytes:
        """Serialise the header to bytes.

        Raises:
            ValueError: if K or a forwarder's node id does not fit its one
                byte, where it would come back as another value.
        """
        vector = self.code_vector if self.code_vector is not None else b""
        parts = [
            self._REQUIRED.pack(
                int(self.packet_type),
                self.source & 0xFFFFFFFF,
                self.destination & 0xFFFFFFFF,
                self.flow_id & 0xFFFF,
                self.batch_id & 0xFF,
                _one_byte("K", len(vector)),
                len(self.forwarders) & 0xFF,
            ),
            vector,
        ]
        for entry in self.forwarders:
            parts.append(struct.pack("!BB", _one_byte("forwarder node id", entry.node_id),
                                     entry.quantized_credit()))
        return b"".join(parts)

    @classmethod
    def unpack(cls, data: bytes) -> "MoreHeader":
        """Parse a header previously produced by :meth:`pack`."""
        required_size = cls._REQUIRED.size
        if len(data) < required_size:
            raise ValueError("buffer too small for a MORE header")
        (packet_type, source, destination, flow_id, batch_id,
         vector_length, forwarder_count) = cls._REQUIRED.unpack_from(data, 0)
        offset = required_size
        vector = None
        if vector_length:
            vector = bytes(data[offset:offset + vector_length])
            if len(vector) != vector_length:
                raise ValueError("buffer too small for the header's code vector")
            offset += vector_length
        forwarders = []
        for _ in range(forwarder_count):
            node_id, credit = struct.unpack_from("!BB", data, offset)
            offset += 2
            forwarders.append(ForwarderEntry(node_id=node_id, tx_credit=credit / CREDIT_SCALE))
        return cls(
            packet_type=MorePacketType(packet_type),
            source=source,
            destination=destination,
            flow_id=flow_id,
            batch_id=batch_id,
            code_vector=vector,
            forwarders=forwarders,
        )

    def size_bytes(self) -> int:
        """Serialised header size in bytes."""
        vector_length = 0 if self.code_vector is None else len(self.code_vector)
        return self._REQUIRED.size + vector_length + 2 * len(self.forwarders)

    def overhead_fraction(self, payload_bytes: int) -> float:
        """Header overhead as a fraction of the packet (Section 4.6(c))."""
        total = self.size_bytes() + payload_bytes
        return self.size_bytes() / total if total else 0.0

    def forwarder_ids(self) -> list[int]:
        """Node ids in the forwarder list, in priority order."""
        return [entry.node_id for entry in self.forwarders]
