"""Random linear encoders for MORE sources and forwarders.

Two encoders are provided:

* :class:`SourceEncoder` — codes over the K native packets of the current
  batch (Section 3.1.1).  Every transmission is a fresh random linear
  combination ``p' = sum_i c_i p_i``; :meth:`SourceEncoder.next_packets`
  produces N combinations with a single ``(N, K) @ (K, S)`` kernel call.
* :class:`ForwarderEncoder` — codes over the innovative coded packets a
  forwarder has buffered (Section 3.1.2) and additionally implements the
  *pre-coding* optimisation of Section 3.2.3(c): a combination is prepared
  ahead of the transmission opportunity and incrementally updated when new
  innovative packets arrive, so no coding delay is inserted in front of a
  transmission.

Both encoders draw their combination coefficients from a
:class:`~repro.gf.arithmetic.CoefficientStream` — the node's coding
generator, read in blocks — whose ``code_vector`` is the shared guard that
re-draws the (astronomically unlikely) all-zero vector so every transmitted
packet carries information.  The stream is handed in, never made here: a
node's encoders (every flow it sources or relays) share the one stream that
owns the node's generator.

Ownership invariant, in its deferred form: ``next_packet`` hands out the
code vector plus the *recipe* for the bytes — the sender's own
:class:`~repro.coding.packet.PayloadRows` and one coefficient row over them
— and the product runs when the packet's ``payload`` is first read (a
packet nobody stores never runs it).  Whenever that is, the bytes equal the
product taken at the hand-out: the code vector and the coefficient row are
immutable ``bytes``, the row covers the rows filled by then, filled rows
never change (natives are fixed; a forwarder's raw slots are append-only),
and a flush continues on fresh rows rather than zeroing the ones unread
packets still point at.  So neither later ``add_packet`` calls, nor
hand-outs, nor ``reset`` can reach a packet already given to the MAC layer.
Every sender derives bytes from what it holds — a forwarder from its raw
slots, never from the source's natives — so a decoded file verifies the
re-coding along the whole path.
"""

from __future__ import annotations

import numpy as np

from repro.coding.buffer import BatchBuffer
from repro.coding.packet import Batch, CodedPacket, PayloadRows
from repro.gf.arithmetic import CoefficientStream
from repro.gf.tables import MUL_ROWS


class SourceEncoder:
    """Generates random linear combinations of a batch's native packets."""

    def __init__(self, batch: Batch, stream: CoefficientStream) -> None:
        if batch.size == 0:
            raise ValueError("cannot encode an empty batch")
        self.batch = batch
        self.stream = stream
        # The batch payloads never change: every packet's bytes are one
        # product against these rows, whenever it is asked for.
        self._rows = PayloadRows(batch.size, batch.packet_size)
        self._rows.matrix[:] = batch.payloads
        self.packets_generated = 0

    @property
    def batch_size(self) -> int:
        """K, the number of native packets coded over."""
        return self.batch.size

    @property
    def payloads_built(self) -> int:
        """How many of the generated packets had their bytes computed."""
        return self._rows.built

    def next_packet(self) -> CodedPacket:
        """Produce a fresh coded packet over all K native packets.

        One code-vector draw per transmission, exactly as
        :meth:`next_packets` draws it; the ``vector @ B`` kernel call waits
        for the first read of the packet's payload.
        """
        coefficients = self.stream.code_vector(self.batch.size)
        self.packets_generated += 1
        # At the source the code vector is itself the row over the natives.
        return CodedPacket.deferred(coefficients, self._rows, coefficients,
                                    batch_id=self.batch.batch_id)

    def next_packets(self, count: int) -> list[CodedPacket]:
        """Produce ``count`` fresh coded packets with one batched kernel call.

        The coefficient rows are drawn exactly as ``count`` sequential
        :meth:`next_packet` calls would draw them (one vector per call, with
        the all-zero re-draw guard), so the two paths are bit-identical from
        the same stream position.  This is the eager form — every payload is
        built here, in one product — and the oracle deferred packets are
        tested against.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        vectors = [self.stream.code_vector(self.batch_size) for _ in range(count)]
        coefficients = np.frombuffer(b"".join(vectors), dtype=np.uint8)
        payloads = self._rows.matmul(coefficients.reshape(count, self.batch_size))
        self.packets_generated += count
        # The payload matrix was allocated for this call alone, so the
        # packets can own their rows outright — no defensive copy needed.
        return [
            CodedPacket.from_owned(vector, payload, batch_id=self.batch.batch_id)
            for vector, payload in zip(vectors, payloads)
        ]


class ForwarderEncoder:
    """Re-codes buffered innovative packets, with pre-coding support.

    The encoder owns a :class:`BatchBuffer`.  ``add_packet`` inserts a heard
    packet; if it is innovative it is also folded into the pre-coded packet
    so the next transmission reflects everything the node knows.

    The pre-coded packet is kept as the one ``[code | mix]`` int row
    :meth:`BatchBuffer.combine_rows` produces: its code vector in the low K
    bytes, and its bytes as coefficients over the buffer's raw payload slots
    in the K above them.
    """

    def __init__(self, batch_size: int, packet_size: int, stream: CoefficientStream,
                 batch_id: int = 0) -> None:
        self.buffer = BatchBuffer(batch_size, packet_size)
        self.stream = stream
        self.batch_id = batch_id
        self._precoded: int | None = None
        #: The code half of a row: its low K bytes.
        self._code_mask = (1 << (8 * batch_size)) - 1
        #: Bit offset of raw slot 0 in a row, or None when no payload bytes
        #: (and so no mix) are kept.
        self._slot_shift = 8 * batch_size if packet_size else None
        self.packets_generated = 0

    @property
    def rank(self) -> int:
        """Number of innovative packets buffered."""
        return self.buffer.rank

    @property
    def payloads_built(self) -> int:
        """How many of the generated packets had their bytes computed."""
        return self.buffer.raw.built

    def add_packet(self, packet: CodedPacket) -> bool:
        """Insert a heard packet; returns True iff it was innovative.

        Innovative arrivals are multiplied by a fresh random coefficient and
        added to the pre-coded packet (Section 3.2.3(c)), keeping it current
        without recomputing the whole combination: the arrival's bytes sit
        untouched in the raw slot it was just given, so folding them in is
        writing the coefficient at that slot of the mix.
        """
        innovative = self.buffer.add(packet)
        if innovative:
            precoded = self._precoded
            if precoded is None:
                self._start_precode()
                return True
            coefficient = self.stream.nonzero_coefficient()
            precoded ^= int.from_bytes(
                packet.code_vector.translate(MUL_ROWS[coefficient]), "little")
            if self._slot_shift is not None:
                precoded ^= coefficient << (self._slot_shift + 8 * (self.buffer.rank - 1))
            if precoded & self._code_mask:
                self._precoded = precoded
            else:
                # Degenerate fold: cannot happen when the arrival was
                # genuinely innovative (an independent vector never cancels
                # the stored combination), but re-code from the buffer
                # rather than ever transmitting a zero vector.
                self._start_precode()
        return innovative

    def _start_precode(self) -> None:
        """Build a pre-coded packet from scratch over the current buffer.

        One combination vector is drawn over the buffered rows (with the
        shared all-zero re-draw guard) and applied as a single ``(1, r) @
        (r, K + r)`` combination.  The buffered rows are linearly
        independent, so any non-zero combination yields a non-zero code
        vector.
        """
        if self.buffer.rank == 0:
            self._precoded = None
            return
        coefficients = self.stream.code_vector(self.buffer.rank)
        self._precoded = self.buffer.combine_rows(coefficients)

    def has_data(self) -> bool:
        """True if the forwarder has anything to transmit."""
        return self.buffer.rank > 0

    def next_packet(self) -> CodedPacket:
        """Hand out the pre-coded packet and immediately prepare a new one.

        Raises:
            RuntimeError: if no innovative packet has been buffered yet.
        """
        if self._precoded is None:
            self._start_precode()
        precoded = self._precoded
        if precoded is None:
            raise RuntimeError("forwarder has no buffered packets to code over")
        # The packet's code vector and coefficient row are bytes cut from
        # the int row, so nothing the encoder does afterwards (add_packet
        # folds, re-coding) can reach them.  The mix is cut to the raw slots
        # filled so far: what the packet's bytes are made of, whatever the
        # buffer admits before they are read.
        buffer = self.buffer
        row = precoded.to_bytes(buffer.width, "little")
        batch_size = buffer.batch_size
        packet = CodedPacket.deferred(row[:batch_size], buffer.raw,
                                      row[batch_size:batch_size + buffer.rank],
                                      batch_id=self.batch_id)
        self._precoded = None
        self.packets_generated += 1
        # As soon as the transmission starts, pre-code the next packet
        # (Section 3.3.3, sender side).
        self._start_precode()
        return packet

    def reset(self, batch_id: int | None = None) -> None:
        """Flush buffered packets (batch acked or superseded)."""
        self.buffer.clear()
        self._precoded = None
        if batch_id is not None:
            self.batch_id = batch_id
