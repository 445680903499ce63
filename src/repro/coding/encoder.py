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

Both encoders draw their combination coefficients through
:func:`repro.gf.arithmetic.random_code_vector`, the shared guard that
re-draws the (astronomically unlikely) all-zero vector so every transmitted
packet carries information.

Ownership invariant: a :class:`~repro.coding.packet.CodedPacket` handed out
by ``next_packet`` / ``next_packets`` never aliases encoder-internal state —
the arrays a packet carries were allocated for it and the encoder keeps no
reference to them, so later ``add_packet`` calls (which update the
pre-coded combination in place) cannot mutate a packet already given to
the MAC layer.  The forwarder hands its pre-coded arrays over and drops its
own references before re-coding.
"""

from __future__ import annotations

import numpy as np

from repro.coding.buffer import BatchBuffer
from repro.coding.packet import Batch, CodedPacket
from repro.gf.arithmetic import (
    random_code_vector,
    random_nonzero_coefficient,
    scale_and_add,
)
from repro.gf.kernels import ShiftedRows


class SourceEncoder:
    """Generates random linear combinations of a batch's native packets."""

    def __init__(self, batch: Batch, rng: np.random.Generator) -> None:
        if batch.size == 0:
            raise ValueError("cannot encode an empty batch")
        self.batch = batch
        self.rng = rng
        self._payloads = batch.payload_matrix()
        # The batch payloads never change, so the coding operand is built
        # once (on first use — sources hold encoders for future batches too)
        # and every coded packet afterwards is a single XOR-reduce.
        self._operand: ShiftedRows | None = None
        self.packets_generated = 0

    @property
    def batch_size(self) -> int:
        """K, the number of native packets coded over."""
        return self.batch.size

    def next_packet(self) -> CodedPacket:
        """Produce a fresh coded packet over all K native packets.

        The single-packet form of :meth:`next_packets` (same draws, same
        arithmetic), without the batch-matrix scaffolding: one code-vector
        draw and one ``vector @ B`` kernel call per transmission.
        """
        if self._operand is None:
            self._operand = ShiftedRows(self._payloads)
        coefficients = random_code_vector(self.batch.size, self.rng)
        payload = self._operand.vecmul(coefficients)
        self.packets_generated += 1
        return CodedPacket.from_owned(coefficients, payload,
                                      batch_id=self.batch.batch_id)

    def next_packets(self, count: int) -> list[CodedPacket]:
        """Produce ``count`` fresh coded packets with one batched kernel call.

        The coefficient rows are drawn exactly as ``count`` sequential
        :meth:`next_packet` calls would draw them (one vector per call, with
        the all-zero re-draw guard), so the two paths are bit-identical for
        the same RNG state; only the payload arithmetic is batched.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        coefficients = np.empty((count, self.batch_size), dtype=np.uint8)
        for i in range(count):
            coefficients[i] = random_code_vector(self.batch_size, self.rng)
        if self._operand is None:
            self._operand = ShiftedRows(self._payloads)
        payloads = self._operand.matmul(coefficients)
        self.packets_generated += count
        # Both matrices were allocated for this call alone, so the packets
        # can own their rows outright — no defensive copy needed.
        return [
            CodedPacket.from_owned(coefficients[i], payloads[i],
                                   batch_id=self.batch.batch_id)
            for i in range(count)
        ]


class ForwarderEncoder:
    """Re-codes buffered innovative packets, with pre-coding support.

    The encoder owns a :class:`BatchBuffer`.  ``add_packet`` inserts a heard
    packet; if it is innovative it is also folded into the pre-coded packet
    so the next transmission reflects everything the node knows.
    """

    def __init__(self, batch_size: int, packet_size: int, rng: np.random.Generator,
                 batch_id: int = 0) -> None:
        self.buffer = BatchBuffer(batch_size, packet_size)
        self.rng = rng
        self.batch_id = batch_id
        self._precoded_vector: np.ndarray | None = None
        self._precoded_payload: np.ndarray | None = None
        self.packets_generated = 0

    @property
    def rank(self) -> int:
        """Number of innovative packets buffered."""
        return self.buffer.rank

    def add_packet(self, packet: CodedPacket) -> bool:
        """Insert a heard packet; returns True iff it was innovative.

        Innovative arrivals are multiplied by a fresh random coefficient and
        added to the pre-coded packet (Section 3.2.3(c)), keeping it current
        without recomputing the whole combination.
        """
        innovative = self.buffer.add(packet)
        if innovative:
            if self._precoded_vector is None:
                self._start_precode()
            else:
                coefficient = random_nonzero_coefficient(self.rng)
                scale_and_add(self._precoded_vector, packet.code_vector, coefficient)
                scale_and_add(self._precoded_payload, packet.payload, coefficient)
                if not self._precoded_vector.any():
                    # Degenerate fold: cannot happen when the arrival was
                    # genuinely innovative (an independent vector never
                    # cancels the stored combination), but re-code from the
                    # buffer rather than ever transmitting a zero vector.
                    self._start_precode()
        return innovative

    def _start_precode(self) -> None:
        """Build a pre-coded packet from scratch over the current buffer.

        One combination vector is drawn over the buffered rows (with the
        shared all-zero re-draw guard) and applied as a single ``(1, r) @
        (r, K)`` kernel product.  The buffered rows are linearly
        independent, so any non-zero combination yields a non-zero code
        vector.
        """
        if self.buffer.rank == 0:
            self._precoded_vector = None
            self._precoded_payload = None
            return
        coefficients = random_code_vector(self.buffer.rank, self.rng)
        # Combine through the deferred transform without materialising (and
        # copying) the reduced payload matrix.
        self._precoded_vector, self._precoded_payload = \
            self.buffer.combine_rows(coefficients)

    def has_data(self) -> bool:
        """True if the forwarder has anything to transmit."""
        return self.buffer.rank > 0

    def next_packet(self) -> CodedPacket:
        """Hand out the pre-coded packet and immediately prepare a new one.

        Raises:
            RuntimeError: if no innovative packet has been buffered yet.
        """
        if self._precoded_vector is None or self._precoded_payload is None:
            self._start_precode()
        if self._precoded_vector is None or self._precoded_payload is None:
            raise RuntimeError("forwarder has no buffered packets to code over")
        # The pre-coded arrays were allocated by ``combine_rows`` for this
        # packet alone; the packet takes them and the encoder drops its
        # references, so nothing it does afterwards (add_packet folds,
        # re-coding) can alias the packet now owned by the caller.
        packet = CodedPacket.from_owned(self._precoded_vector, self._precoded_payload,
                                        batch_id=self.batch_id)
        self._precoded_vector = None
        self._precoded_payload = None
        self.packets_generated += 1
        # As soon as the transmission starts, pre-code the next packet
        # (Section 3.3.3, sender side).
        self._start_precode()
        return packet

    def reset(self, batch_id: int | None = None) -> None:
        """Flush buffered packets (batch acked or superseded)."""
        self.buffer.clear()
        self._precoded_vector = None
        self._precoded_payload = None
        if batch_id is not None:
            self.batch_id = batch_id
