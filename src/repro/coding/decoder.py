"""Destination-side batch decoder.

The destination collects innovative packets and, once it has K of them,
recovers the native packets by solving the K x K linear system of code
vectors (Section 3.1.3).  Two implementations are provided:

* :class:`BatchDecoder` — the production decoder, built on
  :class:`~repro.coding.buffer.BatchBuffer`, which performs incremental
  Gauss–Jordan elimination per arrival.  The payload back-substitution is
  deferred: inserts touch code vectors (plus the transform columns) only,
  and :meth:`BatchDecoder.decode` materialises all K native payloads with a
  single batched product through the raw slots' own operand, into one
  ``(K, S)`` matrix.
* :func:`decode_by_inversion` — the literal matrix-inversion formulation
  from the paper: the decode oracle the tests hold :class:`BatchDecoder`
  to.  Nothing at run time calls it.
"""

from __future__ import annotations

import numpy as np

from repro.coding.buffer import BatchBuffer
from repro.coding.packet import CodedPacket
from repro.gf.kernels import gf_matmul
from repro.gf.matrix import invert


class BatchDecoder:
    """Collects coded packets of one batch and decodes once full rank."""

    def __init__(self, batch_size: int, packet_size: int, batch_id: int = 0) -> None:
        self.batch_id = batch_id
        self.buffer = BatchBuffer(batch_size, packet_size)

    @property
    def rank(self) -> int:
        """Number of innovative packets received so far."""
        return self.buffer.rank

    @property
    def batch_size(self) -> int:
        """K, the number of packets needed to decode."""
        return self.buffer.batch_size

    @property
    def is_complete(self) -> bool:
        """True once K innovative packets have been received."""
        return self.buffer.is_full

    def add_packet(self, packet: CodedPacket) -> bool:
        """Insert a received packet; returns True iff it was innovative."""
        return self.buffer.add(packet)

    def decode(self) -> np.ndarray:
        """Recover the native packets: the batch's ``(K, S)`` payload matrix,
        row ``i`` native packet ``i``.

        Raises:
            RuntimeError: if fewer than K innovative packets were received.
        """
        return self.buffer.decode()


def decode_by_inversion(packets: list[CodedPacket]) -> np.ndarray:
    """Decode a batch by explicit matrix inversion (reference implementation).

    Args:
        packets: exactly K coded packets with linearly independent code
            vectors.

    Returns:
        A K x S matrix whose rows are the native payloads in order.

    Raises:
        ValueError: if the packet count does not equal the batch size.
        SingularMatrixError: if the code vectors are linearly dependent.
    """
    if not packets:
        raise ValueError("no packets to decode")
    batch_size = packets[0].batch_size
    if len(packets) != batch_size:
        raise ValueError(
            f"decode_by_inversion needs exactly K={batch_size} packets, got {len(packets)}"
        )
    coefficients = np.stack([np.frombuffer(p.code_vector, dtype=np.uint8)
                             for p in packets])
    payloads = np.stack([p.payload for p in packets])
    return gf_matmul(invert(coefficients), payloads)
