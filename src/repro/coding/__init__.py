"""Intra-flow random linear network coding (MORE Chapter 3)."""

from repro.coding.buffer import BatchBuffer
from repro.coding.decoder import BatchDecoder, decode_by_inversion
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_PACKET_SIZE,
    Batch,
    CodedPacket,
    make_batch,
    split_file,
)

__all__ = [
    "Batch",
    "BatchBuffer",
    "BatchDecoder",
    "CodedPacket",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_PACKET_SIZE",
    "ForwarderEncoder",
    "SourceEncoder",
    "decode_by_inversion",
    "make_batch",
    "split_file",
]
