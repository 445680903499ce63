"""Constructor and input validation of the coding buffer.

The property/differential suites drive well-formed streams; these tests
pin the rejection paths — bad constructor arguments, mismatched operand
shapes, payload access on payload-free buffers — which must be refused
before any state mutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.buffer import BatchBuffer
from repro.coding.packet import CodedPacket

K = 8
S = 16

#: The buffer under test, reported under the id it has always had.
BUFFER = pytest.mark.parametrize("make_buffer", [BatchBuffer], ids=["vectorized"])


def _packet(vector_bytes, payload_size=S):
    vector = np.zeros(K, dtype=np.uint8)
    for index, value in vector_bytes.items():
        vector[index] = value
    return CodedPacket(code_vector=vector,
                       payload=np.arange(payload_size, dtype=np.uint8))


def test_batch_size_must_be_positive():
    with pytest.raises(ValueError, match="batch_size"):
        BatchBuffer(batch_size=0, packet_size=S)


def test_packet_size_must_be_non_negative():
    with pytest.raises(ValueError, match="packet_size"):
        BatchBuffer(batch_size=K, packet_size=-1)


def test_unknown_engine_is_rejected():
    """There is one insertion engine: the buffer takes no selector for it."""
    for selector in ("engine", "fast"):
        with pytest.raises(TypeError):
            BatchBuffer(batch_size=K, packet_size=S, **{selector: "gpu"})


def test_unknown_kernel_is_rejected():
    """... and one elimination kernel."""
    with pytest.raises(TypeError):
        BatchBuffer(batch_size=K, packet_size=S, kernel="simd")


@BUFFER
def test_mismatched_payload_length_is_rejected(make_buffer):
    buffer = make_buffer(batch_size=K, packet_size=S)
    bad = _packet({0: 1}, payload_size=S + 3)
    with pytest.raises(ValueError, match="payload length"):
        buffer.add(bad)
    # Rejected before any state mutation: a refused packet is not counted.
    assert (buffer.rank, buffer.received, buffer.innovative) == (0, 0, 0)


@BUFFER
def test_mismatched_code_vector_length_is_rejected(make_buffer):
    buffer = make_buffer(batch_size=K, packet_size=S)
    bad = CodedPacket(code_vector=np.ones(K + 1, dtype=np.uint8),
                      payload=np.zeros(S, dtype=np.uint8))
    with pytest.raises(ValueError, match="code vector length"):
        buffer.add(bad)
    assert (buffer.rank, buffer.received, buffer.innovative) == (0, 0, 0)
    # ... and what it is given afterwards is counted from zero.
    assert buffer.add(_packet({0: 1}))
    assert (buffer.rank, buffer.received, buffer.innovative) == (1, 1, 1)


@BUFFER
def test_payload_matrix_requires_payload_tracking(make_buffer):
    buffer = make_buffer(batch_size=K, packet_size=0, track_payloads=False)
    with pytest.raises(RuntimeError, match="without payload tracking"):
        buffer.payload_matrix()
    with pytest.raises(RuntimeError):
        buffer.decode()


@BUFFER
def test_decode_before_full_rank_is_an_error(make_buffer):
    buffer = make_buffer(batch_size=K, packet_size=S)
    buffer.add(_packet({0: 1}))
    with pytest.raises(RuntimeError):
        buffer.decode()


@BUFFER
def test_is_innovative_validates_vector_length(make_buffer):
    buffer = make_buffer(batch_size=K, packet_size=S)
    with pytest.raises(ValueError, match="length"):
        buffer.is_innovative(np.ones(K + 1, dtype=np.uint8))


@BUFFER
def test_is_innovative_without_insertion(make_buffer):
    buffer = make_buffer(batch_size=K, packet_size=S)
    zero = np.zeros(K, dtype=np.uint8)
    assert not buffer.is_innovative(zero)
    assert buffer.is_innovative(np.ones(K, dtype=np.uint8))

    buffer.add(_packet({0: 1}))
    seen = buffer.coefficient_matrix()[0]
    assert not buffer.is_innovative(seen)
    assert buffer.is_innovative(np.ones(K, dtype=np.uint8))
    assert buffer.rank == 1  # the probe inserted nothing


@BUFFER
def test_stored_packets_without_payload_tracking_are_zero_padded(make_buffer):
    buffer = make_buffer(batch_size=K, packet_size=S, track_payloads=False)
    vector = np.zeros(K, dtype=np.uint8)
    vector[2] = 7
    buffer.add(CodedPacket(code_vector=vector,
                           payload=np.zeros(0, dtype=np.uint8)))
    (stored,) = buffer.stored_packets()
    assert stored.payload.shape == (S,)
    assert not stored.payload.any()


def test_code_vector_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        CodedPacket(code_vector=np.zeros((2, 2), dtype=np.uint8),
                    payload=np.zeros(4, dtype=np.uint8))
