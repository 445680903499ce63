"""Constructor and input validation of the coding buffer.

The property/differential suites drive well-formed streams; these tests
pin the rejection paths — bad constructor arguments, mismatched operand
shapes, payload bytes handed to a payload-free buffer — which must be refused
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
    vector = bytearray(K)
    for index, value in vector_bytes.items():
        vector[index] = value
    return CodedPacket(code_vector=bytes(vector),
                       payload=np.arange(payload_size, dtype=np.uint8))


def _unit(index):
    """The code vector of native ``index`` alone."""
    return bytes(K)[:index] + b"\x01" + bytes(K - index - 1)


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
    bad = CodedPacket(code_vector=b"\x01" * (K + 1),
                      payload=np.zeros(S, dtype=np.uint8))
    with pytest.raises(ValueError, match="code vector length"):
        buffer.add(bad)
    assert (buffer.rank, buffer.received, buffer.innovative) == (0, 0, 0)
    # ... and what it is given afterwards is counted from zero.
    assert buffer.add(_packet({0: 1}))
    assert (buffer.rank, buffer.received, buffer.innovative) == (1, 1, 1)


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
        buffer.is_innovative(b"\x01" * (K + 1))


@BUFFER
def test_is_innovative_without_insertion(make_buffer):
    buffer = make_buffer(batch_size=K, packet_size=S)
    assert not buffer.is_innovative(bytes(K))
    assert buffer.is_innovative(b"\x01" * K)

    buffer.add(_packet({0: 1}))
    seen = buffer.coefficient_matrix()[0].tobytes()
    assert not buffer.is_innovative(seen)
    assert buffer.is_innovative(b"\x01" * K)
    assert buffer.rank == 1  # the probe inserted nothing


@BUFFER
def test_width_zero_buffer_keeps_code_vectors_only(make_buffer):
    """Width 0 is the one way to keep no payload bytes: a sized packet is
    refused in one line, and innovation verdicts match a buffer with bytes."""
    vectors = np.random.default_rng(5).integers(0, 256, (2 * K, K), dtype=np.uint8)
    vectors[3] = vectors[1] ^ vectors[2]  # non-innovative, yet non-zero
    vectors[4] = 0
    sized = make_buffer(batch_size=K, packet_size=S)
    bare = make_buffer(batch_size=K, packet_size=0)
    with pytest.raises(ValueError, match="payload length 16 does not match") as refused:
        bare.add(CodedPacket(code_vector=vectors[0].tobytes(),
                             payload=np.zeros(S, dtype=np.uint8)))
    assert "\n" not in str(refused.value)
    assert (bare.rank, bare.received) == (0, 0)
    for vector in map(np.ndarray.tobytes, vectors):
        assert bare.is_innovative(vector) == sized.is_innovative(vector)
        assert bare.add(CodedPacket(code_vector=vector, payload=b"")) == \
            sized.add(CodedPacket(code_vector=vector, payload=np.zeros(S, dtype=np.uint8)))
    assert bare.rank == sized.rank == K
    assert bare.payload_matrix().shape == (K, 0)
    np.testing.assert_array_equal(bare.coefficient_matrix(), sized.coefficient_matrix())


@BUFFER
def test_payload_free_buffer_refuses_combine_over_empty(make_buffer):
    buffer = make_buffer(batch_size=K, packet_size=0)
    with pytest.raises(RuntimeError, match="empty buffer"):
        buffer.combine_rows(b"")
    buffer.add(CodedPacket(code_vector=_unit(2), payload=b""))
    with pytest.raises(ValueError, match="expected 1 combination coefficients"):
        buffer.combine_rows(b"\x01\x01")
    assert (buffer.rank, buffer.received, buffer.innovative) == (1, 1, 1)


@BUFFER
def test_width_zero_combine_rows_has_empty_mix(make_buffer):
    """At width 0 a re-coded packet is its code vector: the combined row has
    no mix half over raw payload slots, and an empty mix builds no bytes."""
    buffer = make_buffer(batch_size=K, packet_size=0)
    for unit in (1, 5):
        buffer.add(CodedPacket(code_vector=_unit(unit), payload=b""))
    combined = buffer.combine_rows(bytes([3, 7]))
    expected = np.zeros(K, dtype=np.uint8)
    expected[[1, 5]] = (3, 7)
    assert buffer.width == K
    assert combined.to_bytes(K, "little") == expected.tobytes()
    assert buffer.raw.combine(b"").shape == (0,)


@pytest.mark.parametrize("vector", [np.zeros(4, dtype=np.uint8),
                                    np.zeros((2, 2), dtype=np.uint8), [0, 1, 2, 3]],
                         ids=["array", "2-D array", "list"])
def test_code_vector_must_be_bytes(vector):
    """A code vector is K header bytes: anything else is refused at the
    constructor, rather than read through the buffer protocol at another
    width."""
    with pytest.raises(TypeError, match="code vector must be bytes"):
        CodedPacket(code_vector=vector, payload=np.zeros(4, dtype=np.uint8))
