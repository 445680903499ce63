"""Property-based differential tests of the coding buffer.

:class:`repro.coding.buffer.BatchBuffer` (deferred-transform insertion) and
the test-local ``ScalarBatchBuffer`` oracle (the per-row Python-loop
Gauss–Jordan of ``test_vectorized_differential.py``) implement the same
incremental Gauss–Jordan over GF(2^8), which is exact arithmetic: they
must agree **bit for bit** on every observable at every step, not merely
converge to the same decode.

The harness replays ≥200 deterministic seeded-random insertion streams
(8 parametrized groups x 25 seeds) through the buffer and the oracle in
lockstep.  Streams are drawn adversarially: batch sizes down to K=1,
payload widths including S=0 and S=1, rank-deficient streams confined to a
random d-dimensional subspace (d < K never reaches full rank), duplicate
re-insertions of earlier packets, linear combinations of earlier packets
(non-innovative but non-zero) and all-zero code vectors.
Payloads are always consistent codewords of one ground-truth native set,
so full-rank streams additionally check ``decode()`` against the natives
— the end-to-end correctness anchor.

Asserted per insertion: the innovative verdict.  Asserted per stream:
rank, received/innovative counters, the reduced coefficient matrix, the
payload matrix and (at full rank) the decoded natives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.buffer import BatchBuffer
from repro.coding.packet import CodedPacket
from repro.gf.kernels import gf_vecmat
from test_vectorized_differential import ScalarBatchBuffer

#: The buffer under test, reported under the id it has always had.
BUFFER = pytest.mark.parametrize("make_buffer", [BatchBuffer], ids=["vectorized-mul"])

GROUPS = 8
SEEDS_PER_GROUP = 25  # 8 x 25 = 200 cases per run


def _make_stream(rng: np.random.Generator):
    """One adversarial insertion stream with consistent codeword payloads.

    Returns ``(batch_size, packet_size, natives, packets)`` where every
    packet's payload equals ``code_vector @ natives`` and the code vectors
    span a random d-dimensional subspace (d <= K).
    """
    batch_size = int(rng.choice([1, 2, 3, 8, 16, 32]))
    packet_size = int(rng.choice([0, 1, 17]))
    natives = rng.integers(0, 256, size=(batch_size, packet_size), dtype=np.uint8)
    dimension = int(rng.integers(1, batch_size + 1))
    basis = rng.integers(0, 256, size=(dimension, batch_size), dtype=np.uint8)

    packets: list[CodedPacket] = []
    length = dimension + int(rng.integers(2, 7))
    while len(packets) < length:
        kind = rng.random()
        if kind < 0.1 and packets:
            # Exact duplicate of an earlier packet (already-seen row).
            earlier = packets[int(rng.integers(0, len(packets)))]
            packets.append(CodedPacket(code_vector=earlier.code_vector,
                                       payload=earlier.payload))
            continue
        if kind < 0.2 and len(packets) >= 2:
            # GF-sum of two earlier packets: non-zero yet non-innovative.
            first = packets[int(rng.integers(0, len(packets)))]
            second = packets[int(rng.integers(0, len(packets)))]
            vector = bytes(a ^ b for a, b in zip(first.code_vector, second.code_vector))
            payload = first.payload ^ second.payload
            packets.append(CodedPacket(code_vector=vector, payload=payload))
            continue
        if kind < 0.3:
            coefficients = np.zeros(dimension, dtype=np.uint8)  # zero vector
        else:
            coefficients = rng.integers(0, 256, size=dimension, dtype=np.uint8)
        vector = gf_vecmat(coefficients, basis)
        payload = gf_vecmat(vector, natives)
        packets.append(CodedPacket(code_vector=vector.tobytes(), payload=payload))
    return batch_size, packet_size, natives, packets


def _run_stream(buffer, packets) -> list[bool]:
    return [buffer.add(packet.copy()) for packet in packets]


@pytest.mark.parametrize("group", range(GROUPS))
def test_engines_bit_identical_on_seeded_random_streams(group):
    for index in range(SEEDS_PER_GROUP):
        rng = np.random.default_rng((4100, group, index))
        batch_size, packet_size, natives, packets = _make_stream(rng)

        reference = ScalarBatchBuffer(batch_size, packet_size)
        expected_verdicts = _run_stream(reference, packets)

        buffer = BatchBuffer(batch_size=batch_size, packet_size=packet_size)
        verdicts = _run_stream(buffer, packets)
        label = f"seed (4100, {group}, {index})"
        assert verdicts == expected_verdicts, label
        assert buffer.rank == reference.rank, label
        assert buffer.received == len(packets), label
        assert buffer.innovative == sum(expected_verdicts), label
        assert buffer.is_full == (reference.rank == batch_size), label
        np.testing.assert_array_equal(
            buffer.coefficient_matrix(), reference.coefficient_matrix(),
            err_msg=f"coefficient matrix diverged: {label}")
        np.testing.assert_array_equal(
            buffer.payload_matrix(), reference.payload_matrix(),
            err_msg=f"payload matrix diverged: {label}")
        if buffer.is_full:
            # At full rank the oracle's reduced payload rows are the decode.
            np.testing.assert_array_equal(
                buffer.decode(), natives,
                err_msg=f"decode != ground-truth natives: {label}")


@BUFFER
def test_vector_only_engines_track_identical_rank(make_buffer):
    """Width-0 streams: rank trajectories match the reference."""
    for seed in range(12):
        rng = np.random.default_rng((4200, seed))
        batch_size, _, _, packets = _make_stream(rng)
        reference = ScalarBatchBuffer(batch_size, packet_size=0)
        buffer = make_buffer(batch_size=batch_size, packet_size=0)
        stripped = [CodedPacket(code_vector=p.code_vector,
                                payload=np.zeros(0, dtype=np.uint8))
                    for p in packets]
        assert _run_stream(buffer, stripped) == _run_stream(reference, stripped)
        assert buffer.rank == reference.rank
        np.testing.assert_array_equal(buffer.coefficient_matrix(),
                                      reference.coefficient_matrix())


@BUFFER
def test_clear_resets_state_identically(make_buffer):
    """After clear(), a second stream behaves exactly like a fresh buffer."""
    rng = np.random.default_rng(4300)
    batch_size, packet_size, _, first = _make_stream(rng)
    while True:
        batch_size2, packet_size2, _, second = _make_stream(rng)
        if (batch_size2, packet_size2) == (batch_size, packet_size):
            break
    recycled = make_buffer(batch_size=batch_size, packet_size=packet_size)
    _run_stream(recycled, first)
    recycled.clear()
    fresh = make_buffer(batch_size=batch_size, packet_size=packet_size)
    assert _run_stream(recycled, second) == _run_stream(fresh, second)
    assert recycled.rank == fresh.rank
    np.testing.assert_array_equal(recycled.coefficient_matrix(),
                                  fresh.coefficient_matrix())
    np.testing.assert_array_equal(recycled.payload_matrix(),
                                  fresh.payload_matrix())
    # Cumulative counters survive clear() — they count the buffer lifetime.
    assert recycled.received == len(first) + len(second)
