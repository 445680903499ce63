"""Differential tests: the production coding engine vs the scalar path.

The production encoders run on the kernels in :mod:`repro.gf.kernels` and
draw from a :class:`~repro.gf.arithmetic.CoefficientStream`;
:class:`~repro.coding.buffer.BatchBuffer` keeps its rows as Python ints
scaled through the product table.  These tests re-implement the scalar
algorithms they replaced (K-iteration ``scale_and_add`` loops, row-by-row
Gauss–Jordan over numpy rows, one ``Generator.integers`` call per code
vector) and drive both implementations with identical inputs across K in
{8, 16, 32}, packet sizes {0, 1, 1500} and several seeds, asserting
bit-identical behaviour end to end: the same coded packets, the same
per-arrival innovative verdicts and rank trajectory, and the same decoded
payloads; and across K in {1, 8, 32, 128} a buffer recycled by ``clear()``,
with and without payload tracking, fed dependent and half-zero vectors.
The buffer combines its rows one by one up to
``BatchBuffer.ROW_LOOP_MAX_RANK`` rows and by nibble buckets above it, so
the trajectory also runs at K in {48, 64, 128}, and one buffer is checked
rank by rank from 0 to K on both sides of the crossover and with the
buckets forced at every rank.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.buffer import BatchBuffer
from repro.coding.encoder import SourceEncoder
from repro.coding.packet import CodedPacket, make_batch
from repro.gf.arithmetic import (
    CoefficientStream,
    random_code_vector,
    scale_and_add,
    vec_scale,
)
from repro.gf.kernels import ShiftedRows, gf_vecmat
from repro.gf.tables import INV

BATCH_SIZES = (8, 16, 32)
#: Above ``BatchBuffer.ROW_LOOP_MAX_RANK`` (32) stored rows: the buffer's
#: nibble-bucketed combinations.
LARGE_BATCH_SIZES = (48, 64, 128)
PACKET_SIZES = (0, 1, 1500)
SEEDS = (0, 1, 17)


class ScalarBatchBuffer:
    """The reference BatchBuffer: per-row Python-loop Gauss–Jordan over numpy
    rows, payloads eliminated with their vectors."""

    def __init__(self, batch_size: int, packet_size: int) -> None:
        self.batch_size = batch_size
        self.packet_size = packet_size
        self._vectors: list[np.ndarray | None] = [None] * batch_size
        self._payloads: list[np.ndarray | None] = [None] * batch_size
        self.rank = 0

    def add(self, packet: CodedPacket) -> bool:
        vector = np.frombuffer(packet.code_vector, dtype=np.uint8).copy()
        payload = packet.payload.copy()
        for column in range(self.batch_size):
            existing = self._vectors[column]
            if existing is None:
                continue
            coefficient = int(vector[column])
            if coefficient == 0:
                continue
            scale_and_add(vector, existing, coefficient)
            scale_and_add(payload, self._payloads[column], coefficient)
        pivot_columns = np.nonzero(vector)[0]
        if pivot_columns.size == 0:
            return False
        column = int(pivot_columns[0])
        inverse = int(INV[int(vector[column])])
        vector = vec_scale(vector, inverse)
        payload = vec_scale(payload, inverse)
        for other in range(self.batch_size):
            other_vector = self._vectors[other]
            if other == column or other_vector is None:
                continue
            factor = int(other_vector[column])
            if factor:
                scale_and_add(other_vector, vector, factor)
                scale_and_add(self._payloads[other], payload, factor)
        self._vectors[column] = vector
        self._payloads[column] = payload
        self.rank += 1
        return True

    def coefficient_matrix(self) -> np.ndarray:
        rows = [v for v in self._vectors if v is not None]
        if not rows:
            return np.zeros((0, self.batch_size), dtype=np.uint8)
        return np.stack(rows)

    def payload_matrix(self) -> np.ndarray:
        rows = [p for p in self._payloads if p is not None]
        if not rows:
            return np.zeros((0, self.packet_size), dtype=np.uint8)
        return np.stack(rows)


def scalar_source_packets(payloads: np.ndarray, rng: np.random.Generator,
                          count: int) -> list[CodedPacket]:
    """The pre-vectorization SourceEncoder loop, drawing like the real one."""
    packets = []
    for _ in range(count):
        coefficients = random_code_vector(payloads.shape[0], rng)
        payload = np.zeros(payloads.shape[1], dtype=np.uint8)
        for index, coefficient in enumerate(coefficients):
            scale_and_add(payload, payloads[index], int(coefficient))
        packets.append(CodedPacket(code_vector=coefficients.tobytes(), payload=payload))
    return packets


def row_halves(buffer: BatchBuffer, row: int) -> tuple[bytes, bytes]:
    """A ``combine_rows`` result, the one ``[code | mix]`` int row, as its
    code vector and its mix over the raw slots."""
    data = row.to_bytes(buffer.width, "little")
    return data[:buffer.batch_size], data[buffer.batch_size:]


def _mixed_packet_stream(batch_size: int, packet_size: int,
                         seed: int) -> list[CodedPacket]:
    """Coded packets with duplicates, scalings and zero vectors mixed in."""
    rng = np.random.default_rng(seed)
    batch = make_batch(batch_size=batch_size, packet_size=packet_size, rng=rng)
    fresh = scalar_source_packets(batch.payloads, rng,
                                  batch_size + 4)
    stream: list[CodedPacket] = []
    for index, packet in enumerate(fresh):
        stream.append(packet)
        if index % 3 == 0:
            stream.append(packet.copy())  # exact duplicate: never innovative
        if index % 4 == 0:
            factor = int(rng.integers(1, 256))
            vector = np.frombuffer(packet.code_vector, dtype=np.uint8)
            stream.append(CodedPacket(
                code_vector=vec_scale(vector, factor).tobytes(),
                payload=vec_scale(packet.payload, factor)))  # dependent
    stream.append(CodedPacket(code_vector=bytes(batch_size),
                              payload=np.zeros(packet_size, dtype=np.uint8)))
    return stream


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("packet_size", PACKET_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_source_encoder_bit_identical_to_scalar(batch_size, packet_size, seed):
    """Batched and scalar encoding produce byte-for-byte identical packets."""
    batch = make_batch(batch_size=batch_size, packet_size=packet_size,
                       rng=np.random.default_rng(seed))
    encoder = SourceEncoder(batch, CoefficientStream(np.random.default_rng(seed + 1000)))
    reference_rng = np.random.default_rng(seed + 1000)

    batched = encoder.next_packets(batch_size + 3)
    reference = scalar_source_packets(batch.payloads, reference_rng,
                                      batch_size + 3)
    for new, old in zip(batched, reference):
        assert new.code_vector == old.code_vector
        assert np.array_equal(new.payload, old.payload)

    # Interleaving single-packet calls continues the identical stream.
    single = encoder.next_packet()
    old = scalar_source_packets(batch.payloads, reference_rng, 1)[0]
    assert single.code_vector == old.code_vector
    assert np.array_equal(single.payload, old.payload)


@pytest.mark.parametrize("batch_size", BATCH_SIZES + LARGE_BATCH_SIZES)
@pytest.mark.parametrize("packet_size", PACKET_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_buffer_trajectory_bit_identical_to_scalar(batch_size, packet_size, seed):
    """Vectorized and scalar buffers agree on every verdict, rank and byte."""
    stream = _mixed_packet_stream(batch_size, packet_size, seed)
    vectorized = BatchBuffer(batch_size, packet_size)
    scalar = ScalarBatchBuffer(batch_size, packet_size)
    for packet in stream:
        expected = scalar.add(packet.copy())
        # The dry-run check must agree with the insertion verdict.
        assert vectorized.is_innovative(packet.code_vector) == expected
        assert vectorized.add(packet.copy()) == expected
        assert vectorized.rank == scalar.rank
        assert np.array_equal(vectorized.coefficient_matrix(),
                              scalar.coefficient_matrix())
        assert np.array_equal(vectorized.payload_matrix(),
                              scalar.payload_matrix())


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_decode_recovers_natives_for_all_sizes(batch_size, seed):
    """Full-rank decode returns the native payloads for every packet size."""
    for packet_size in PACKET_SIZES:
        rng = np.random.default_rng(seed)
        batch = make_batch(batch_size=batch_size, packet_size=packet_size, rng=rng)
        encoder = SourceEncoder(batch, CoefficientStream(rng))
        buffer = BatchBuffer(batch_size, packet_size)
        attempts = 0
        while not buffer.is_full:
            buffer.add(encoder.next_packet())
            attempts += 1
            assert attempts < 20 * batch_size + 50
        decoded = buffer.decode()
        assert decoded.shape == (batch_size, packet_size)
        assert np.array_equal(decoded, batch.payloads)


def _awkward_vectors(batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One batch's worth of code vectors that fill the buffer the hard way:
    vectors whose leading or trailing half is zero, dense ones, multiples and
    sums of what was sent before (dependent), the zero vector, and unit
    vectors at the end so that every batch completes."""
    half = batch_size // 2
    vectors: list[np.ndarray] = []
    for index in range(batch_size + 2):
        vector = rng.integers(0, 256, batch_size, dtype=np.uint8)
        if index % 3 == 0:
            vector[:half] = 0
        elif index % 3 == 1:
            vector[half:] = 0
        vectors.append(vector)
        if index % 4 == 1:
            vectors.append(vec_scale(vectors[-1], int(rng.integers(2, 256))))
        if index % 4 == 3:
            vectors.append(vectors[-1] ^ vec_scale(vectors[-2], int(rng.integers(1, 256))))
    vectors.append(np.zeros(batch_size, dtype=np.uint8))
    vectors.extend(np.eye(batch_size, dtype=np.uint8))
    return vectors


@pytest.mark.parametrize("batch_size", (1, 8, 32, 128))
@pytest.mark.parametrize("packet_size", (0, 16, ShiftedRows.VEC_GATHER_MAX_WIDTH + 1),
                         ids=["vector_only", "payloads", "wide"])
def test_recycled_buffer_matches_scalar(batch_size, packet_size):
    """Every accessor of a buffer reused across batches agrees with a scalar
    buffer that has never held a row: verdicts, counters, pivots, matrices,
    the dry-run check, ``combine_rows`` and the decode."""
    rng = np.random.default_rng(batch_size)
    buffer = BatchBuffer(batch_size, packet_size)
    received = innovative = 0
    for _ in range(2):
        natives = rng.integers(0, 256, (batch_size, packet_size), dtype=np.uint8)
        scalar = ScalarBatchBuffer(batch_size, packet_size)
        for vector in _awkward_vectors(batch_size, rng):
            packet = CodedPacket(vector.tobytes(), gf_vecmat(vector, natives))
            expected = scalar.add(packet.copy())
            assert buffer.is_innovative(vector.tobytes()) == expected
            assert buffer.add(packet) == expected
            received += 1
            innovative += expected
            assert (buffer.received, buffer.innovative) == (received, innovative)
            assert buffer.rank == scalar.rank
            assert buffer.is_full == (scalar.rank == batch_size)
            stored = scalar.coefficient_matrix()
            assert buffer.occupied_pivots() == \
                [int(np.nonzero(row)[0][0]) for row in stored]
            assert buffer.coefficient_matrix().tobytes() == stored.tobytes()
            if not scalar.rank:
                continue
            coefficients = rng.integers(0, 256, scalar.rank, dtype=np.uint8)
            coefficients[::3] = 0
            row = buffer.combine_rows(coefficients.tobytes())
            combined, mix = row_halves(buffer, row)
            assert combined == gf_vecmat(coefficients, stored).tobytes()
            # An int, which the forwarder folds into by rebinding: asking
            # again gives the same row, untouched by whoever holds the first.
            assert row.__class__ is int
            assert buffer.combine_rows(coefficients.tobytes()) == row
            payloads = scalar.payload_matrix()
            assert buffer.payload_matrix().tobytes() == payloads.tobytes()
            assert buffer.raw.combine(mix[:scalar.rank]).tobytes() == \
                gf_vecmat(coefficients, payloads).tobytes()
        assert buffer.is_full
        assert buffer.payload_matrix().shape == (batch_size, packet_size)
        assert buffer.decode().tobytes() == natives.tobytes()
        buffer.clear()
        assert buffer.rank == 0 and buffer.occupied_pivots() == []
        assert buffer.coefficient_matrix().shape == (0, batch_size)


@pytest.mark.parametrize("batch_size,loop_max_rank", [
    (128, BatchBuffer.ROW_LOOP_MAX_RANK),
    (48, BatchBuffer.ROW_LOOP_MAX_RANK),
    (32, BatchBuffer.ROW_LOOP_MAX_RANK),
    # The buckets from the first stored row on.
    (16, 0),
], ids=["K128", "K48", "K32", "K16-buckets"])
@pytest.mark.parametrize("packet_size", (0, 16, 1500))
def test_buffer_rank_by_rank_matches_scalar(batch_size, loop_max_rank,
                                            packet_size, monkeypatch):
    """One buffer filled from rank 0 to K, checked after every arrival: the
    ``add`` verdict and both matrices against the scalar buffer, the dry-run
    check on fresh and dependent probes, and ``combine_rows(c)`` against
    ``c @ coefficient_matrix()`` for the code half and ``c @ transform``
    for the mix (the transform: each stored row over the raw slots, from a
    scalar buffer whose payloads are the slots' unit vectors)."""
    monkeypatch.setattr(BatchBuffer, "ROW_LOOP_MAX_RANK", loop_max_rank)
    rng = np.random.default_rng(batch_size + packet_size)
    natives = rng.integers(0, 256, (batch_size, packet_size), dtype=np.uint8)
    # Slot i's unit vector; a full buffer admits nothing (the zero row).
    slots = np.eye(batch_size + 1, batch_size, dtype=np.uint8)
    buffer = BatchBuffer(batch_size, packet_size)
    scalar = ScalarBatchBuffer(batch_size, packet_size)
    transform = ScalarBatchBuffer(batch_size, batch_size)
    raw = np.zeros((batch_size, packet_size), dtype=np.uint8)

    def arrive(vector: np.ndarray) -> bool:
        packet = CodedPacket(vector.tobytes(), gf_vecmat(vector, natives))
        expected = scalar.add(packet.copy())
        assert transform.add(CodedPacket(vector.tobytes(), slots[transform.rank])) == expected
        assert buffer.is_innovative(vector.tobytes()) == expected
        assert buffer.add(packet) == expected
        if expected:
            raw[scalar.rank - 1] = packet.payload
        return expected

    while scalar.rank < batch_size:
        vector = rng.integers(0, 256, batch_size, dtype=np.uint8)
        vector[rng.random(batch_size) < 0.25] = 0
        if not arrive(vector):
            continue
        rank = scalar.rank
        stored = scalar.coefficient_matrix()
        assert buffer.rank == rank
        assert buffer.coefficient_matrix().tobytes() == stored.tobytes()
        assert buffer.payload_matrix().tobytes() == scalar.payload_matrix().tobytes()
        coefficients = rng.integers(0, 256, rank, dtype=np.uint8)
        coefficients[rng.random(rank) < 0.2] = 0
        combined, mix = row_halves(buffer, buffer.combine_rows(coefficients.tobytes()))
        assert combined == gf_vecmat(coefficients, stored).tobytes()
        if packet_size:
            assert mix == gf_vecmat(coefficients, transform.payload_matrix()).tobytes()
            assert gf_vecmat(np.frombuffer(mix[:rank], dtype=np.uint8),
                             raw[:rank]).tobytes() == \
                gf_vecmat(coefficients, scalar.payload_matrix()).tobytes()
        else:
            assert mix == b""
        # Dependent probes: the combination, and an arrival scaled.
        assert not buffer.is_innovative(combined)
        assert not buffer.is_innovative(
            vec_scale(vector, int(rng.integers(1, 256))).tobytes())
        if rank < batch_size:
            # Fresh: a column no row pivots on, plus the combination.
            fresh = bytearray(combined)
            free = sorted(set(range(batch_size)) - set(buffer.occupied_pivots()))
            fresh[free[0]] ^= 1
            assert buffer.is_innovative(bytes(fresh))
        # A dependent arrival at this rank: reduced to zero, never stored.
        assert not arrive(np.frombuffer(combined, dtype=np.uint8))
        assert buffer.rank == rank
    assert buffer.is_full
    assert buffer.decode().tobytes() == natives.tobytes()
