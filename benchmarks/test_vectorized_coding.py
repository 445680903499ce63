"""Micro-benchmarks of the vectorized batch-coding engine.

Two claims are checked, both against the pre-vectorization formulation:

* batched source-encoding of a whole batch through
  :meth:`~repro.coding.encoder.SourceEncoder.next_packets` is at least 5x
  faster than the same packets through the old per-packet
  ``scale_and_add`` loop, with bit-identical output;
* the vector-only (payload-free) execution mode reproduces the
  figure 4-2 preset's throughput series exactly while doing strictly less
  work.

The speedup assertion compares two best-of-N measurements taken
back-to-back on the same machine, so uniform machine load cancels out; the
margin in practice is ~10x, far above the asserted 5x.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.coding.encoder import SourceEncoder
from repro.coding.packet import CodedPacket, make_batch
from repro.gf.arithmetic import CoefficientStream, random_code_vector, scale_and_add
from repro.gf.kernels import ShiftedRows, gf_matmul
from repro.scenarios import get_preset
from repro.scenarios.execute import run_cell

K = 32
PACKET_SIZE = 1500
ROUNDS = 5


def _best_of(measure, rounds: int = ROUNDS) -> float:
    return min(measure() for _ in range(rounds))


def _encode_scalar(payloads: np.ndarray, rng: np.random.Generator,
                   count: int) -> list[CodedPacket]:
    """The pre-vectorization source encoder: one K-iteration loop per packet."""
    packets = []
    for _ in range(count):
        coefficients = random_code_vector(payloads.shape[0], rng)
        payload = np.zeros(payloads.shape[1], dtype=np.uint8)
        for index, coefficient in enumerate(coefficients):
            scale_and_add(payload, payloads[index], int(coefficient))
        packets.append(CodedPacket(code_vector=coefficients, payload=payload))
    return packets


def test_batched_encoding_bit_identical():
    """next_packets(K) and the old per-packet loop produce the same packets."""
    batch = make_batch(batch_size=K, packet_size=PACKET_SIZE,
                       rng=np.random.default_rng(0))
    encoder = SourceEncoder(batch, CoefficientStream(np.random.default_rng(7)))
    batched = encoder.next_packets(K)
    reference = _encode_scalar(batch.payload_matrix(), np.random.default_rng(7), K)
    for new, old in zip(batched, reference):
        assert np.array_equal(new.code_vector, old.code_vector)
        assert np.array_equal(new.payload, old.payload)


@pytest.mark.perf_strict
def test_batched_encoding_speedup():
    """Batched encoding of 32 packets beats the old loop by at least 5x.

    Best-of-N and back-to-back, so uniform machine load mostly cancels out
    and the measured margin is ~2x above the asserted floor (speedup ~10x).
    Still, it is a wall-clock ratio, and a sufficiently bursty box can
    stretch one side more than the other — so like every other timing
    threshold it lives behind ``--perf-strict`` and out of tier-1.
    """
    batch = make_batch(batch_size=K, packet_size=PACKET_SIZE,
                       rng=np.random.default_rng(0))
    payloads = batch.payload_matrix()
    encoder = SourceEncoder(batch, CoefficientStream(np.random.default_rng(1)))
    encoder.next_packets(K)  # build the shifted-row stack outside the timing
    scalar_rng = np.random.default_rng(1)

    def measure_batched() -> float:
        start = time.perf_counter()
        encoder.next_packets(K)
        return time.perf_counter() - start

    def measure_scalar() -> float:
        start = time.perf_counter()
        _encode_scalar(payloads, scalar_rng, K)
        return time.perf_counter() - start

    batched = _best_of(measure_batched)
    scalar = _best_of(measure_scalar)
    speedup = scalar / batched
    print(f"\nbatched source encoding: old {scalar * 1e3:.2f} ms, "
          f"new {batched * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= 5.0


def test_gf_matmul_kernel(benchmark):
    """One (K, K) @ (K, 1500) product — the cost of coding a whole batch."""
    rng = np.random.default_rng(2)
    coefficients = rng.integers(0, 256, (K, K), dtype=np.uint8)
    payloads = rng.integers(0, 256, (K, PACKET_SIZE), dtype=np.uint8)
    benchmark(gf_matmul, coefficients, payloads)


def test_shifted_rows_reuse(benchmark):
    """The cached-operand path the source encoder uses batch after batch."""
    rng = np.random.default_rng(3)
    operand = ShiftedRows(rng.integers(0, 256, (K, PACKET_SIZE), dtype=np.uint8))
    coefficients = rng.integers(0, 256, (K, K), dtype=np.uint8)
    benchmark(operand.matmul, coefficients)


@pytest.mark.parametrize("preset_name", ["fig_4_2"])
def test_vector_only_mode_identical(preset_name):
    """Vector-only runs report identical results to payload runs.

    Delivery, rank progression and throughput are fully determined by code
    vectors (and empty payload draws consume no RNG state), so the whole
    result — series and summary — must match byte for byte.
    """
    spec = get_preset(preset_name)
    cell = spec.expand()[0]
    vector_cell = spec.with_overrides({"run.vector_only": True}).expand()[0]

    start = time.perf_counter()
    payload_result = run_cell(cell)
    payload_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    vector_result = run_cell(vector_cell)
    vector_elapsed = time.perf_counter() - start

    assert payload_result.series == vector_result.series
    assert payload_result.summary == vector_result.summary
    print(f"\n{preset_name}: payload {payload_elapsed:.2f}s, "
          f"vector-only {vector_elapsed:.2f}s")
