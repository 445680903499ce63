"""The batch-coding engine against the formulations it replaced.

Three equivalences are checked:

* batched source-encoding of a whole batch through
  :meth:`~repro.coding.encoder.SourceEncoder.next_packets` is bit-identical
  to the same packets through the old per-packet ``scale_and_add`` loop;
* the batch product ``gf_matmul`` and the cached ``ShiftedRows`` operand
  equal that loop at the coding shape (K=32, 1500 B), batch after batch;
* the vector-only (payload-free) execution mode reproduces the figure 4-2
  preset's result exactly.

What either costs is measured by ``python3 -m bench`` (``coded_payload``
against ``testbed_protocols``, and the ``coding.*`` / ``gf.*`` rows of
``--trace 1``), not here.
"""

from __future__ import annotations

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


def _encode_scalar(payloads: np.ndarray, rng: np.random.Generator,
                   count: int) -> list[CodedPacket]:
    """The pre-vectorization source encoder: one K-iteration loop per packet."""
    packets = []
    for _ in range(count):
        coefficients = random_code_vector(payloads.shape[0], rng)
        payload = np.zeros(payloads.shape[1], dtype=np.uint8)
        for index, coefficient in enumerate(coefficients):
            scale_and_add(payload, payloads[index], int(coefficient))
        packets.append(CodedPacket(code_vector=coefficients.tobytes(), payload=payload))
    return packets


def test_batched_encoding_bit_identical():
    """next_packets(K) and the old per-packet loop produce the same packets."""
    batch = make_batch(batch_size=K, packet_size=PACKET_SIZE,
                       rng=np.random.default_rng(0))
    encoder = SourceEncoder(batch, CoefficientStream(np.random.default_rng(7)))
    batched = encoder.next_packets(K)
    reference = _encode_scalar(batch.payloads, np.random.default_rng(7), K)
    for new, old in zip(batched, reference):
        assert new.code_vector == old.code_vector
        assert np.array_equal(new.payload, old.payload)


def test_gf_matmul_kernel():
    """One (K, K) @ (K, 1500) product equals K rows of the scale_and_add loop."""
    rng = np.random.default_rng(2)
    coefficients = rng.integers(0, 256, (K, K), dtype=np.uint8)
    payloads = rng.integers(0, 256, (K, PACKET_SIZE), dtype=np.uint8)
    expected = np.zeros((K, PACKET_SIZE), dtype=np.uint8)
    for row, vector in zip(expected, coefficients):
        for index, coefficient in enumerate(vector):
            scale_and_add(row, payloads[index], int(coefficient))
    assert np.array_equal(gf_matmul(coefficients, payloads), expected)


def test_shifted_rows_reuse():
    """The cached operand the source encoder keeps serves batch after batch."""
    rng = np.random.default_rng(3)
    payloads = rng.integers(0, 256, (K, PACKET_SIZE), dtype=np.uint8)
    operand = ShiftedRows(payloads.copy())
    for _ in range(3):
        coefficients = rng.integers(0, 256, (K, K), dtype=np.uint8)
        assert np.array_equal(operand.matmul(coefficients), gf_matmul(coefficients, payloads))


@pytest.mark.parametrize("preset_name", ["fig_4_2"])
def test_vector_only_mode_identical(preset_name):
    """Vector-only runs report identical results to payload runs.

    Delivery, rank progression and throughput are fully determined by code
    vectors (and empty payload draws consume no RNG state), so the whole
    result — series and summary — must match byte for byte.
    """
    spec = get_preset(preset_name)
    payload_result = run_cell(spec.expand()[0])
    vector_result = run_cell(spec.with_overrides({"run.vector_only": True}).expand()[0])
    assert payload_result.series == vector_result.series
    assert payload_result.summary == vector_result.summary
