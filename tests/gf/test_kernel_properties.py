"""Property-based differential tests of the elimination kernel.

``gf_vecmat`` — the MUL-table gather, reported under its historical id
``mul`` — computes ``vector @ matrix`` over GF(2^8), so it must be
**bit-identical** on every input to ``gf_matmul`` run on the same vector as
a one-row matrix — the other formulation, the shifted-row stack, for rows
wider than ``ShiftedRows.VEC_GATHER_MAX_WIDTH``.
GF arithmetic is exact (no rounding), which is what makes this differential
harness decisive: any mismatch is a bug, never tolerance noise.

The harness drives 70 deterministic seeded-random cases per run across
operand shapes (m rows up to 64, n columns up to 96, including the m=1 and
n=1 degenerate shapes), plus adversarial constructions: the all-zero
vector, all-zero matrices, saturated 0xFF operands and single-element
operands.  Algebraic laws (linearity in the vector argument, consistency
with ``gf_matmul`` rows) pin the kernel to the mathematics rather than
to the oracle alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gf.kernels import gf_matmul, gf_vecmat

KERNELS = {"mul": gf_vecmat}
KERNEL_NAMES = sorted(KERNELS)


def stacked(vector: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``vector @ matrix`` through ``gf_matmul`` (the shifted-row stack for
    wide rows)."""
    return gf_matmul(vector[None, :], matrix)[0]


#: Seeded-random differential cases.
CASE_COUNT = 70


def _random_operands(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One random (vector, matrix) pair, shapes drawn per case."""
    m = int(rng.integers(1, 65))
    n = int(rng.integers(1, 97))
    vector = rng.integers(0, 256, size=m, dtype=np.uint8)
    matrix = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
    # A quarter of the cases zero the vector or sparsify the matrix so the
    # "skip work on zero coefficients" fast paths stay covered.
    style = int(rng.integers(0, 8))
    if style == 0:
        vector[:] = 0
    elif style == 1:
        matrix[:] = 0
    elif style == 2:
        vector[rng.random(m) < 0.7] = 0
    elif style == 3:
        vector[:] = 255
        matrix[:] = 255
    return vector, matrix


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernels_match_reference_on_seeded_random_cases(name):
    kernel = KERNELS[name]
    for seed in range(CASE_COUNT):
        rng = np.random.default_rng((9000, seed))
        vector, matrix = _random_operands(rng)
        expected = stacked(vector, matrix)
        actual = kernel(vector, matrix)
        assert actual.dtype == np.uint8
        np.testing.assert_array_equal(
            actual, expected,
            err_msg=f"kernel {name!r} diverged on seed {seed} "
                    f"(shape {matrix.shape})")


@pytest.mark.parametrize("name", KERNEL_NAMES)
@pytest.mark.parametrize("m,n", [(1, 1), (1, 96), (64, 1)])
def test_kernels_match_reference_on_degenerate_shapes(name, m, n):
    rng = np.random.default_rng((9100, m, n))
    vector = rng.integers(0, 256, size=m, dtype=np.uint8)
    matrix = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
    np.testing.assert_array_equal(
        KERNELS[name](vector, matrix),
        stacked(vector, matrix))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernels_are_linear_in_the_vector(name):
    """vecmat(a ^ b, M) == vecmat(a, M) ^ vecmat(b, M) (GF(2^8) addition)."""
    kernel = KERNELS[name]
    for seed in range(24):
        rng = np.random.default_rng((9200, seed))
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 64))
        a = rng.integers(0, 256, size=m, dtype=np.uint8)
        b = rng.integers(0, 256, size=m, dtype=np.uint8)
        matrix = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
        np.testing.assert_array_equal(
            kernel(a ^ b, matrix), kernel(a, matrix) ^ kernel(b, matrix))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernels_agree_with_matmul_rows(name):
    """Row i of gf_matmul(C, P) is vecmat(C[i], P) — one algebra, two APIs."""
    kernel = KERNELS[name]
    rng = np.random.default_rng(9300)
    coefficients = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    payloads = rng.integers(0, 256, size=(16, 40), dtype=np.uint8)
    product = gf_matmul(coefficients, payloads)
    for row in range(coefficients.shape[0]):
        np.testing.assert_array_equal(kernel(coefficients[row], payloads),
                                      product[row])


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_zero_vector_yields_zero_output(name):
    matrix = np.arange(64, dtype=np.uint8).reshape(8, 8)
    result = KERNELS[name](np.zeros(8, dtype=np.uint8), matrix)
    assert not result.any()


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernels_validate_operand_shapes(name):
    kernel = KERNELS[name]
    with pytest.raises(ValueError):
        kernel(np.zeros(3, dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        kernel(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 5), dtype=np.uint8))


def test_reference_kernel_validates_operand_shapes():
    """The stack ``gf_vecmat`` is checked against refuses what it refuses."""
    with pytest.raises(ValueError):
        stacked(np.zeros(3, dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        gf_matmul(np.zeros(3, dtype=np.uint8), np.zeros((3, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        gf_matmul(np.zeros((2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernels_handle_empty_operands(name):
    """Zero rows and zero-width rows both yield an empty/zero result."""
    kernel = KERNELS[name]
    no_rows = kernel(np.zeros(0, dtype=np.uint8),
                     np.zeros((0, 7), dtype=np.uint8))
    assert no_rows.shape == (7,) and not no_rows.any()
    no_width = kernel(np.full(5, 0xAB, dtype=np.uint8),
                      np.zeros((5, 0), dtype=np.uint8))
    assert no_width.shape == (0,)
