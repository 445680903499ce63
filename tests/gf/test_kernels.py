"""Tests for the vectorized GF(2^8) kernels against the scalar arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_operand_growth import WIDTHS

from repro.gf.arithmetic import add, mul
from repro.gf.kernels import SHIFTS, ShiftedRows, gf_matmul, gf_vecmat


def reference_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Textbook triple loop over the scalar field helpers."""
    n, k = a.shape
    s = b.shape[1]
    out = np.zeros((n, s), dtype=np.uint8)
    for i in range(n):
        for j in range(s):
            acc = 0
            for kk in range(k):
                acc = add(acc, mul(int(a[i, kk]), int(b[kk, j])))
            out[i, j] = acc
    return out


class TestGfMatmul:
    def test_matches_reference_small(self, rng):
        a = rng.integers(0, 256, (3, 5), dtype=np.uint8)
        b = rng.integers(0, 256, (5, 7), dtype=np.uint8)
        assert np.array_equal(gf_matmul(a, b), reference_matmul(a, b))

    def test_matches_reference_large_uses_shifted_rows(self, rng):
        # Many output rows over rows several uint64 words wide, wider than
        # VEC_GATHER_MAX_WIDTH.
        a = rng.integers(0, 256, (16, 12), dtype=np.uint8)
        b = rng.integers(0, 256, (12, 65), dtype=np.uint8)
        assert np.array_equal(gf_matmul(a, b), reference_matmul(a, b))

    def test_identity(self, rng):
        b = rng.integers(0, 256, (6, 10), dtype=np.uint8)
        identity = np.eye(6, dtype=np.uint8)
        assert np.array_equal(gf_matmul(identity, b), b)

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((0, 4), (4, 5)), ((3, 0), (0, 5)), ((3, 4), (4, 0)),
    ])
    def test_empty_dimensions(self, shape_a, shape_b):
        a = np.zeros(shape_a, dtype=np.uint8)
        b = np.zeros(shape_b, dtype=np.uint8)
        result = gf_matmul(a, b)
        assert result.shape == (shape_a[0], shape_b[1])
        assert not result.any()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gf_matmul(np.zeros((2, 3), dtype=np.uint8),
                      np.zeros((4, 2), dtype=np.uint8))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            gf_matmul(np.zeros(3, dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8))


class TestShiftedRows:
    def test_matches_gf_matmul(self, rng):
        b = rng.integers(0, 256, (9, 100), dtype=np.uint8)
        operand = ShiftedRows(b)
        for rows in (1, 2, 8, 20):
            a = rng.integers(0, 256, (rows, 9), dtype=np.uint8)
            assert np.array_equal(operand.matmul(a), reference_matmul(a, b))

    def test_reuse_after_matmul(self, rng):
        """The cached stack survives (and is not corrupted by) repeated use."""
        b = rng.integers(0, 256, (4, 70), dtype=np.uint8)
        operand = ShiftedRows(b)
        a = rng.integers(0, 256, (8, 4), dtype=np.uint8)
        first = operand.matmul(a)
        second = operand.matmul(a)
        assert np.array_equal(first, second)

    def test_zero_width_operand(self, rng):
        operand = ShiftedRows(np.zeros((4, 0), dtype=np.uint8))
        result = operand.matmul(rng.integers(0, 256, (3, 4), dtype=np.uint8))
        assert result.shape == (3, 0)

    def test_mismatched_inner_dimension_rejected(self, rng):
        operand = ShiftedRows(rng.integers(0, 256, (4, 8), dtype=np.uint8))
        with pytest.raises(ValueError):
            operand.matmul(np.zeros((2, 5), dtype=np.uint8))

    def test_vecmul_mismatched_length_rejected(self, rng):
        operand = ShiftedRows(rng.integers(0, 256, (4, 8), dtype=np.uint8))
        with pytest.raises(ValueError):
            operand.vecmul(np.zeros(3, dtype=np.uint8))


class TestVectorAndRowKernels:
    def test_gf_vecmat_matches_matmul(self, rng):
        v = rng.integers(0, 256, 6, dtype=np.uint8)
        m = rng.integers(0, 256, (6, 11), dtype=np.uint8)
        assert np.array_equal(gf_vecmat(v, m), reference_matmul(v[None, :], m)[0])


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_property_matmul_matches_reference(n, k, s, seed):
    """gf_matmul equals the scalar triple loop for every shape, n < 8 and
    s < 8 included (rows this narrow take the MUL-table gather)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, (n, k), dtype=np.uint8)
    b = rng.integers(0, 256, (k, s), dtype=np.uint8)
    assert np.array_equal(gf_matmul(a, b), reference_matmul(a, b))


def test_gf_vecmat_kernel():
    """One elimination step of the decode path at K=32: a pivot-row vector
    against the (K, K + rank + 1)-wide active slice."""
    rng = np.random.default_rng(5)
    vector = rng.integers(0, 256, 32, dtype=np.uint8)
    matrix = rng.integers(0, 256, (32, 65), dtype=np.uint8)
    assert np.array_equal(gf_vecmat(vector, matrix), reference_matmul(vector[None, :], matrix)[0])


#: Coefficient rows made of one value: a low nibble alone, a high nibble
#: alone (a swapped or dropped nibble shows), and x^4 itself (a lost x^4
#: scaling of the high partial shows).
NIBBLE_COEFFICIENTS = (0x0F, 0xF0, 0x10)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("k", (1, 3, 32, 128))
def test_products_match_the_gather_oracle(width, k):
    """Both products of an operand, and ``gf_matmul``, equal row-by-row
    ``gf_vecmat`` — the MUL-table gather, which builds nothing — on
    uniform-nibble and random coefficient rows; and on the small shapes
    the scalar triple loop as well."""
    rng = np.random.default_rng(1000 * width + k)
    b = rng.integers(0, 256, (k, width), dtype=np.uint8)
    uniform = np.repeat(np.array(NIBBLE_COEFFICIENTS, dtype=np.uint8)[:, None], k, axis=1)
    a = np.vstack([uniform, rng.integers(0, 256, (5, k), dtype=np.uint8)])
    expected = np.stack([gf_vecmat(row, b) for row in a])
    operand = ShiftedRows(b)
    np.testing.assert_array_equal(operand.matmul(a), expected)
    np.testing.assert_array_equal(gf_matmul(a, b), expected)
    for row, product in zip(a, expected):
        np.testing.assert_array_equal(operand.vecmul(row), product)
    if a.size * width <= 4096:
        np.testing.assert_array_equal(expected, reference_matmul(a, b))


@pytest.mark.parametrize("rows,width", [(1, 65), (4, 100), (32, 1500), (128, 1500)])
def test_wide_stack_keeps_four_lines_per_row_of_capacity(rows, width):
    operand = ShiftedRows(np.zeros((rows, width), dtype=np.uint8), 1)
    assert SHIFTS == 4
    assert operand._words.nbytes == 4 * rows * 8 * -(-width // 8)

