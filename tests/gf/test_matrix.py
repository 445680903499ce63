"""Tests for GF(2^8) matrix algebra (Gaussian elimination, inversion)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import matrix as gfm
from repro.gf.kernels import gf_matmul
from repro.gf.matrix import SingularMatrixError


def random_matrix(rows, cols, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(rows, cols), dtype=np.uint8)


class TestRowReduce:
    def test_identity_is_fixed_point(self):
        identity = np.eye(5, dtype=np.uint8)
        reduced, pivots = gfm.row_reduce(identity)
        assert np.array_equal(reduced, identity)
        assert pivots == [0, 1, 2, 3, 4]

    def test_zero_matrix(self):
        reduced, pivots = gfm.row_reduce(np.zeros((3, 4), dtype=np.uint8))
        assert pivots == []
        assert not reduced.any()

    def test_pivots_are_one_in_reduced_form(self):
        matrix = random_matrix(6, 6, seed=1)
        reduced, pivots = gfm.row_reduce(matrix, reduced=True)
        for row, col in enumerate(pivots):
            assert reduced[row, col] == 1
            column = reduced[:, col].copy()
            column[row] = 0
            assert not column.any()

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            gfm.row_reduce(np.zeros(4, dtype=np.uint8))


class TestRank:
    def test_full_rank_random(self):
        matrix = random_matrix(8, 8, seed=2)
        # A random 8x8 over GF(256) is full rank with overwhelming probability.
        assert gfm.rank(matrix) == 8

    def test_rank_of_duplicated_rows(self):
        row = random_matrix(1, 6, seed=3)
        matrix = np.vstack([row, row, row])
        assert gfm.rank(matrix) == 1

    def test_rank_of_linear_combination(self):
        a = random_matrix(2, 5, seed=4)
        combo = gf_matmul(np.array([[3, 7]], dtype=np.uint8), a)
        stacked = np.vstack([a, combo])
        assert gfm.rank(stacked) == 2

    def test_rectangular_rank_bounded(self):
        matrix = random_matrix(3, 10, seed=5)
        assert gfm.rank(matrix) <= 3


class TestInvertAndSolve:
    def test_invert_roundtrip(self):
        matrix = random_matrix(6, 6, seed=6)
        inverse = gfm.invert(matrix)
        product = gf_matmul(matrix, inverse)
        assert np.array_equal(product, np.eye(6, dtype=np.uint8))

    def test_invert_singular_raises(self):
        row = random_matrix(1, 4, seed=7)
        singular = np.vstack([row, row, random_matrix(2, 4, seed=8)])
        with pytest.raises(SingularMatrixError):
            gfm.invert(singular)

    def test_invert_non_square_raises(self):
        with pytest.raises(ValueError):
            gfm.invert(random_matrix(2, 3))

    def test_solve_vector(self):
        matrix = random_matrix(5, 5, seed=9)
        x = random_matrix(1, 5, seed=10)[0]
        b = gf_matmul(matrix, x.reshape(-1, 1))[:, 0]
        solved = gfm.solve(matrix, b)
        assert np.array_equal(solved, x)

    def test_solve_matrix_rhs(self):
        matrix = random_matrix(4, 4, seed=11)
        x = random_matrix(4, 7, seed=12)
        b = gf_matmul(matrix, x)
        solved = gfm.solve(matrix, b)
        assert np.array_equal(solved, x)

    def test_solve_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gfm.solve(random_matrix(4, 4), np.zeros(3, dtype=np.uint8))

    def test_solve_non_square_rejected(self):
        with pytest.raises(ValueError):
            gfm.solve(random_matrix(4, 3), np.zeros(4, dtype=np.uint8))

    def test_is_invertible(self):
        """A square matrix inverts exactly when it has full rank."""
        assert np.array_equal(gfm.invert(np.eye(3, dtype=np.uint8)),
                              np.eye(3, dtype=np.uint8))
        zeros = np.zeros((3, 3), dtype=np.uint8)
        assert gfm.rank(zeros) < 3
        with pytest.raises(SingularMatrixError):
            gfm.invert(zeros)
        with pytest.raises(ValueError):
            gfm.invert(random_matrix(2, 3))


class TestMatmul:
    """``gf_matmul``, the product the elimination results are checked with."""

    def test_identity(self):
        matrix = random_matrix(4, 6, seed=13)
        identity = np.eye(4, dtype=np.uint8)
        assert np.array_equal(gf_matmul(identity, matrix), matrix)

    def test_associativity(self):
        a = random_matrix(3, 4, seed=14)
        b = random_matrix(4, 5, seed=15)
        c = random_matrix(5, 2, seed=16)
        left = gf_matmul(gf_matmul(a, b), c)
        right = gf_matmul(a, gf_matmul(b, c))
        assert np.array_equal(left, right)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf_matmul(random_matrix(3, 4), random_matrix(3, 4))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_property_invert_random_full_rank(size, seed):
    """Random square matrices over GF(2^8) are (almost always) invertible and
    inversion round-trips; singular draws are skipped."""
    matrix = np.random.default_rng(seed).integers(0, 256, size=(size, size), dtype=np.uint8)
    if gfm.rank(matrix) < size:
        return
    product = gf_matmul(matrix, gfm.invert(matrix))
    assert np.array_equal(product, np.eye(size, dtype=np.uint8))
