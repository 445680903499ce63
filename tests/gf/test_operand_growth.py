"""Growth must not be observable.

A :class:`~repro.gf.kernels.ShiftedRows` that was announced its rows a few
at a time — with any mix of products in between — answers every later
product exactly as an operand built over the same rows at once, and as
``gf_vecmat``, which builds no operand.  What it has built by then differs (a
narrow operand never has a stack; a wide one expands rows as they are
announced); the bytes do not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.kernels import ShiftedRows, gf_vecmat

#: Zero width, below / at / above one uint64 word, every preset's coded
#: payload, both sides of ``VEC_GATHER_MAX_WIDTH``, and a full packet.
WIDTHS = (0, 1, 7, 8, 16, 64, 65, 1500)


def _assert_products_equal_fresh(operand: ShiftedRows, rows: np.ndarray,
                                 rng: np.random.Generator, products: str) -> None:
    fresh = ShiftedRows(rows.copy())
    if "v" in products:
        vector = rng.integers(0, 256, rows.shape[0], dtype=np.uint8)
        expected = gf_vecmat(vector, rows)
        np.testing.assert_array_equal(operand.vecmul(vector), expected)
        np.testing.assert_array_equal(fresh.vecmul(vector), expected)
    if "m" in products:
        left = rng.integers(0, 256, (int(rng.integers(1, 10)), rows.shape[0]),
                            dtype=np.uint8)
        expected = np.stack([gf_vecmat(vector, rows) for vector in left])
        np.testing.assert_array_equal(operand.matmul(left), expected)
        np.testing.assert_array_equal(fresh.matmul(left), expected)


@given(capacity=st.integers(1, 40), width=st.sampled_from(WIDTHS),
       seed=st.integers(0, 2**32 - 1),
       schedule=st.lists(st.tuples(st.integers(0, 40),
                                   st.sampled_from(["", "v", "m", "vm"])),
                         min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_grown_operand_equals_a_fresh_one(capacity, width, seed, schedule):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((capacity, width), dtype=np.uint8)
    operand = None
    rows = 0
    for target, products in sorted(schedule):
        target = min(target, capacity)
        appended = rng.integers(0, 256, (target - rows, width), dtype=np.uint8)
        matrix[rows:target] = appended
        if operand is not None:
            # Rows are appended in place, exactly as BatchBuffer fills raw
            # slots: into the operand's own rows (a wide operand copied the
            # matrix it was built from into its stack).
            operand.matrix[rows:target] = appended
        rows = target
        if operand is None:
            operand = ShiftedRows(matrix, rows)
        else:
            operand.grow(rows)
        assert (operand.k, operand.s) == (rows, width)
        _assert_products_equal_fresh(operand, matrix[:rows], rng, products)
    _assert_products_equal_fresh(operand, matrix[:rows], rng, "vm")


def test_narrow_operand_never_builds_a_stack(rng, shifted_rows):
    matrix = rng.integers(0, 256, (12, 16), dtype=np.uint8)
    operand = ShiftedRows(matrix, 3)
    for rows in (3, 7):
        operand.grow(rows)
        _assert_products_equal_fresh(operand, matrix[:rows], rng, "vm")
    operand.grow(12)
    _assert_products_equal_fresh(operand, matrix, rng, "vm")
    assert shifted_rows == []
    assert operand._words is None


def test_wide_operand_expands_each_row_once(rng, shifted_rows):
    matrix = rng.integers(0, 256, (10, 100), dtype=np.uint8)
    operand = ShiftedRows(matrix, 4)
    operand.grow(4)
    operand.grow(9)
    operand.vecmul(rng.integers(0, 256, 9, dtype=np.uint8))
    operand.matmul(rng.integers(0, 256, (3, 9), dtype=np.uint8))
    assert shifted_rows == [4, 5]  # only the appended rows


def test_zero_width_operand_runs_no_kernel(rng, shifted_rows):
    operand = ShiftedRows(np.zeros((5, 0), dtype=np.uint8))
    payload = operand.vecmul(rng.integers(0, 256, 5, dtype=np.uint8))
    assert payload.shape == (0,) and payload.dtype == np.uint8
    assert operand.matmul(np.ones((2, 5), dtype=np.uint8)).shape == (2, 0)
    assert shifted_rows == []
    with pytest.raises(ValueError):
        operand.vecmul(np.zeros(4, dtype=np.uint8))


def test_operand_only_grows_within_its_matrix():
    operand = ShiftedRows(np.zeros((4, 8), dtype=np.uint8), 2)
    with pytest.raises(ValueError, match="cannot grow"):
        operand.grow(1)
    with pytest.raises(ValueError, match="cannot grow"):
        operand.grow(5)
    with pytest.raises(ValueError, match="cannot grow"):
        ShiftedRows(np.zeros((4, 8), dtype=np.uint8), 5)
