"""Tests for the GF(2^8) lookup tables."""

from __future__ import annotations

import numpy as np

from repro.gf import tables


def test_field_size_and_table_shapes():
    assert tables.FIELD_SIZE == 256
    assert tables.MUL.shape == (256, 256)
    assert tables.MUL.dtype == np.uint8
    assert tables.EXP.shape == (512,)
    assert tables.LOG.shape == (256,)
    assert tables.INV.shape == (256,)


def test_mul_table_is_the_papers_64kib_lookup_table():
    # Section 4.6(a): "a 64KiB lookup-table indexed by pairs of 8 bits".
    assert tables.MUL_TABLE_BYTES == 64 * 1024


def test_mul_table_matches_reference_multiplication():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = int(rng.integers(0, 256))
        b = int(rng.integers(0, 256))
        assert tables.MUL[a, b] == tables._carryless_multiply(a, b)


def test_known_aes_field_products():
    # Well-known products in the AES field (0x11B).
    assert tables._carryless_multiply(0x57, 0x83) == 0xC1
    assert tables.MUL[0x57, 0x83] == 0xC1
    assert tables.MUL[0x02, 0x80] == 0x1B  # reduction kicks in


def test_multiplication_by_zero_and_one():
    values = np.arange(256)
    assert np.all(tables.MUL[0, values] == 0)
    assert np.all(tables.MUL[values, 0] == 0)
    assert np.all(tables.MUL[1, values] == values)
    assert np.all(tables.MUL[values, 1] == values)


def test_mul_rows_are_the_table_as_translate_tables():
    """``bytes.translate`` through row ``c`` multiplies every byte by ``c``."""
    everything = bytes(range(256))
    assert len(tables.MUL_ROWS) == 256
    for c in range(256):
        assert everything.translate(tables.MUL_ROWS[c]) == tables.MUL[c].tobytes()


def test_mul_table_symmetry():
    assert np.array_equal(tables.MUL, tables.MUL.T)


def test_exp_log_are_inverse_bijections():
    # log(exp(i)) == i for i in [0, 254] and exp(log(a)) == a for a != 0.
    for i in range(255):
        assert tables.LOG[tables.EXP[i]] == i
    for a in range(1, 256):
        assert tables.EXP[tables.LOG[a]] == a


def test_exp_table_wraps_for_modulo_free_lookup():
    for i in range(255):
        assert tables.EXP[i] == tables.EXP[i + 255]


def test_inverse_table():
    for a in range(1, 256):
        assert tables.MUL[a, tables.INV[a]] == 1
    assert tables.INV[0] == 0
    assert tables.INV[1] == 1


def test_multiplicative_group_is_cyclic_of_order_255():
    seen = set()
    x = 1
    for _ in range(255):
        seen.add(x)
        x = tables._carryless_multiply(x, tables.GENERATOR)
    assert len(seen) == 255
    assert x == 1  # generator order divides 255 and returns to identity
