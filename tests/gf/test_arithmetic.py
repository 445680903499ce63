"""Tests and properties for scalar/vector GF(2^8) arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import arithmetic as gf
from repro.gf import tables
from repro.gf.kernels import gf_vecmat

field_element = st.integers(min_value=0, max_value=255)
nonzero_element = st.integers(min_value=1, max_value=255)


class TestScalarArithmetic:
    def test_add_is_xor(self):
        assert gf.add(0b1010, 0b0110) == 0b1100
        # Subtraction is the same XOR: adding b back undoes adding it.
        assert gf.add(gf.add(0b1010, 0b0110), 0b0110) == 0b1010

    def test_add_identity_and_self_inverse(self):
        for a in range(256):
            assert gf.add(a, 0) == a
            assert gf.add(a, a) == 0

    def test_mul_examples(self):
        assert gf.mul(0, 77) == 0
        assert gf.mul(1, 77) == 77
        assert gf.mul(0x57, 0x83) == 0xC1

    def test_div_inverts_mul(self):
        """Division is multiplication by the inverse, and undoes ``mul``."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = int(rng.integers(0, 256))
            b = int(rng.integers(1, 256))
            assert gf.mul(gf.mul(a, b), gf.inv(b)) == a

    def test_div_by_zero_raises(self):
        """The INV table the decoder reads agrees with ``inv`` wherever an
        inverse exists, and zero, which has none, is refused."""
        for a in range(1, 256):
            assert int(tables.INV[a]) == gf.inv(a)
        with pytest.raises(ZeroDivisionError):
            gf.mul(5, gf.inv(0))

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf.inv(0)

    def test_inv(self):
        for a in range(1, 256):
            assert gf.mul(a, gf.inv(a)) == 1

    def test_power(self):
        """EXP[k] is the k-th power of the generator, LOG inverts it, and the
        multiplicative group has order 255."""
        generator = int(tables.EXP[1])
        manual = 1
        for k in range(255):
            assert int(tables.EXP[k]) == manual
            assert int(tables.LOG[manual]) == k
            manual = gf.mul(manual, generator)
        assert manual == 1
        a = 0x53
        manual = 1
        for _ in range(7):
            manual = gf.mul(manual, a)
        assert manual == int(tables.EXP[(7 * int(tables.LOG[a])) % 255])


class TestFieldAxiomsProperties:
    @given(field_element, field_element, field_element)
    @settings(max_examples=200, deadline=None)
    def test_mul_associative(self, a, b, c):
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))

    @given(field_element, field_element)
    @settings(max_examples=200, deadline=None)
    def test_mul_commutative(self, a, b):
        assert gf.mul(a, b) == gf.mul(b, a)

    @given(field_element, field_element, field_element)
    @settings(max_examples=200, deadline=None)
    def test_distributive(self, a, b, c):
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))

    @given(nonzero_element, nonzero_element)
    @settings(max_examples=200, deadline=None)
    def test_no_zero_divisors(self, a, b):
        assert gf.mul(a, b) != 0

    @given(field_element, nonzero_element)
    @settings(max_examples=200, deadline=None)
    def test_div_then_mul_roundtrip(self, a, b):
        assert gf.mul(gf.mul(a, gf.inv(b)), b) == a


class TestVectorKernels:
    def test_vec_add(self, rng):
        """Adding rows is XOR: ``scale_and_add`` by 1 folds a row in as is."""
        a = rng.integers(0, 256, 64, dtype=np.uint8)
        b = rng.integers(0, 256, 64, dtype=np.uint8)
        accumulator = a.copy()
        gf.scale_and_add(accumulator, b, 1)
        assert np.array_equal(accumulator, a ^ b)

    def test_vec_scale_matches_scalar(self, rng):
        vector = rng.integers(0, 256, 128, dtype=np.uint8)
        for coefficient in (0, 1, 2, 77, 255):
            scaled = gf.vec_scale(vector, coefficient)
            expected = np.array([gf.mul(int(v), coefficient) for v in vector], dtype=np.uint8)
            assert np.array_equal(scaled, expected)

    def test_vec_scale_by_zero_and_one(self, rng):
        vector = rng.integers(0, 256, 32, dtype=np.uint8)
        assert not gf.vec_scale(vector, 0).any()
        assert np.array_equal(gf.vec_scale(vector, 1), vector)

    def test_vec_scale_returns_copy_for_identity(self, rng):
        vector = rng.integers(0, 256, 32, dtype=np.uint8)
        result = gf.vec_scale(vector, 1)
        result[0] ^= 0xFF
        assert result[0] != vector[0]

    def test_scale_and_add_in_place(self, rng):
        accumulator = rng.integers(0, 256, 64, dtype=np.uint8)
        vector = rng.integers(0, 256, 64, dtype=np.uint8)
        expected = accumulator ^ gf.vec_scale(vector, 0x3A)
        gf.scale_and_add(accumulator, vector, 0x3A)
        assert np.array_equal(accumulator, expected)

    def test_scale_and_add_zero_coefficient_is_noop(self, rng):
        accumulator = rng.integers(0, 256, 64, dtype=np.uint8)
        before = accumulator.copy()
        gf.scale_and_add(accumulator, rng.integers(0, 256, 64, dtype=np.uint8), 0)
        assert np.array_equal(accumulator, before)

    def test_vec_mul_elementwise(self, rng):
        """One gather into the product table multiplies two rows element by
        element, as the scalar ``mul`` does."""
        a = rng.integers(0, 256, 40, dtype=np.uint8)
        b = rng.integers(0, 256, 40, dtype=np.uint8)
        result = tables.MUL[a, b]
        assert result.dtype == np.uint8
        for i in range(40):
            assert result[i] == gf.mul(int(a[i]), int(b[i]))

    @given(st.integers(min_value=1, max_value=64), field_element, field_element)
    @settings(max_examples=60, deadline=None)
    def test_scaling_is_linear(self, length, c1, c2):
        rng = np.random.default_rng(length)
        v = rng.integers(0, 256, length, dtype=np.uint8)
        lhs = gf.vec_scale(v, c1 ^ 0) .copy()
        gf.scale_and_add(lhs, v, c2)
        rhs = gf.vec_scale(v, gf.add(c1, c2))
        assert np.array_equal(lhs, rhs)

    def test_random_coefficients_range_and_determinism(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        a = gf.random_code_vector(1000, rng1)
        b = gf.random_code_vector(1000, rng2)
        assert a.dtype == np.uint8 and a.shape == (1000,)
        assert np.array_equal(a, b)
        # A one-coefficient vector is never the degenerate zero.
        assert all(gf.random_code_vector(1, rng1)[0] != 0 for _ in range(300))

    def test_random_nonzero_coefficient(self):
        rng = np.random.default_rng(2)
        values = {gf.random_nonzero_coefficient(rng) for _ in range(300)}
        assert 0 not in values
        assert min(values) >= 1 and max(values) <= 255


#: A 1500-byte packet holding every byte value, for the kernels at coding size.
PACKET = np.resize(np.random.default_rng(0).permutation(256).astype(np.uint8), 1500)


def test_gf_vector_scale():
    """Scaling a packet by every coefficient matches bit-by-bit multiplication."""
    for coefficient in range(256):
        row = np.array([tables._carryless_multiply(value, coefficient)
                        for value in range(256)], dtype=np.uint8)
        assert np.array_equal(gf.vec_scale(PACKET, coefficient), row[PACKET])


def test_gf_scale_and_add():
    """The coding inner loop over a batch is one row of the batch product, and
    running it again cancels it (the field has characteristic 2)."""
    rng = np.random.default_rng(1)
    packets = rng.integers(0, 256, (32, PACKET.size), dtype=np.uint8)
    coefficients = rng.integers(0, 256, 32, dtype=np.uint8)
    accumulator = np.zeros(PACKET.size, dtype=np.uint8)
    for packet, coefficient in zip(packets, coefficients):
        gf.scale_and_add(accumulator, packet, int(coefficient))
    assert np.array_equal(accumulator, gf_vecmat(coefficients, packets))
    for packet, coefficient in zip(packets, coefficients):
        gf.scale_and_add(accumulator, packet, int(coefficient))
    assert not accumulator.any()
