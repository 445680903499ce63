"""Scalar and vectorised arithmetic over GF(2^8), and the coefficient draws.

Three layers are provided:

* scalar helpers (``add``, ``mul``, ``inv``) operating on Python ints, the
  operations of the scalar reference product the kernels are tested
  against;
* row operations on numpy ``uint8`` arrays (``vec_scale``,
  ``scale_and_add``): scale a row by a coefficient and XOR-accumulate it
  into another, the elimination step of :mod:`repro.gf.matrix`;
* the random coefficients network coding runs on:
  :class:`CoefficientStream`, which reads a node's coding generator in
  blocks and hands out code vectors as ``bytes``, beside the per-draw numpy
  calls it is held to (``random_code_vector``,
  ``random_nonzero_coefficient``).
"""

from __future__ import annotations

import numpy as np

from repro.gf.tables import FIELD_SIZE, INV, MUL


def add(a: int, b: int) -> int:
    """Add two field elements (addition in GF(2^8) is XOR)."""
    return (a ^ b) & 0xFF


def mul(a: int, b: int) -> int:
    """Multiply two field elements via the product table."""
    return int(MUL[a & 0xFF, b & 0xFF])


def inv(a: int) -> int:
    """Return the multiplicative inverse of ``a``.

    Raises:
        ZeroDivisionError: if ``a`` is zero.
    """
    if a & 0xFF == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
    return int(INV[a & 0xFF])


def vec_scale(vector: np.ndarray, coefficient: int) -> np.ndarray:
    """Multiply every element of ``vector`` by the scalar ``coefficient``.

    This is a single row lookup in the 64 KiB product table, mirroring the
    paper's implementation trick.
    """
    coefficient &= 0xFF
    if coefficient == 0:
        return np.zeros_like(vector)
    if coefficient == 1:
        return vector.copy()
    return MUL[coefficient][vector]


def scale_and_add(accumulator: np.ndarray, vector: np.ndarray, coefficient: int) -> None:
    """In-place ``accumulator ^= coefficient * vector``."""
    coefficient &= 0xFF
    if coefficient == 0:
        return
    if coefficient == 1:
        np.bitwise_xor(accumulator, vector, out=accumulator)
        return
    np.bitwise_xor(accumulator, MUL[coefficient][vector], out=accumulator)


#: count -> bytes(count), filled by :func:`zero_bytes`.
_ZERO_BYTES: dict[int, bytes] = {}


def zero_bytes(count: int) -> bytes:
    """``bytes(count)``, kept: the all-zero code vector the degenerate-draw
    guards compare each draw's bytes against."""
    zero = _ZERO_BYTES.get(count)
    if zero is None:
        zero = _ZERO_BYTES[count] = bytes(count)
    return zero


def random_nonzero_coefficient(rng: np.random.Generator) -> int:
    """Draw a single non-zero random field element.

    The reference :meth:`CoefficientStream.nonzero_coefficient` is held to,
    draw for draw; nothing at run time calls it.
    """
    return int(rng.integers(1, FIELD_SIZE))


def random_code_vector(count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a random code vector, re-drawing the degenerate all-zero one.

    Individual zero coefficients are allowed (they are in random linear
    network coding), but an all-zero vector would produce a packet that
    carries no information, so it is re-drawn.  This is the reference
    :meth:`CoefficientStream.code_vector` is held to, draw for draw; nothing
    at run time calls it.
    """
    if count < 1:
        raise ValueError(f"a code vector has at least one coefficient, got {count}")
    zero = zero_bytes(count)
    coefficients = rng.integers(0, FIELD_SIZE, size=count, dtype=np.uint8)
    while coefficients.tobytes() == zero:
        coefficients = rng.integers(0, FIELD_SIZE, size=count, dtype=np.uint8)
    return coefficients


#: Rejection threshold of Lemire's bounded draw over [0, 255) from one
#: 32-bit word (it is 1: only the word 0 is rejected).
_LEMIRE_THRESHOLD = ((1 << 32) - (FIELD_SIZE - 1)) % (FIELD_SIZE - 1)


class CoefficientStream:
    """The coding coefficients of one generator, read in blocks.

    Every coefficient a node codes with comes from the 32-bit words of its
    generator, and numpy's two bounded-integer entry points consume them by
    fixed rules: ``integers(0, 256, size=n, dtype=uint8)`` takes the next
    ``ceil(n / 4)`` words and returns their first ``n`` bytes, low byte
    first (the rest of the last word is dropped), and scalar
    ``integers(1, 256)`` is Lemire's bounded draw over one word at a time.
    So a block of words fetched ahead with one call and handed out in slices
    *is* the stream :func:`random_code_vector` and
    :func:`random_nonzero_coefficient` read from the same generator — at a
    slice and a compare per draw instead of ``Generator.integers``'s fixed
    cost (``tests/gf/test_coefficient_stream.py`` holds the two together
    and is the test that speaks if numpy changes either path).

    The stream owns its generator: nothing else may draw from it, and a
    generator gets one stream (two would each fetch ahead).  Nothing is
    drawn before the first request, so a node that never codes leaves its
    generator untouched.
    """

    #: Words fetched per refill (4 KiB of coefficients).
    BLOCK = 1024

    __slots__ = ("rng", "_words", "_next")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        #: Fetched words as little-endian bytes, and the offset of the first
        #: unread one.
        self._words = b""
        self._next = 0

    def _take(self, words: int) -> int:
        """Consume ``words`` words; the offset of the first in ``_words``."""
        start = self._next
        stop = start + 4 * words
        if stop > len(self._words):
            # The unread tail is carried over: words are consumed in order.
            fetched = self.rng.integers(0, 1 << 32, size=max(self.BLOCK, words),
                                        dtype=np.uint32)
            self._words = self._words[start:] + fetched.astype("<u4", copy=False).tobytes()
            start, stop = 0, 4 * words
        self._next = stop
        return start

    def code_vector(self, count: int) -> bytes:
        """The next random code vector of ``count`` coefficients, one byte
        each; the degenerate all-zero vector is re-drawn."""
        if count < 1:
            raise ValueError(f"a code vector has at least one coefficient, got {count}")
        words = (count + 3) >> 2
        zero = zero_bytes(count)
        while True:
            start = self._take(words)
            coefficients = self._words[start:start + count]
            if coefficients != zero:
                return coefficients

    def nonzero_coefficient(self) -> int:
        """The next single non-zero random field element."""
        while True:
            start = self._take(1)
            scaled = int.from_bytes(self._words[start:start + 4], "little") \
                * (FIELD_SIZE - 1)
            if (scaled & 0xFFFFFFFF) >= _LEMIRE_THRESHOLD:
                return 1 + (scaled >> 32)
