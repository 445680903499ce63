"""``repro.rng.normal_uniform_pairs`` reads a generator as the per-call draws do.

The mesh generators take one ``standard_normal()`` and one ``random()`` per
node pair.  The reader fetches those calls' 64-bit words in blocks and runs
numpy's ziggurat over them, so it is only the same stream if its copy of the
ziggurat tables is numpy's and every slow branch hands the words on where
numpy would.  These tests probe the tables on crafted PCG64 states, and hold
the reader to a twin generator drawing per call — values and the full
``bit_generator.state``, 32-bit buffer included: if numpy ever changes how
``standard_normal`` or ``random`` read words, this is the file that says so.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (
    PCG64_MULTIPLIER,
    ZIGGURAT_KI,
    ZIGGURAT_WI,
    normal_uniform_pairs,
)

#: Named in every failure: the tables and rules are this numpy's.
NUMPY = f"numpy {np.__version__}"

MASK_64 = (1 << 64) - 1
MASK_128 = (1 << 128) - 1
#: The largest ``rabs`` a word carries (bits 9-60).
RABS_MAX = (1 << 52) - 1


def _craft(generator: np.random.Generator, word: int, high: int = 0,
           buffer: tuple[int, int] = (0, 0)) -> None:
    """Set ``generator`` so that its next 64-bit word is ``word``.

    PCG64 steps its state before it outputs ``rotr64(hi ^ lo, hi >> 58)``,
    so the state ``(high, lo)`` with ``lo = rotl64(word, high >> 58) ^ high``
    outputs ``word``; the generator is set one LCG step before it.  Each
    ``high`` gives another continuation after ``word``.
    """
    bit_generator = generator.bit_generator
    increment = bit_generator.state["state"]["inc"]
    rotation = high >> 58
    low = (((word << rotation) | (word >> (64 - rotation))) & MASK_64) ^ high
    following = (high << 64) | low
    previous = ((following - increment) * pow(PCG64_MULTIPLIER, -1, 1 << 128)) & MASK_128
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": previous, "inc": increment},
                           "has_uint32": buffer[0], "uinteger": buffer[1]}


def _word(index: int, rabs: int, negative: bool = False) -> int:
    """The word the ziggurat reads as table ``index``, sign and ``rabs``."""
    return (rabs << 9) | (int(negative) << 8) | index


def _scalar_normal(generator: np.random.Generator) -> tuple[float, int]:
    """``standard_normal()`` and how many words it read."""
    bit_generator = generator.bit_generator
    start = bit_generator.state["state"]
    value = generator.standard_normal()
    end = bit_generator.state["state"]["state"]
    state, words = start["state"], 0
    while state != end:
        state = (state * PCG64_MULTIPLIER + start["inc"]) & MASK_128
        words += 1
    return value, words


def _per_call(generator: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle: ``count`` alternating scalar calls."""
    values = [draw() for draw in (generator.standard_normal, generator.random) * count]
    return np.array(values[0::2], dtype=float), np.array(values[1::2], dtype=float)


def assert_same_draws(generator: np.random.Generator, twin: np.random.Generator,
                      count: int) -> None:
    normals, uniforms = normal_uniform_pairs(generator, count)
    expected_normals, expected_uniforms = _per_call(twin, count)
    where = f"count {count} ({NUMPY})"
    assert normals.tobytes() == expected_normals.tobytes(), where
    assert uniforms.tobytes() == expected_uniforms.tobytes(), where
    assert generator.bit_generator.state == twin.bit_generator.state, where


def test_a_crafted_state_draws_its_word():
    generator = np.random.default_rng(0)
    for high in (0, 1, 5 << 58, MASK_64):
        _craft(generator, 0x0123456789ABCDEF, high)
        assert int(generator.bit_generator.random_raw()) == 0x0123456789ABCDEF, NUMPY


def test_ziggurat_tables_are_numpys():
    """Every entry, probed as the tables were extracted: ``rabs = 1`` draws
    ``wi[idx]``; ``rabs = ki - 1`` is a one-word draw of ``(ki - 1) * wi``;
    ``rabs = ki`` reads a second word.  ``ki[1] == 0``: index 1 is always
    slow."""
    assert ZIGGURAT_KI.dtype == np.uint64 and ZIGGURAT_KI.shape == (256,)
    assert ZIGGURAT_WI.dtype == np.float64 and ZIGGURAT_WI.shape == (256,)
    assert ZIGGURAT_KI[0] == 0x000EF33D8025EF6A and ZIGGURAT_KI[1] == 0, NUMPY
    generator = np.random.default_rng(0)
    for index in range(256):
        ki, wi = int(ZIGGURAT_KI[index]), float(ZIGGURAT_WI[index])
        where = f"table index {index} ({NUMPY})"
        _craft(generator, _word(index, 1))
        assert _scalar_normal(generator)[0] == wi, where
        if ki:
            _craft(generator, _word(index, ki - 1))
            assert _scalar_normal(generator) == ((ki - 1) * wi, 1), where
        _craft(generator, _word(index, ki))
        assert _scalar_normal(generator)[1] > 1, where


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**64 - 1),
       st.one_of(st.integers(0, 8), st.integers(0, 2100)),
       st.booleans())
def test_matches_the_per_call_draws(seed, count, buffered):
    """Any seed and count; with a half-word buffered or not."""
    generator, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        generator.integers(0, 7), twin.integers(0, 7)
    assert_same_draws(generator, twin, count)


def test_a_buffered_half_word_survives_the_rewinds():
    """``advance`` clears PCG64's 32-bit buffer; the reader writes it back."""
    generator, twin = np.random.default_rng(11), np.random.default_rng(11)
    generator.integers(0, 7), twin.integers(0, 7)
    assert generator.bit_generator.state["has_uint32"] == 1
    assert_same_draws(generator, twin, 500)
    assert generator.integers(0, 2**32 - 1) == twin.integers(0, 2**32 - 1)


def _continuation(word: int, reads: int) -> int:
    """A ``high`` after which the normal drawn from ``word`` reads at least
    ``reads`` words."""
    generator = np.random.default_rng(0)
    for high in range(1, 1 << 16):
        _craft(generator, word, high)
        if _scalar_normal(generator)[1] >= reads:
            return high
    raise AssertionError(f"no continuation of {word:#x} reads {reads} words")


#: First words that force each slow branch: the tail beyond the last layer
#: (index 0: two words per try), index 1 (every ``rabs`` slow), and a wedge
#: test that rejects and draws again.
SLOW_WORDS = {
    "tail": (_word(0, RABS_MAX), 3),
    "tail_negative": (_word(0, RABS_MAX, negative=True), 3),
    "index_1": (_word(1, 12345), 2),
    "wedge_reject": (_word(200, RABS_MAX), 3),
}


@pytest.mark.parametrize("branch", sorted(SLOW_WORDS))
@pytest.mark.parametrize("count", [1, 2, 3, 64])
@pytest.mark.parametrize("buffer", [(0, 0), (1, 0xDEADBEEF), (0, 77)])
def test_slow_first_words(branch, count, buffer):
    """A slow normal first: with ``count == 1`` its uniform lies past the
    fetched block, which the normal has read past too."""
    word, reads = SLOW_WORDS[branch]
    high = _continuation(word, reads)
    generator, twin = np.random.default_rng(0), np.random.default_rng(0)
    _craft(generator, word, high, buffer)
    _craft(twin, word, high, buffer)
    assert_same_draws(generator, twin, count)


def test_only_pcg64_is_read():
    with pytest.raises(TypeError, match="PCG64"):
        normal_uniform_pairs(np.random.Generator(np.random.MT19937(1)), 3)
