"""``CoefficientStream`` is the generator's own stream, read in blocks.

The stream replaces two numpy calls on the coding path —
``Generator.integers(0, 256, size=n, dtype=uint8)`` behind every code
vector and scalar ``Generator.integers(1, 256)`` behind every fold
coefficient — by slices of 32-bit words fetched ahead.  That is only the
same stream because numpy consumes words by fixed rules (``ceil(n / 4)``
words per uint8 vector, low byte first; Lemire's bounded draw over one word
per scalar).  These tests hold the stream to the reference functions that
still make the numpy calls, on a twin generator, draw for draw: if numpy
ever changes either bounded-integer path, this is the file that says so.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.arithmetic import (
    CoefficientStream,
    random_code_vector,
    random_nonzero_coefficient,
)

#: Named in every failure: the rules above are this numpy's.
NUMPY = f"numpy {np.__version__}"

#: None is a scalar (fold coefficient) draw; an int a code vector that long.
DRAWS = st.lists(st.one_of(st.none(), st.integers(1, 128)), min_size=1, max_size=80)


def short_stream(rng: np.random.Generator, block: int) -> CoefficientStream:
    """A stream that refills every ``block`` words, so that draws straddle
    refills (a vector longer than a block included)."""
    cut = type("ShortStream", (CoefficientStream,), {"BLOCK": block, "__slots__": ()})
    return cut(rng)


def assert_same_draws(stream: CoefficientStream, twin: np.random.Generator,
                      draws: list[int | None]) -> None:
    for index, count in enumerate(draws):
        where = f"draw {index} of {draws} ({NUMPY})"
        if count is None:
            assert stream.nonzero_coefficient() == random_nonzero_coefficient(twin), where
        else:
            vector = stream.code_vector(count)
            assert vector.__class__ is bytes and len(vector) == count, where
            assert vector == random_code_vector(count, twin).tobytes(), where


@given(seed=st.integers(0, 2**32 - 1), draws=DRAWS,
       block=st.sampled_from([1, 2, 3, 7, 33, CoefficientStream.BLOCK]))
@settings(max_examples=100, deadline=None)
def test_stream_equals_the_numpy_draws_on_a_twin_generator(seed, draws, block):
    assert_same_draws(short_stream(np.random.default_rng((seed, 3)), block),
                      np.random.default_rng((seed, 3)), draws)


def test_a_long_run_of_mixed_draws_at_the_real_block_size():
    control = np.random.default_rng(0)
    draws = [None if control.random() < 0.4 else int(control.integers(1, 129))
             for _ in range(5000)]
    assert_same_draws(CoefficientStream(np.random.default_rng((9, 4))),
                      np.random.default_rng((9, 4)), draws)


#: Which of the crafted generator's first 32-bit words are 0.
ZERO_WORDS = (0, 2, 3, 6, 7)


def generator_with_zero_words(seed: int = 1) -> np.random.Generator:
    """A real generator whose words at ``ZERO_WORDS`` are 0: MT19937 hands
    out its key words in order, tempered, and tempering maps 0 to 0."""
    bit_generator = np.random.MT19937(seed)
    state = bit_generator.state
    state["state"]["key"][list(ZERO_WORDS)] = 0
    state["state"]["pos"] = 0
    bit_generator.state = state
    return np.random.Generator(bit_generator)


@pytest.mark.parametrize("draws", [
    [4, 4, None, None],     # words 0 | 1 || 2, 3 | 4 || 5 || 6, 7 | 8
    [None, None, 5, None],  # Lemire rejects the word 0, and only it
    [8, 8, 8],              # half-zero stays; words 2-3 are one all-zero vector
    [1, 1, 1, 9],
], ids=repr)
def test_zero_words_are_redrawn_as_numpy_redraws_them(draws):
    """The per-vector all-zero re-draw and the bounded draw's rejection, on a
    generator made to produce what a fair one almost never does."""
    words = generator_with_zero_words().integers(0, 1 << 32, size=9, dtype=np.uint32)
    assert [index for index, word in enumerate(words) if word == 0] == list(ZERO_WORDS)
    for block in (1, 2, CoefficientStream.BLOCK):
        assert_same_draws(short_stream(generator_with_zero_words(), block),
                          generator_with_zero_words(), draws)


def test_nothing_is_drawn_before_the_first_request():
    """A node that never codes leaves its generator as it was seeded."""
    rng = np.random.default_rng((5, 2))
    stream = CoefficientStream(rng)
    assert rng.bit_generator.state == np.random.default_rng((5, 2)).bit_generator.state
    stream.code_vector(1)
    assert rng.bit_generator.state != np.random.default_rng((5, 2)).bit_generator.state


def test_vectors_are_bytes_that_later_draws_leave_alone():
    """A code vector is an immutable slice of the fetched words: the
    refills and draws after it (a forwarder folds copies of what it is
    handed) cannot reach it."""
    stream = short_stream(np.random.default_rng(8), 9)
    twin = np.random.default_rng(8)
    vectors = [stream.code_vector(32) for _ in range(5)]  # straddling refills
    assert all(vector.__class__ is bytes for vector in vectors)
    assert vectors == [random_code_vector(32, twin).tobytes() for _ in range(5)]


@pytest.mark.parametrize("count", [0, -1])
def test_an_empty_code_vector_is_refused(count, deadline):
    """``random_code_vector(0, rng)`` used to compare ``b"" == b""`` forever."""
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="at least one coefficient"):
        random_code_vector(count, rng)
    with pytest.raises(ValueError, match="at least one coefficient"):
        CoefficientStream(rng).code_vector(count)
