"""Randomness helpers shared across layers.

The channel, mobility and fault layers derive per-(entity, counter)
uniforms that are a pure function of their inputs — the numpy equivalent of
a counter-based PRNG — so realisations never depend on query order.  The
mixer and the uniform it makes (:func:`counter_uniform`) live here, in one
place, so the layers cannot silently diverge.

:class:`WordStream` is the one reader of the main simulation generator: the
medium's reception and capture coins and every MAC's backoff draw read its
64-bit words in blocks, in call order, and so consume exactly the words the
per-call ``random(n) < p``, ``random() < q`` and ``integers(0, span)`` draws
would.
"""

from __future__ import annotations

import math

import numpy as np


def splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a vectorised counter-based uint64 mixer."""
    z = (values + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def counter_uniform(seed: int, stream: int, entities, counters) -> np.ndarray:
    """Counter-based uniforms in [0, 1), one per ``(entity, counter)`` pair.

    A pure function of ``(seed, stream, entity, counter)``: the seed mixed
    with a layer's private ``stream`` constant keys the entity (a link, a
    node), which keys the counter (a draw index, an epoch), each through
    :func:`splitmix64`; the top 53 bits of the result make the double, as
    numpy's ``random()`` makes one from a word.  ``entities`` and
    ``counters`` broadcast against each other.
    """
    key = np.uint64(((seed ^ stream) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    mixed = splitmix64(splitmix64(np.asarray(entities, dtype=np.uint64) + key)
                       + np.asarray(counters, dtype=np.uint64))
    return (mixed >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def threshold(probability: float) -> int:
    """The word bound of a coin of ``probability``: ``word < threshold(p)``
    exactly when ``random() < p`` on that word.

    numpy's ``next_double`` is ``(word >> 11) * 2**-53``, and scaling by a
    power of two is exact, so the comparison is ``word >> 11 < p * 2**53``,
    which for an integer left side is ``word >> 11 < ceil(p * 2**53)``, that
    is ``word < ceil(p * 2**53) << 11``.  ``p = 1`` gives ``2**64``, above
    every word; ``p = 0`` gives 0, below every word.
    """
    return math.ceil(probability * 9007199254740992.0) << 11


class WordStream:
    """The main generator's 64-bit words, read in blocks and served in order.

    Every consumer of one generator shares one stream: a block read by one
    consumer and a word read by the next are the words a per-call draw of
    each would have read, in the same order, because each kind of draw here
    consumes words exactly as its numpy counterpart does:

    * a coin, ``word() < threshold(p)`` (or :meth:`take` for a frame's worth
      of them), is ``random() < p``: one word each;
    * :meth:`bounded` is ``int(integers(0, span))``: numpy's Lemire rule over
      PCG64's ``next_uint32``, which splits a word into two 32-bit halves
      and buffers the high one (``has_uint32`` / ``uinteger``) for the next
      32-bit read; a coin reads a whole word and leaves that buffer alone.

    :meth:`generator` hands the generator back at its logical position: the
    unread words are rewound (``advance(-unread)``), the 32-bit buffer is
    written back — the stale ``uinteger`` numpy keeps after consuming it
    included — and the block is dropped.  Draws made on the handed-back
    generator are picked up by the next block, so direct draws and stream
    draws interleave as freely as direct draws alone.
    """

    #: Most words one fetch reads from the bit generator.
    BLOCK = 256

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError("WordStream reads a PCG64 generator's words, got "
                            f"{type(bit_generator).__name__}")
        self._generator = generator
        self._bit_generator = bit_generator
        self._block: list[int] = []
        self._next = 0
        #: Whether the stream holds the generator: the block and the 32-bit
        #: buffer below are the generator's logical state until handed back.
        self._held = False
        self._has_uint32 = 0
        self._uinteger = 0

    def _hold(self) -> None:
        state = self._bit_generator.state
        self._has_uint32 = state["has_uint32"]
        self._uinteger = state["uinteger"]
        self._held = True

    def _fill(self, count: int) -> None:
        """Keep the unread words and fetch until ``count`` are unread."""
        if not self._held:
            self._hold()
        block = self._block[self._next:]
        while len(block) < count:
            block += self._bit_generator.random_raw(self.BLOCK).tolist()
        self._block = block
        self._next = 0

    def take(self, count: int) -> list[int]:
        """The next ``count`` words: the coins of ``random(count) < p``."""
        start = self._next
        stop = start + count
        if stop > len(self._block):
            self._fill(count)
            start, stop = 0, count
        self._next = stop
        return self._block[start:stop]

    def word(self) -> int:
        """The next word: the coin of one ``random() < p``."""
        index = self._next
        if index == len(self._block):
            self._fill(1)
            index = 0
        self._next = index + 1
        return self._block[index]

    def _uint32(self) -> int:
        # PCG64's next_uint32: the buffered high half, else a fresh word's
        # low half, buffering its high half.
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self.word()
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & 0xFFFFFFFF

    def bounded(self, span: int) -> int:
        """``int(generator.integers(0, span))`` for ``1 <= span <= 2**32 - 1``.

        numpy draws such a scalar by Lemire's rule over 32-bit words
        (``random_bounded_uint64_fill``): ``m = uint32 * span``; when ``m``'s
        low 32 bits fall below ``span``, it redraws while they fall below
        ``(2**32 - span) % span``; the draw is ``m >> 32``.  ``span == 1``
        draws nothing.
        """
        if span == 1:
            return 0
        if not self._held:
            self._hold()
        product = self._uint32() * span
        if product & 0xFFFFFFFF < span:
            floor = (0x100000000 - span) % span
            while product & 0xFFFFFFFF < floor:
                product = self._uint32() * span
        return product >> 32

    def generator(self) -> np.random.Generator:
        """Hand the generator back at its logical position (see the class)."""
        if self._held:
            unread = len(self._block) - self._next
            bit_generator = self._bit_generator
            if unread:
                bit_generator.advance(-unread)
            state = bit_generator.state
            state["has_uint32"] = self._has_uint32
            state["uinteger"] = self._uinteger
            bit_generator.state = state
            self._block = []
            self._next = 0
            self._held = False
        return self._generator
