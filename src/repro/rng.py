"""Randomness helpers shared across layers.

The channel, mobility and fault layers derive per-(entity, counter)
uniforms that are a pure function of their inputs — the numpy equivalent of
a counter-based PRNG — so realisations never depend on query order.  The
mixer lives here, in one place, so the layers cannot silently diverge.

:func:`bounded_draw` is the MAC's scalar backoff draw on the main
simulation generator, without numpy's per-call argument handling.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a vectorised counter-based uint64 mixer."""
    z = (values + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bounded_draw(generator: np.random.Generator) -> Callable[[int], int]:
    """``draw(span)``: exactly ``int(generator.integers(0, span))`` for
    ``1 <= span <= 2**32 - 1``, at a fraction of the per-call cost.

    numpy draws such a scalar by Lemire's rule over the bit generator's own
    32-bit words (``random_bounded_uint64_fill``): ``m = word * span``; when
    ``m``'s low 32 bits fall below ``span``, it redraws while they fall
    below ``(2**32 - span) % span``; the draw is ``m >> 32``.  ``span == 1``
    draws nothing.  ``draw`` applies the same rule to the same C
    ``next_uint32``, reached through numpy's public ``BitGenerator.ctypes``
    interface, so the generator's state — its buffered half-word included —
    advances exactly as under ``integers``, and its other draws interleave
    unchanged.  Most of what a scalar ``integers`` call costs is the
    argument handling and scalar boxing around that word, not the word.
    """
    bit_generator = generator.bit_generator
    interface = bit_generator.ctypes
    next_uint32 = interface.next_uint32
    state = interface.state

    # ``_owner`` keeps the bit generator, which ``state`` points into, alive
    # for as long as ``draw`` is.
    def draw(span: int, *, _owner: object = bit_generator) -> int:
        if span == 1:
            return 0
        product: int = next_uint32(state) * span
        if product & 0xFFFFFFFF < span:
            threshold = (0x100000000 - span) % span
            while product & 0xFFFFFFFF < threshold:
                product = next_uint32(state) * span
        return product >> 32

    return draw
