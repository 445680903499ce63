"""``repro.rng.bounded_draw`` is ``Generator.integers(0, span)``, word for word.

The MAC's backoff draw skips numpy's per-call wrapper: it applies Lemire's
bounded rule to the bit generator's own C ``next_uint32``, read through
``BitGenerator.ctypes``.  That is only the same stream because numpy reads
words by that rule, through that function, sharing its buffered half-word
with every other draw on the generator.  These tests hold the draw to
``integers`` on a twin generator, value and state after every step, while
the medium's ``random(n)`` / ``random()`` interleave on the same generator:
if numpy ever changes its bounded-integer path, this is the file that says so.
"""

from __future__ import annotations

import gc
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import bounded_draw

#: Named in every failure: the rule above is this numpy's.
NUMPY = f"numpy {np.__version__}"

#: Backoff spans (a window of w slots is a span of w + 1; span 1, a
#: ``cw_min=0`` first window, reads no word), and spans above 2**31, where
#: Lemire's rule rejects up to half of all words.
SPANS = st.one_of(st.sampled_from([1, 2]), st.integers(16, 1024),
                  st.integers(2**31, 2**32 - 1))

#: ("draw", span) | ("block", n): the medium's batched ``random(n)`` |
#: ("scalar", None): its capture draw, ``random()``.
STEPS = st.lists(st.one_of(st.tuples(st.just("draw"), SPANS),
                           st.tuples(st.just("block"), st.integers(0, 5)),
                           st.tuples(st.just("scalar"), st.none())),
                 min_size=1, max_size=60)


def assert_same_stream(generator: np.random.Generator, twin: np.random.Generator,
                       steps: list[tuple[str, int | None]]) -> None:
    draw = bounded_draw(generator)
    for index, (kind, argument) in enumerate(steps):
        where = f"step {index} of {steps} ({NUMPY})"
        if kind == "draw":
            assert draw(argument) == int(twin.integers(0, argument)), where
        elif kind == "block":
            assert generator.random(argument).tolist() == twin.random(argument).tolist(), where
        else:
            assert generator.random() == twin.random(), where
        assert generator.bit_generator.state == twin.bit_generator.state, where


@given(seed=st.integers(0, 2**32 - 1), steps=STEPS)
@settings(max_examples=200, deadline=None)
def test_draws_equal_integers_on_a_twin_generator(seed, steps):
    assert_same_stream(np.random.default_rng(seed), np.random.default_rng(seed), steps)


def test_a_long_run_of_backoffs_among_reception_draws():
    control = np.random.default_rng(0)
    steps: list[tuple[str, int | None]] = []
    for _ in range(5000):
        roll = control.random()
        if roll < 0.5:
            steps.append(("draw", 32 << int(control.integers(0, 6))))
        elif roll < 0.6:
            steps.append(("draw", int(control.integers(2**31, 2**32))))
        elif roll < 0.9:
            steps.append(("block", int(control.integers(0, 8))))
        else:
            steps.append(("scalar", None))
    assert_same_stream(np.random.default_rng(17), np.random.default_rng(17), steps)


@pytest.mark.parametrize("span", [2**31 + 1, 2**32 - 1])
def test_rejected_words_are_redrawn_as_numpy_redraws_them(span):
    """At 2**31 + 1 about half of all words are rejected and redrawn."""
    assert_same_stream(np.random.default_rng(11), np.random.default_rng(11),
                       [("draw", span)] * 300)


def test_the_draw_keeps_its_generator_alive():
    """``draw`` reads through a raw pointer into the bit generator's state,
    so it holds the generator itself: dropping every other reference must
    not free that state under it."""
    draw = bounded_draw(np.random.default_rng(5))
    gc.collect()
    decoys = [np.random.default_rng(seed) for seed in range(100, 150)]
    twin = np.random.default_rng(5)
    assert [draw(1000) for _ in range(100)] == [int(twin.integers(0, 1000))
                                                for _ in range(100)]
    assert len(decoys) == 50


def test_only_repro_rng_reads_a_bit_generators_ctypes():
    """One module owns the raw word interface; everything else draws
    through a ``Generator`` method or through ``bounded_draw``."""
    package = Path(__file__).resolve().parents[2] / "src" / "repro"
    reads = re.compile(r"\.ctypes\b")
    assert sorted(path.relative_to(package).as_posix()
                  for path in package.rglob("*.py")
                  if reads.search(path.read_text(encoding="utf-8"))) == ["rng.py"]
