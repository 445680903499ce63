"""``repro.rng.WordStream`` reads the main generator as the per-call draws do.

The medium's reception and capture coins and every MAC's backoff draw share
one stream over the main generator's 64-bit words, fetched in blocks.  That
is only the same stream because each kind of draw consumes words exactly as
its numpy counterpart does: a coin ``word < threshold(p)`` is one
``random() < p`` (numpy's ``next_double`` reads one word), and ``bounded``
is ``integers(0, span)``: Lemire's rule over PCG64's ``next_uint32``, which
splits a word and buffers its high half for the next 32-bit read.  These
tests hold the stream to a twin generator drawing per call, value for value,
and to the twin's full ``bit_generator.state`` at every hand-back, with
direct draws on the handed-back generator in between: if numpy ever changes
how these draws read words, this is the file that says so.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.more import setup_more_flow
from repro.rng import WordStream, threshold
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import chain

#: Named in every failure: the rules above are this numpy's.
NUMPY = f"numpy {np.__version__}"

#: Backoff spans (a window of w slots is a span of w + 1; span 1, a
#: ``cw_min=0`` first window, reads no word), and spans above 2**31, where
#: Lemire's rule rejects up to half of all words.
SPANS = st.one_of(st.sampled_from([1, 2]), st.integers(16, 1024),
                  st.integers(2**31, 2**32 - 1))

#: The probabilities where a coin's word bound is easiest to get wrong: the
#: smallest subnormal, the largest double below 1, and 1 itself (a bound of
#: 2**64, above every word).
EDGE_PROBABILITIES = (5e-324, 0.1, 0.5, math.nextafter(1.0, 0.0), 1.0)
PROBABILITIES = st.one_of(st.sampled_from((0.0, *EDGE_PROBABILITIES)),
                          st.floats(0.0, 1.0))

#: What a caller may draw on a handed-back generator before the stream
#: reads on: a bounded integer (which may leave a half-word buffered), a
#: scalar uniform, a block of uniforms.
DIRECT = st.lists(st.one_of(st.tuples(st.just("integers"), SPANS),
                            st.tuples(st.just("random"), st.none()),
                            st.tuples(st.just("random"), st.integers(0, 5))),
                  max_size=3)

#: ("bounded", span): a MAC's backoff | ("coins", row): a frame's reception
#: coins | ("capture", q): one capture coin | ("hand back", direct draws).
STEPS = st.lists(st.one_of(st.tuples(st.just("bounded"), SPANS),
                           st.tuples(st.just("coins"),
                                     st.lists(PROBABILITIES, max_size=8)),
                           st.tuples(st.just("capture"), PROBABILITIES),
                           st.tuples(st.just("hand back"), DIRECT)),
                 min_size=1, max_size=60)


def _direct_draw(generator: np.random.Generator, kind: str, argument):
    if kind == "integers":
        return int(generator.integers(0, argument))
    if argument is None:
        return generator.random()
    return generator.random(argument).tolist()


def assert_same_stream(seed: int, steps: list) -> None:
    stream = WordStream(np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    for index, (kind, argument) in enumerate(steps):
        where = f"step {index}, {kind} {argument} ({NUMPY})"
        if kind == "bounded":
            assert stream.bounded(argument) == int(twin.integers(0, argument)), where
        elif kind == "coins":
            bounds = [threshold(probability) for probability in argument]
            coins = [word < bound for word, bound
                     in zip(stream.take(len(bounds)), bounds)]
            assert coins == (twin.random(len(argument))
                             < np.array(argument, dtype=float)).tolist(), where
        elif kind == "capture":
            assert (stream.word() < threshold(argument)) \
                == (twin.random() < argument), where
        else:
            generator = stream.generator()
            assert generator.bit_generator.state == twin.bit_generator.state, where
            for draw in argument:
                assert _direct_draw(generator, *draw) == _direct_draw(twin, *draw), where
    assert stream.generator().bit_generator.state == twin.bit_generator.state, \
        f"after {len(steps)} steps ({NUMPY})"


@given(seed=st.integers(0, 2**32 - 1), steps=STEPS)
@settings(max_examples=200, deadline=None)
def test_the_stream_equals_per_call_draws_on_a_twin_generator(seed, steps):
    assert_same_stream(seed, steps)


def test_a_long_run_of_backoffs_among_reception_coins():
    """Thousands of draws across many blocks, rows longer than a block
    included, with a hand-back now and then."""
    control = np.random.default_rng(0)
    steps: list = []
    for _ in range(5000):
        roll = control.random()
        if roll < 0.45:
            steps.append(("bounded", 32 << int(control.integers(0, 6))))
        elif roll < 0.55:
            steps.append(("bounded", int(control.integers(2**31, 2**32))))
        elif roll < 0.85:
            steps.append(("coins", control.random(int(control.integers(0, 12))).tolist()))
        elif roll < 0.95:
            steps.append(("capture", 0.7))
        elif roll < 0.99:
            steps.append(("hand back", [("integers", 1024), ("random", None)]))
        else:
            steps.append(("coins", control.random(3 * WordStream.BLOCK + 5).tolist()))
    assert_same_stream(17, steps)


@pytest.mark.parametrize("span", [2**31 + 1, 2**32 - 1])
def test_rejected_words_are_redrawn_as_numpy_redraws_them(span):
    """At 2**31 + 1 about half of all words are rejected and redrawn."""
    assert_same_stream(11, [("bounded", span)] * 300 + [("hand back", [])])


def test_a_hand_back_keeps_the_stale_half_word():
    """numpy leaves ``uinteger`` stale once ``has_uint32`` drops to 0, and a
    state comparison sees it (the golden ``rng_state`` pins that value):
    the hand-back writes the stale half back, not the 0 ``advance`` leaves."""
    stream = WordStream(np.random.default_rng(3))
    twin = np.random.default_rng(3)
    for _ in range(2):  # the low half of one word, then its buffered high half
        assert stream.bounded(1000) == int(twin.integers(0, 1000))
    stream.take(5)
    twin.random(5)
    state = stream.generator().bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) \
        == (0, twin.bit_generator.state["uinteger"])
    assert state["uinteger"] != 0
    assert state == twin.bit_generator.state


def test_a_hand_back_keeps_a_buffered_half_word():
    """One bounded draw leaves the high half buffered: the handed-back
    generator's next 32-bit read is that half, as on the twin."""
    stream = WordStream(np.random.default_rng(4))
    twin = np.random.default_rng(4)
    assert stream.bounded(50) == int(twin.integers(0, 50))
    stream.take(3)
    twin.random(3)
    generator = stream.generator()
    assert generator.bit_generator.state["has_uint32"] == 1
    assert generator.bit_generator.state == twin.bit_generator.state
    assert int(generator.integers(0, 2**32 - 1)) == int(twin.integers(0, 2**32 - 1))


def test_only_a_pcg64_generator_is_read():
    """The half-word buffer and ``advance`` the stream relies on are PCG64's."""
    with pytest.raises(TypeError, match="PCG64 generator's words, got MT19937"):
        WordStream(np.random.Generator(np.random.MT19937(1)))


def test_no_block_outlives_a_run():
    """``Simulator.run`` hands the generator back: read directly after a run,
    its state is already the logical position a hand-back would restore."""
    topology = chain(3, link_delivery=0.7, skip_delivery=0.2)
    sim = Simulator(topology, SimConfig(seed=2))
    setup_more_flow(sim, topology, 0, 3, total_packets=16, batch_size=8,
                    packet_size=256, coding_payload_size=16, seed=2)
    generator = sim.rng
    sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
    after_run = generator.bit_generator.state
    assert after_run != np.random.default_rng(2).bit_generator.state
    assert sim.rng.bit_generator.state == after_run


#: Words at and around a probability's bound: off-by-one errors live there.
@st.composite
def words_near_bounds(draw):
    probability = draw(PROBABILITIES)
    word = draw(st.one_of(
        st.integers(0, 2**64 - 1),
        st.integers(-4096, 4096).map(lambda delta: threshold(probability) + delta)))
    return min(max(word, 0), 2**64 - 1), probability


@given(pair=words_near_bounds())
@settings(max_examples=500, deadline=None)
def test_a_coin_is_numpys_next_double_comparison(pair):
    """``word < threshold(p)`` exactly when ``(word >> 11) * 2**-53 < p``."""
    word, probability = pair
    assert (word < threshold(probability)) == ((word >> 11) * 2.0**-53 < probability)


@pytest.mark.parametrize("probability", EDGE_PROBABILITIES)
def test_the_bound_sits_between_the_last_word_in_and_the_first_out(probability):
    bound = threshold(probability)
    assert (bound - 1 >> 11) * 2.0**-53 < probability
    assert bound == 2**64 or not (bound >> 11) * 2.0**-53 < probability


def test_certain_and_impossible_coins():
    assert threshold(1.0) == 2**64
    assert threshold(0.0) == 0
    assert threshold(5e-324) == 2048


def test_only_repro_rng_reads_raw_words():
    """One module owns the raw word interface, and reads it through
    ``random_raw`` alone: no module holds a pointer into a bit generator's
    state (``BitGenerator.ctypes``)."""
    package = Path(__file__).resolve().parents[2] / "src" / "repro"
    sources = {path.relative_to(package).as_posix(): path.read_text(encoding="utf-8")
               for path in package.rglob("*.py")}
    assert [name for name, text in sources.items() if re.search(r"\.ctypes\b", text)] == []
    assert [name for name, text in sources.items()
            if re.search(r"\brandom_raw\b", text)] == ["rng.py"]
