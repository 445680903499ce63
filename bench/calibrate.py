"""The calibration kernel: a fixed amount of simulator-shaped work.

``norm_cost`` divides the CPU seconds of a timed repetition by the CPU
seconds of the calibration slices run immediately before and after it, so a
host that runs 15% slower for a minute (a busy sibling core, a frequency
step, a noisy neighbour on the hypervisor) slows numerator and denominator
alike and the quotient stays put.  That only works if the kernel reacts to
the host the way the simulator does, so it is built from the simulator's
own instruction mix: heap push/pop of ``(time, seq, target)`` tuples, an
integer LCG, bound-method and dict dispatch, and small ``uint8`` numpy
gathers, XOR-reduces and generator draws.

The kernel belongs to the benchmark, not to the program: it imports
nothing from ``repro``, and its iteration count is a constant, so one
calibration unit (cu) means the same work at every commit.  Changing
``ROUNDS`` or the loop body re-bases every ``norm_cost`` ever recorded.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Loop iterations per slice: about 0.14 s on the 2-core reference host, so a
#: unit is normalised by 0.28 s of calibration (the slice before it and the one
#: after).  On recorded series the quotient scattered no more with 0.14 s
#: slices than with 0.84 s ones, and shorter slices leave the run's seconds to
#: the units, whose number is what steadies the median.
ROUNDS = 50_000

_HEAP_DEPTH = 64       # pending events, about a busy testbed run's queue
_ARRAY_EVERY = 8       # one numpy step per this many scheduler steps
_FIELD = 256


class _Target:
    """Stands in for a MAC/agent pair: a few handlers behind a dict."""

    __slots__ = ("total", "handlers")

    def __init__(self) -> None:
        self.total = 0
        self.handlers = {0: self.on_timer, 1: self.on_frame, 2: self.on_ack}

    def on_timer(self, value: int) -> None:
        self.total += value & 3

    def on_frame(self, value: int) -> None:
        self.total ^= value

    def on_ack(self, value: int) -> None:
        self.total += 1


def run_slice(rounds: int = ROUNDS) -> tuple[float, int]:
    """Run one calibration slice; return ``(cpu_seconds, checksum)``.

    The checksum depends on every step, so none of the work can be skipped,
    and it is the same on every call: callers may assert it.
    """
    table = (np.arange(_FIELD, dtype=np.uint16)[:, None]
             * np.arange(_FIELD, dtype=np.uint16)[None, :] % 251).astype(np.uint8)
    rows = np.arange(32 * 48, dtype=np.uint32).reshape(32, 48).astype(np.uint8)
    accumulator = np.zeros(48, dtype=np.uint8)
    delivery = np.linspace(0.05, 0.95, 20)
    rng = np.random.default_rng(20070827)
    targets = [_Target() for _ in range(8)]
    heap: list[tuple[float, int, _Target]] = []
    push, pop = heapq.heappush, heapq.heappop
    state = 12345
    heard = 0

    started = time.process_time()
    for sequence in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (state * 1e-6, sequence, targets[state & 7]))
        if len(heap) > _HEAP_DEPTH:
            _, fired, target = pop(heap)
            target.handlers[fired % 3](state)
        if sequence % _ARRAY_EVERY == 0:
            coefficients = rows[state & 31, :32]
            accumulator ^= np.bitwise_xor.reduce(table[coefficients[:, None], rows], axis=0)
            heard += int(np.count_nonzero(rng.random(20) < delivery))
    elapsed = time.process_time() - started

    checksum = (sum(target.total for target in targets) + heard
                + int(accumulator.sum())) & 0xFFFFFFFF
    return elapsed, checksum
