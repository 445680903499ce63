"""Fixture: a pair picker whose default seed is the host clock (reconstructed).

``seed=None`` was meant as "any seed will do".  Deriving it from the clock
makes two runs of one spec pick different pairs, so a cached cell and a
fresh one, or a serial sweep and a pooled one, stop agreeing — and no test
that passes a seed ever sees it.  The generator *is* seeded, so only the
wall-clock read gives it away: the construct DET001 exists to reject.
"""

import time

import numpy as np


def pick_pairs(node_count, count, seed=None):
    if seed is None:
        seed = int(time.time())
    rng = np.random.default_rng(seed)
    return [tuple(rng.choice(node_count, size=2, replace=False))
            for _ in range(count)]
