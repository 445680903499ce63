"""Differential tests: vectorized reception resolution vs the scalar loop.

The medium resolves all receivers of a completed frame in one vectorized
pass (batched RNG draws over the eligible receivers in node order, a single
delivery-row gather, a vectorized interference mask).  These tests drive
the medium and its scalar oracle (:class:`ScalarMedium`: every frame forced
through ``WirelessMedium._resolve_scalar``) with identical
transmission schedules across several topologies and seeds — mirroring
``tests/coding/test_vectorized_differential.py`` — and assert bit-identical
behaviour: the same receiver sets, the same statistics counters and the
same main-RNG stream position afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocols.more import setup_more_flow
from repro.sim.channels import GilbertElliott
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.medium import WirelessMedium
from repro.sim.radio import ChannelConfig, SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import (
    chain,
    grid,
    indoor_testbed,
    random_geometric,
)

SEEDS = (0, 1, 17)

TOPOLOGIES = {
    "indoor_testbed_20": lambda: indoor_testbed(node_count=20, floors=3, seed=7),
    "random_geometric_16": lambda: random_geometric(node_count=16, area=120.0, seed=2),
    "grid_4x4": lambda: grid(4, 4),
    "chain_5": lambda: chain(5, link_delivery=0.7, skip_delivery=0.2),
}


class ScalarMedium(WirelessMedium):
    """The oracle: every frame resolved by the reference per-node loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._static = False  # no per-sender resolution caches

    def _resolve_vectorized(self, sender, probabilities, overlapping):
        return None  # "a capture draw could interleave": take the scalar loop


#: The medium and its oracle: every test drives both and compares.
MEDIA = (WirelessMedium, ScalarMedium)


def _make_frame(sender: int) -> Frame:
    return Frame(sender=sender, receiver=BROADCAST, kind=FrameKind.DATA,
                 flow_id=1, size_bytes=1500)


def _drive_schedule(medium: WirelessMedium, schedule_rng: np.random.Generator,
                    node_count: int, rounds: int = 120) -> list[list[int]]:
    """Replay a randomized schedule with deliberate overlaps on ``medium``.

    About half the rounds start a second, overlapping transmission from a
    different sender, exercising half-duplex exclusion, the interference
    mask and (on suitable topologies) capture draws.  The schedule itself is
    drawn from ``schedule_rng`` so both media see identical traffic.
    """
    outcomes: list[list[int]] = []
    clock = 0.0
    airtime = 0.002
    for _ in range(rounds):
        clock += float(schedule_rng.uniform(0.001, 0.01))
        first = int(schedule_rng.integers(0, node_count))
        tx_a = medium.begin(_make_frame(first), now=clock, airtime=airtime,
                            bitrate=5_500_000)
        tx_b = None
        if schedule_rng.random() < 0.5:
            second = int(schedule_rng.integers(0, node_count))
            if second != first:
                offset = float(schedule_rng.uniform(0.0, airtime))
                tx_b = medium.begin(_make_frame(second), now=clock + offset,
                                    airtime=airtime, bitrate=5_500_000)
        outcomes.append(medium.complete(tx_a, now=clock + airtime))
        if tx_b is not None:
            outcomes.append(medium.complete(tx_b, now=tx_b.end))
            clock = tx_b.end
        else:
            clock += airtime
    return outcomes


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_vectorized_reception_bit_identical_to_scalar(topology_name, seed):
    """Same schedule, same seed: identical receivers, counters, RNG position."""
    topology = TOPOLOGIES[topology_name]()
    medium, oracle = (medium_class(topology, ChannelConfig(),
                                   np.random.default_rng(seed))
                      for medium_class in MEDIA)
    outcomes = [_drive_schedule(each, np.random.default_rng(seed + 5000),
                                topology.node_count)
                for each in (medium, oracle)]
    assert outcomes[0] == outcomes[1]
    for counter in ("transmissions", "receptions", "collisions", "captures"):
        assert getattr(medium, counter) == getattr(oracle, counter), counter
    # The decisive check: both implementations consumed the exact same
    # number of draws from the exact same stream.
    assert medium.rng.bit_generator.state == oracle.rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_capture_heavy_schedule_still_identical(seed):
    """A topology engineered for capture (large delivery margins) agrees too.

    Capture draws interleave with delivery draws, which the batched stream
    cannot reproduce; the vectorized path must detect this and fall back so
    the overall behaviour stays bit-identical.
    """
    # Strong wanted links (0.9) vs weak interferers (0.12): every overlap
    # puts the capture margin condition in play.
    delivery = np.array([
        [0.0, 0.0, 0.9, 0.9],
        [0.0, 0.0, 0.12, 0.12],
        [0.9, 0.12, 0.0, 0.5],
        [0.9, 0.12, 0.5, 0.0],
    ])
    from repro.topology.graph import Topology

    results = {}
    for medium_class in MEDIA:
        medium = medium_class(Topology(delivery),
                              ChannelConfig(capture_probability=0.7),
                              np.random.default_rng(seed))
        received = []
        clock = 0.0
        for _ in range(80):
            tx_a = medium.begin(_make_frame(0), now=clock, airtime=0.002,
                                bitrate=5_500_000)
            tx_b = medium.begin(_make_frame(1), now=clock + 0.0005, airtime=0.002,
                                bitrate=5_500_000)
            received.append(medium.complete(tx_a, now=clock + 0.002))
            received.append(medium.complete(tx_b, now=clock + 0.0025))
            clock += 0.01
        results[medium_class] = (received, medium.captures, medium.collisions,
                               medium.rng.bit_generator.state)
    assert results[WirelessMedium] == results[ScalarMedium]
    assert results[WirelessMedium][1] > 0  # the schedule actually exercised capture


@pytest.mark.parametrize("seed", (1, 7))
def test_full_more_transfer_identical_across_paths(seed, monkeypatch):
    """An end-to-end MORE transfer is invariant to the reception path."""
    topology = chain(3, link_delivery=0.7, skip_delivery=0.2)
    stats = {}
    for medium_class in MEDIA:
        monkeypatch.setattr("repro.sim.simulator.WirelessMedium", medium_class)
        sim = Simulator(topology, SimConfig(seed=seed))
        assert type(sim.medium) is medium_class
        setup_more_flow(sim, topology, 0, 3, total_packets=32, batch_size=16,
                        packet_size=256, coding_payload_size=16, seed=seed)
        sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
        record = next(iter(sim.stats.flows.values()))
        stats[medium_class] = (sim.now, record.delivered_packets, record.completed,
                             sim.medium.receptions, sim.medium.collisions,
                             sim.rng.bit_generator.state)
    assert stats[WirelessMedium] == stats[ScalarMedium]


@pytest.mark.parametrize("seed", (0, 3))
def test_vectorized_identity_holds_under_nonstatic_channel(seed):
    """Scalar and vectorized paths agree under a time-varying channel too.

    The channel model is queried once per completed frame in both paths, so
    the bursty Gilbert-Elliott stream advances identically.
    """
    topology = grid(3, 3)
    outcomes = {}
    for medium_class in MEDIA:
        medium = medium_class(
            topology, ChannelConfig(), np.random.default_rng(seed),
            model=GilbertElliott(seed=seed, mean_good_time=0.02,
                                 mean_bad_time=0.005))
        outcomes[medium_class] = _drive_schedule(
            medium, np.random.default_rng(seed + 100), topology.node_count,
            rounds=80)
    assert outcomes[WirelessMedium] == outcomes[ScalarMedium]
