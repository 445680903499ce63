"""Differential tests: the reception plan and its words vs the scalar loop,
and the link-derived sense rows and plans vs the dense rules.

The medium resolves a completed frame from a reception plan (the eligible
receivers in node order, their coins' word bounds, the interference mask,
the capture chains) and the main generator's words, read in order.  These
tests drive the medium and its scalar oracle (:class:`ScalarMedium`: every
frame decided by ``WirelessMedium._resolve_scalar`` on the handed-back
generator) with identical transmission schedules
across several topologies, seeds and channel models — mirroring
``tests/coding/test_vectorized_differential.py`` — and assert bit-identical
behaviour: the same receiver sets, the same statistics counters and the
same main-RNG stream position afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocols.more import setup_more_flow
from repro.rng import threshold
from repro.sim.channels import GilbertElliott
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.medium import WirelessMedium, sense_row
from repro.sim.radio import (
    CAPTURE_MARGIN,
    INTERFERENCE_THRESHOLD,
    SENSE_THRESHOLD,
    SimConfig,
)
from repro.sim.simulator import Simulator
from repro.topology.generator import (
    chain,
    grid,
    indoor_testbed,
    random_geometric,
)
from repro.topology.graph import LinkTable, Topology

SEEDS = (0, 1, 17)

TOPOLOGIES = {
    "indoor_testbed_20": lambda: indoor_testbed(node_count=20, floors=3, seed=7),
    "random_geometric_16": lambda: random_geometric(node_count=16, area=120.0, seed=2),
    "grid_4x4": lambda: grid(4, 4),
    "chain_5": lambda: chain(5, link_delivery=0.7, skip_delivery=0.2),
}


def _spread(table: LinkTable, sender: int, row: np.ndarray) -> np.ndarray:
    """A delivery row over ``sender``'s links in ``table``, spread over every node."""
    dense = np.zeros(table.indptr.size - 1)
    dense[table.receivers[table.indptr[sender]:table.indptr[sender + 1]]] = row
    return dense


class ScalarMedium(WirelessMedium):
    """The oracle: every frame decided by the reference per-node loop."""

    def _resolve(self, plan, sender, row, overlapping):
        # A static channel's frame delivers as the table's row.
        table = self._links.link_table()
        dense = table.row(sender) if row is None else _spread(table, sender, row)
        return self._resolve_scalar(sender, dense, overlapping)


#: The medium and its oracle: every test drives both and compares.
MEDIA = (WirelessMedium, ScalarMedium)

#: Every kind of frame a plan can describe.
PLAN_BRANCHES = {"no interferer", "own frame", "one interferer",
                 "two interferers", "capture"}


class BranchRecordingMedium(WirelessMedium):
    """The medium under test, noting which kind of plan each frame was
    resolved from (plans may be shared, so the frame is what is noted)."""

    def __init__(self, *args, **kwargs) -> None:
        self.branches: set[str] = set()
        super().__init__(*args, **kwargs)

    def _resolve(self, plan, sender, row, overlapping):
        senders = [other.frame.sender for other in overlapping]
        interferers = set(senders) - {sender}
        if plan[3] is not None:
            self.branches.add("capture")
        elif interferers:
            self.branches.add(("one interferer", "two interferers")[len(interferers) - 1])
        else:
            self.branches.add("own frame" if senders else "no interferer")
        return super()._resolve(plan, sender, row, overlapping)


def _make_frame(sender: int) -> Frame:
    return Frame(sender=sender, receiver=BROADCAST, kind=FrameKind.DATA,
                 flow_id=1, size_bytes=1500)


def _drive_schedule(medium: WirelessMedium, schedule_rng: np.random.Generator,
                    node_count: int, rounds: int = 120) -> list[list[int]]:
    """Replay a randomized schedule with deliberate overlaps on ``medium``.

    A round puts up to three frames on the air at once: about a third of
    the rounds add one overlapping frame and a quarter add two, from any
    node — the round's first sender included, so a sender's own frames
    overlap now and then.  That exercises half-duplex exclusion, one and
    two interferers, the interference mask and (on suitable topologies)
    capture draws.  The schedule is drawn from ``schedule_rng`` so both
    media see identical traffic.
    """
    outcomes: list[list[int]] = []
    clock = 0.0
    airtime = 0.002
    for _ in range(rounds):
        clock += float(schedule_rng.uniform(0.001, 0.01))
        first = int(schedule_rng.integers(0, node_count))
        on_air = [medium.begin(_make_frame(first), now=clock, airtime=airtime)]
        extra = int(schedule_rng.choice(3, p=(0.4, 0.35, 0.25)))
        for offset in sorted(schedule_rng.uniform(0.0, airtime, size=extra).tolist()):
            sender = int(schedule_rng.integers(0, node_count))
            on_air.append(medium.begin(_make_frame(sender), now=clock + offset,
                                       airtime=airtime))
        for transmission in on_air:
            outcomes.append(medium.complete(transmission, now=transmission.end))
        clock = on_air[-1].end
    return outcomes


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_vectorized_reception_bit_identical_to_scalar(topology_name, seed):
    """Same schedule, same seed: identical receivers, counters, RNG position."""
    topology = TOPOLOGIES[topology_name]()
    medium, oracle = (medium_class(topology, np.random.default_rng(seed))
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


def _refuse_the_oracle(*args):
    raise AssertionError("the medium under test reached the oracle")


@pytest.mark.parametrize("seed", SEEDS)
def test_capture_heavy_schedule_still_identical(seed, monkeypatch):
    """A topology engineered for capture (large delivery margins) agrees too.

    Capture coins interleave with reception coins: a receiver whose coin
    delivers reads one capture coin per capturable interferer before the
    next receiver's coin.  The medium under test resolves these frames from
    their plans' capture chains, never from the oracle.
    """
    # Strong wanted links (0.9) vs weak interferers (0.12): every overlap
    # puts the capture margin condition in play.
    delivery = np.array([
        [0.0, 0.0, 0.9, 0.9],
        [0.0, 0.0, 0.12, 0.12],
        [0.9, 0.12, 0.0, 0.5],
        [0.9, 0.12, 0.5, 0.0],
    ])

    results = {}
    for medium_class in MEDIA:
        medium = medium_class(Topology(delivery), np.random.default_rng(seed))
        if medium_class is WirelessMedium:
            monkeypatch.setattr(medium, "_resolve_scalar", _refuse_the_oracle)
        received = []
        clock = 0.0
        for _ in range(80):
            tx_a = medium.begin(_make_frame(0), now=clock, airtime=0.002)
            tx_b = medium.begin(_make_frame(1), now=clock + 0.0005, airtime=0.002)
            received.append(medium.complete(tx_a, now=clock + 0.002))
            received.append(medium.complete(tx_b, now=clock + 0.0025))
            clock += 0.01
        results[medium_class] = (received, medium.captures, medium.collisions,
                               medium.rng.bit_generator.state)
    assert results[WirelessMedium] == results[ScalarMedium]
    assert results[WirelessMedium][1] > 0  # the schedule actually exercised capture
    assert results[WirelessMedium][2] > 0  # and captures that failed


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
            topology, np.random.default_rng(seed),
            model=GilbertElliott(seed=seed, mean_good_time=0.02,
                                 mean_bad_time=0.005))
        outcomes[medium_class] = _drive_schedule(
            medium, np.random.default_rng(seed + 100), topology.node_count,
            rounds=80)
    assert outcomes[WirelessMedium] == outcomes[ScalarMedium]


@pytest.mark.parametrize("channel", ("static", "gilbert_elliott"))
@pytest.mark.parametrize("seed", SEEDS)
def test_every_plan_branch_meets_the_oracle(channel, seed):
    """No interferer, the sender's own frame, one and two interferers and
    capture: each kind of plan is met, and the oracle agrees on all of them."""
    topology = TOPOLOGIES["indoor_testbed_20"]()
    results = {}
    for medium_class in (BranchRecordingMedium, ScalarMedium):
        model = None if channel == "static" else GilbertElliott(
            seed=seed, mean_good_time=0.02, mean_bad_time=0.005)
        medium = medium_class(topology, np.random.default_rng(seed), model=model)
        outcomes = _drive_schedule(medium, np.random.default_rng(seed + 100),
                                   topology.node_count, rounds=200)
        results[medium_class] = (outcomes, medium.receptions, medium.collisions,
                                 medium.captures, medium.rng.bit_generator.state)
        if medium_class is BranchRecordingMedium:
            assert medium.branches == PLAN_BRANCHES
    assert results[BranchRecordingMedium] == results[ScalarMedium]


# --------------------------------------------------------------------------- #
# The link-derived tables vs the dense rules they replaced
# --------------------------------------------------------------------------- #


def _dense_plan(delivery: np.ndarray, sender: int, row: np.ndarray,
                senders: tuple[int, ...]) -> tuple:
    """``WirelessMedium._plan`` as it read the N×N matrix, verbatim."""
    eligible = row > 0.0
    eligible[sender] = False
    eligible[list(senders)] = False
    indices = np.nonzero(eligible)[0]
    probabilities = row[indices]
    receivers = tuple(indices.tolist())
    thresholds = tuple(map(threshold, probabilities.tolist()))
    interferers = [other for other in senders if other != sender]
    if not interferers:
        return receivers, thresholds, None, None
    levels = delivery[interferers][:, indices]
    audible = levels > INTERFERENCE_THRESHOLD
    capturable = audible & (probabilities - levels >= CAPTURE_MARGIN)
    if capturable.any():
        chains = tuple(tuple(saved for heard, saved in zip(heard_by, saved_by)
                             if heard)
                       for heard_by, saved_by in zip(audible.T.tolist(),
                                                     capturable.T.tolist()))
        return receivers, thresholds, None, chains
    corrupted = audible.any(axis=0)
    survivable = tuple((~corrupted).tolist()) if corrupted.any() else None
    return receivers, thresholds, survivable, None


def _overlap_sets(delivery: np.ndarray, sender: int,
                  rng: np.random.Generator) -> list[tuple[int, ...]]:
    """What can overlap a frame of ``sender``: nothing, its own frame,
    frames of one or two nodes within two hops of it (where interference is
    audible), the sender's own among them now and then, and a frame from
    any node at all."""
    near = np.flatnonzero(delivery[sender])
    near = np.union1d(near, np.flatnonzero(delivery[near].any(axis=0)))
    near = near[near != sender]
    first, second = (int(node) for node in rng.choice(near, size=2))
    anywhere = int(rng.integers(0, len(delivery)))
    return [(), (sender,), (first,), (first, second), (second, sender, first),
            (anywhere,)]


def _plan_kind(plan: tuple, sender: int, senders: tuple[int, ...]) -> str:
    if plan[3] is not None:
        return "capture"
    if plan[2] is not None:
        return "corrupted"
    return "interferer" if set(senders) - {sender} else "clear"


def _one_way_mesh() -> Topology:
    """A 60-node mesh with a third of its directed links cut: in a symmetric
    mesh a node's links in are its links out, and a rule reading the wrong
    ones would pass."""
    delivery = random_geometric(60, 250.0, 4).delivery_matrix()
    delivery[np.random.default_rng(4).random(delivery.shape) < 0.35] = 0.0
    return Topology(delivery)


#: The meshes the benchmark runs on — the testbed, the mesh_seed_sweep mesh
#: and the kilonode mesh — and an asymmetric one.
BENCH_MESHES = {
    "testbed": lambda: indoor_testbed(floors=3, seed=7),
    "mesh_200": lambda: random_geometric(200, 420.0, 11),
    "kilonode": lambda: random_geometric(1000, 940.0, 21),
    "one_way_60": _one_way_mesh,
}


@pytest.mark.parametrize("mesh", sorted(BENCH_MESHES))
def test_link_tables_equal_the_dense_rules(mesh):
    """Every sender's sense row and its plans over sampled overlap sets, read
    off the links, are the tuples the dense rules give.  Each mesh meets
    both halves of the sense rule and every plan shape."""
    topology = BENCH_MESHES[mesh]()
    delivery = topology.delivery_matrix()
    rng = np.random.default_rng(len(mesh))
    overlaps = {sender: _overlap_sets(delivery, sender, rng)
                for sender in range(topology.node_count)}
    medium = WirelessMedium(topology, np.random.default_rng(0))
    sense = WirelessMedium._build_sense_matrix(delivery)
    kinds = set()
    for sender, sets in overlaps.items():
        assert medium._sense_rows[sender] == tuple(sense[sender].tolist()), sender
        assert np.array_equal(sense_row(topology, sender), sense[sender])
        for senders in sets:
            plan = medium._plans[sender, senders]
            assert plan == _dense_plan(delivery, sender, delivery[sender],
                                       senders), (sender, senders)
            kinds.add(_plan_kind(plan, sender, senders))
    assert kinds >= {"clear", "corrupted", "capture"}
    # Some pairs sense each other through a common neighbour alone.
    audible = delivery > SENSE_THRESHOLD
    assert (sense & ~(audible | audible.T)).any()


def test_bursty_plans_equal_the_dense_rule():
    """Under Gilbert-Elliott a plan is built per frame from the model's
    delivery on the sender's links and its mean links: the dense rule's
    tuples again."""
    topology = BENCH_MESHES["testbed"]()
    model = GilbertElliott(seed=3, mean_good_time=0.02, mean_bad_time=0.005)
    medium = WirelessMedium(topology, np.random.default_rng(0), model=model)
    mean = model.mean_view()
    dense_mean = mean.delivery_matrix()
    rng = np.random.default_rng(5)
    kinds = set()
    for step, sender in enumerate(rng.integers(0, topology.node_count, size=400).tolist()):
        row = model.delivery_row(sender, step * 0.001, step * 0.001 + 0.002)
        for senders in _overlap_sets(dense_mean, sender, rng):
            plan = medium._plan(mean.link_table(), sender, row, senders)
            assert plan == _dense_plan(dense_mean, sender,
                                       _spread(mean.link_table(), sender, row), senders)
            kinds.add(_plan_kind(plan, sender, senders))
    assert kinds >= {"clear", "corrupted", "capture"}
