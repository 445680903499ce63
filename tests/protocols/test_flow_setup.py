"""Flow set-up across the three protocols: ids and seeds belong to the run.

A result is a pure function of spec + seed, so nothing a flow is seeded by
may depend on what else the process has simulated: flow ids are handed out
by the :class:`~repro.sim.simulator.Simulator`, 1, 2, ... per run.
"""

from __future__ import annotations

import pytest

from repro.protocols.exor import setup_exor_flow
from repro.protocols.more import setup_more_flow
from repro.protocols.srcr import setup_srcr_flow
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import chain


def _synthetic_transfer(topology):
    """One seeded MORE transfer of synthetic payloads over a new simulator."""
    sim = Simulator(topology, SimConfig(seed=3))
    handle = setup_more_flow(sim, topology, 0, 3, total_packets=16, batch_size=8,
                             packet_size=256, seed=3)
    sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
    assert handle.record.completed
    return handle


def test_back_to_back_runs_are_the_same_run():
    """The synthetic payloads are drawn from ``(seed, flow id)``: a flow id
    that counted the process's earlier flows made the second run of the same
    transfer decode different bytes."""
    topology = chain(3, link_delivery=0.8, skip_delivery=0.2)
    first = _synthetic_transfer(topology)
    second = _synthetic_transfer(topology)
    assert first.flow_id == second.flow_id == 1
    assert first.decoded_bytes() == second.decoded_bytes() != b""


def test_flow_ids_are_distinct_across_protocols_in_one_simulator():
    # Three flows over disjoint links: a node hosts one protocol.
    topology = chain(5, link_delivery=0.9)
    sim = Simulator(topology, SimConfig(seed=1))
    handles = [
        setup_srcr_flow(sim, topology, 0, 1, total_packets=4, packet_size=256),
        setup_more_flow(sim, topology, 2, 3, total_packets=4, batch_size=4,
                        packet_size=256),
        setup_exor_flow(sim, topology, 4, 5, total_packets=4, batch_size=4,
                        packet_size=256),
    ]
    assert [handle.flow_id for handle in handles] == [1, 2, 3]
    assert sorted(sim.stats.flows) == [1, 2, 3]
    sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
    assert all(handle.record.completed for handle in handles)
    # ... and the next simulator starts over.
    again = Simulator(topology, SimConfig(seed=1))
    assert setup_exor_flow(again, topology, 0, 1, total_packets=4,
                           batch_size=4).flow_id == 1


@pytest.mark.parametrize("setup, transfer, message", [
    *[(setup, {"total_packets": count}, f"total_packets must be at least 1, got {count}")
      for setup in (setup_more_flow, setup_exor_flow, setup_srcr_flow) for count in (0, -3)],
    (setup_more_flow, {"file_bytes": b""}, "file_bytes must not be empty"),
], ids=[f"{name}-{count}" for name in ("more", "exor", "srcr") for count in (0, -3)]
    + ["more-empty_file"])
def test_an_empty_transfer_is_refused_at_set_up(setup, transfer, message):
    """MORE died in its source state with an ``IndexError``; ExOR and Srcr
    "completed" a transfer of nothing at t = 0."""
    topology = chain(2, link_delivery=0.9)
    sim = Simulator(topology, SimConfig(seed=1))
    with pytest.raises(ValueError) as error:
        setup(sim, topology, 0, 2, **transfer)
    assert str(error.value) == message
    # Refused before a flow id was handed out or anything was installed.
    assert sim.stats.flows == {}
    assert all(node.agent is None for node in sim.nodes)
    assert setup(sim, topology, 0, 2, total_packets=1).flow_id == 1
