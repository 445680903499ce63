"""Integration tests for the MORE protocol on small topologies."""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.coding import buffer as buffer_module
from repro.coding.encoder import SourceEncoder
from repro.coding.packet import CodedPacket, PayloadRows, make_batch
from repro.gf.kernels import ShiftedRows
from repro.protocols.more import MAX_FORWARDERS, setup_more_flow
from repro.protocols.more.agent import _SourceState
from repro.protocols.more.header import MoreHeader, MorePacketType
from repro.sim.frames import FrameKind
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import chain, diamond, indoor_testbed, two_hop_relay


def _operands_held(root) -> int:
    """The payload operands reachable from ``root`` through plain data:
    containers and instances, not modules, classes or functions."""
    seen = {id(root)}
    pending = [root]
    operands = 0
    while pending:
        obj = pending.pop()
        operands += isinstance(obj, ShiftedRows)
        for child in gc.get_referents(obj):
            if id(child) in seen or isinstance(child, (type, types.ModuleType,
                                                        types.FunctionType)):
                continue
            seen.add(id(child))
            pending.append(child)
    return operands


def run_flow(topology, source, destination, seed=1, until=60.0, **flow_kwargs):
    sim = Simulator(topology, SimConfig(seed=seed))
    handle = setup_more_flow(sim, topology, source, destination, seed=seed, **flow_kwargs)
    sim.run(until=until, stop_condition=sim.stats.all_flows_complete)
    return sim, handle


class TestEndToEndTransfer:
    def test_file_integrity_over_lossy_chain(self, rng):
        """The destination reconstructs the exact file bytes (Section 3.1.3)."""
        topo = chain(3, link_delivery=0.7, skip_delivery=0.2)
        data = rng.integers(0, 256, 16 * 200, dtype=np.uint8).tobytes()
        sim, handle = run_flow(topo, 0, 3, file_bytes=data, batch_size=8, packet_size=200)
        record = sim.stats.flows[handle.flow_id]
        assert record.completed
        assert handle.decoded_bytes()[: len(data)] == data

    def test_file_integrity_at_k128_with_full_packets(self, rng, monkeypatch):
        """Fig 4-7's largest batch with 1500-byte packets over a multi-hop
        chain: every forwarder keeps its raw slots in a wide operand and
        eliminates above ``BatchBuffer.ROW_LOOP_MAX_RANK`` rows (the nibble
        buckets), the destination decodes through its raw operand, and the
        file arrives intact, a partial last batch included."""
        bucketed: list[int] = []
        bit_planes = buffer_module._bit_planes

        def counting_bit_planes(buckets):
            bucketed.append(1)
            return bit_planes(buckets)

        monkeypatch.setattr(buffer_module, "_bit_planes", counting_bit_planes)
        topo = chain(3, link_delivery=0.8, skip_delivery=0.2)
        data = rng.integers(0, 256, 160 * 1500 - 700, dtype=np.uint8).tobytes()
        sim, handle = run_flow(topo, 0, 3, file_bytes=data, batch_size=128,
                               packet_size=1500)
        assert handle.spec.batch_count == 2
        assert sim.stats.flows[handle.flow_id].completed
        assert handle.decoded_bytes()[: len(data)] == data
        assert bucketed

    def test_payloads_are_built_only_for_packets_somebody_stores(self, rng, monkeypatch):
        """Full-size payloads over a lossy multi-hop chain: the file arrives
        intact although most transmitted packets never had their bytes
        computed (lost, or not innovative where they were heard), and a
        vector-only run computes none at all."""
        products: list[int] = []
        combine = PayloadRows.combine

        def counting_combine(rows, row):
            products.append(len(row))
            return combine(rows, row)

        monkeypatch.setattr(PayloadRows, "combine", counting_combine)
        # The source builds each batch's encoder when the batch comes up and
        # drops it once acked: keep them here to read their counts.
        encoders: list[SourceEncoder] = []
        build = SourceEncoder.__init__

        def recording_init(encoder, *args):
            build(encoder, *args)
            encoders.append(encoder)

        monkeypatch.setattr(SourceEncoder, "__init__", recording_init)
        topo = chain(3, link_delivery=0.6, skip_delivery=0.2)
        data = rng.integers(0, 256, 24 * 1500, dtype=np.uint8).tobytes()
        sim, handle = run_flow(topo, 0, 3, file_bytes=data, batch_size=8, packet_size=1500)
        assert sim.stats.flows[handle.flow_id].completed
        assert handle.decoded_bytes()[: len(data)] == data
        state = handle.source_agent.source_flows[handle.flow_id]
        generated, built = state.packets_generated, state.payloads_built
        assert len(encoders) == 3 and all(encoder.payloads_built for encoder in encoders)
        assert generated == sum(encoder.packets_generated for encoder in encoders)
        assert built == sum(encoder.payloads_built for encoder in encoders)
        assert 24 <= built < generated
        # Forwarders re-code from their own raw slots, and likewise only
        # for a listener that stores the packet.
        sent = sum(node.agent.data_sent for node in sim.nodes if node.agent is not None)
        assert built < len(products) < sent

        del products[:], encoders[:]
        sim, handle = run_flow(topo, 0, 3, total_packets=24, batch_size=8,
                               packet_size=1500, coding_payload_size=0)
        assert sim.stats.flows[handle.flow_id].completed
        state = handle.source_agent.source_flows[handle.flow_id]
        assert state.packets_generated > 24
        assert state.payloads_built == 0
        assert len(encoders) == 3 and not any(encoder.payloads_built for encoder in encoders)
        assert products == []

    def test_source_holds_only_its_live_batch_operand(self, rng, monkeypatch):
        """A source builds a batch's encoder, and so its payload operand,
        when the batch comes up, and drops it once the batch is acked: over
        a 10-batch transfer of 1500-byte payloads it never holds two, and
        after the last ACK it heard it holds the live batch's alone."""
        held: list[int] = []
        handle_ack = _SourceState.handle_ack

        def counting_ack(state, batch_id):
            held.append(_operands_held(state))
            handle_ack(state, batch_id)
            held.append(_operands_held(state))

        monkeypatch.setattr(_SourceState, "handle_ack", counting_ack)
        topo = chain(2, link_delivery=0.8, skip_delivery=0.3)
        data = rng.integers(0, 256, 40 * 1500, dtype=np.uint8).tobytes()
        sim, handle = run_flow(topo, 0, 2, file_bytes=data, batch_size=4, packet_size=1500)
        assert sim.stats.flows[handle.flow_id].completed
        assert handle.decoded_bytes()[: len(data)] == data
        # The run stops once the file is decoded, perhaps before the last
        # ACK is back at the source.
        assert handle.spec.batch_count == 10 and len(held) >= 2 * 9
        state = handle.source_agent.source_flows[handle.flow_id]
        assert max(held) == 1 and held[-1] == (state.encoder is not None)
        assert _operands_held(state) == held[-1]

    def test_one_hop_flow(self):
        topo = chain(1, link_delivery=0.8)
        sim, handle = run_flow(topo, 0, 1, total_packets=32, batch_size=16, packet_size=400)
        assert sim.stats.flows[handle.flow_id].completed

    def test_relay_topology_uses_opportunistic_receptions(self):
        """Figure 1-1: the destination overhears some source transmissions, so
        the relay forwards noticeably fewer packets than the source sends."""
        topo = two_hop_relay()
        sim, handle = run_flow(topo, 0, 2, total_packets=64, batch_size=32, packet_size=800)
        record = sim.stats.flows[handle.flow_id]
        assert record.completed
        tx = sim.stats.data_transmissions
        assert tx.get(1, 0) < tx.get(0, 1)  # relay sends less than the source

    def test_diamond_multiple_forwarders(self):
        topo = diamond(0.5, 0.6, relay_count=3)
        destination = topo.node_count - 1
        sim, handle = run_flow(topo, 0, destination, total_packets=32, batch_size=16,
                               packet_size=400)
        assert sim.stats.flows[handle.flow_id].completed

    def test_multi_batch_transfer_advances_batches(self):
        topo = chain(2, link_delivery=0.8)
        sim, handle = run_flow(topo, 0, 2, total_packets=48, batch_size=16, packet_size=200)
        record = sim.stats.flows[handle.flow_id]
        assert record.completed
        assert record.delivered_batches == 3
        # Let the final batch ACK drain back to the source, then it is done.
        sim.run(until=sim.now + 2.0)
        source_state = handle.source_agent.source_flows[handle.flow_id]
        assert source_state.done

    def test_eotx_ordering_also_works(self):
        topo = diamond(0.4, 0.6, relay_count=2)
        destination = topo.node_count - 1
        sim, handle = run_flow(topo, 0, destination, total_packets=16, batch_size=8,
                               packet_size=200, metric="eotx")
        assert sim.stats.flows[handle.flow_id].completed


class TestProtocolBehaviour:
    def test_source_stops_after_final_ack(self):
        topo = chain(1, link_delivery=0.9)
        sim, handle = run_flow(topo, 0, 1, total_packets=16, batch_size=16, packet_size=200)
        completion_time = sim.stats.flows[handle.flow_id].end_time
        transmissions_at_completion = sim.stats.total_data_transmissions()
        sim.run(until=sim.now + 0.2)
        # A few in-flight frames may still drain, but the source must not keep
        # pumping the medium long after the ACK.
        assert sim.stats.total_data_transmissions() <= transmissions_at_completion + 3
        assert completion_time is not None

    def test_forwarder_flushes_acked_batch(self):
        topo = chain(2, link_delivery=0.9)
        sim, handle = run_flow(topo, 0, 2, total_packets=32, batch_size=16, packet_size=200)
        forwarder_state = sim.nodes[1].agent.forward_flows[handle.flow_id]
        # After the transfer, the forwarder has moved past batch 0.
        assert forwarder_state.current_batch >= 1

    def test_destination_counts_duplicates(self):
        topo = two_hop_relay()
        sim, handle = run_flow(topo, 0, 2, total_packets=32, batch_size=32, packet_size=400)
        record = sim.stats.flows[handle.flow_id]
        agent = handle.destination_agent
        assert agent.innovative_received == record.delivered_packets
        assert record.duplicate_packets == agent.non_innovative_received

    def test_forwarder_only_transmits_with_credit(self):
        """A node not in the forwarder list never transmits for the flow."""
        topo = diamond(0.5, 0.6, relay_count=2, direct=0.4)
        destination = topo.node_count - 1
        sim, handle = run_flow(topo, 0, destination, total_packets=16, batch_size=8,
                               packet_size=200)
        forwarders = set(handle.spec.plan.distances) | {0}
        for node, count in sim.stats.data_transmissions.items():
            assert node in forwarders
            assert node != destination or count == 0

    def test_forwarders_past_the_header_cap_ignore_the_data(self):
        """An unpruned plan names more relays than a header carries: the
        ones past MAX_FORWARDERS get state but take neither credit nor
        packets from the flow's data."""
        testbed = indoor_testbed(floors=3, seed=7)
        sim = Simulator(testbed, SimConfig(seed=1))
        handle = setup_more_flow(sim, testbed, 17, 2, total_packets=8, batch_size=4,
                                 coding_payload_size=4, prune=False)
        plan = handle.spec.plan
        listed = [entry.node_id for entry in plan.header_forwarders]
        assert len(listed) == MAX_FORWARDERS
        assert plan.upstream.keys() == set(listed)
        cut = [node for node in plan.tx_credit if node not in listed and node not in (17, 2)]
        assert len(cut) == 7
        frame = sim.nodes[17].agent.on_transmit_opportunity(0.0)
        for node in listed + cut:
            sim.nodes[node].agent.on_frame_received(frame, 0.0)
        for node in cut:
            state = sim.nodes[node].agent.forward_flows[handle.flow_id]
            assert state.credit == 0.0 and state.encoder is None
        for node in listed:  # the source is upstream of every relay
            state = sim.nodes[node].agent.forward_flows[handle.flow_id]
            assert state.credit == plan.tx_credit[node] and state.encoder is not None

    def test_code_vectors_are_header_bytes_on_the_air(self):
        """Every data frame, the source's and the forwarders' alike, carries
        the sender's coded packet itself: its code vector is the batch's K
        non-zero bytes, and a header built from the plan and that vector
        survives pack/unpack unchanged.  The last batch is short, so K is
        read per batch."""
        topo = diamond(0.5, 0.6, relay_count=3)
        destination = topo.node_count - 1
        sim = Simulator(topo, SimConfig(seed=1))
        handle = setup_more_flow(sim, topo, 0, destination, seed=1, total_packets=40,
                                 batch_size=16, packet_size=400)
        spec = handle.spec
        handed_out = []
        for node in {0, *spec.plan.upstream}:
            agent = sim.nodes[node].agent
            data_frame = agent._data_frame

            def recording_data_frame(flow_spec, coded, data_frame=data_frame):
                handed_out.append(coded)
                return data_frame(flow_spec, coded)

            agent._data_frame = recording_data_frame
        sent = []
        begin = sim.medium.begin

        def recording_begin(frame, now, airtime):
            if frame.kind is FrameKind.DATA:
                sent.append(frame)
            return begin(frame, now, airtime)

        sim.medium.begin = recording_begin
        sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
        assert sim.stats.flows[handle.flow_id].completed
        assert {frame.sender for frame in sent} > {0}  # relays sent too
        handed = {id(coded) for coded in handed_out}
        for frame in sent:
            coded = frame.payload
            assert coded.__class__ is CodedPacket and id(coded) in handed
            assert frame.flow_id == spec.flow_id
            vector = coded.code_vector
            assert vector.__class__ is bytes
            assert len(vector) == (16 if coded.batch_id < 2 else 8)
            assert vector != bytes(len(vector))
            header = MoreHeader(packet_type=MorePacketType.DATA, source=spec.source,
                                destination=spec.destination, flow_id=frame.flow_id,
                                batch_id=coded.batch_id, code_vector=vector,
                                forwarders=spec.plan.header_forwarders)
            if len(vector) == spec.batch_size:  # the plan sizes frames at full K
                assert frame.size_bytes == spec.packet_size + header.size_bytes()
            parsed = MoreHeader.unpack(header.pack())
            assert parsed.code_vector == vector
            assert (parsed.flow_id, parsed.batch_id) == (frame.flow_id, coded.batch_id)
            assert parsed.forwarder_ids() == header.forwarder_ids()

    @pytest.mark.parametrize("payload_size", [0, 1, 3, 15, 16, 17, 1500])
    def test_synthetic_payloads_are_one_draw_per_native(self, payload_size):
        """A synthetic flow's batches are one ``make_batch`` draw each, its
        rows padded to whole 32-bit words and cut: the payloads, and the
        generator's final state, of one draw per native on a twin
        generator."""
        rng, twin = np.random.default_rng((9, 1)), np.random.default_rng((9, 1))
        batches = [make_batch(size, payload_size, rng, batch_id)
                   for batch_id, size in enumerate((32, 32, 6))]
        expected = [twin.integers(0, 256, size=payload_size, dtype=np.uint8)
                    for _ in range(70)]
        assert [batch.payloads.shape for batch in batches] == \
            [(32, payload_size), (32, payload_size), (6, payload_size)]
        assert b"".join(batch.payloads.tobytes() for batch in batches) == \
            b"".join(payload.tobytes() for payload in expected)
        assert rng.bit_generator.state == twin.bit_generator.state
        # The flow's source draws them from its (seed, flow id) generator.
        topo = chain(1)
        sim = Simulator(topo, SimConfig())
        handle = setup_more_flow(sim, topo, 0, 1, total_packets=70, batch_size=32,
                                 coding_payload_size=payload_size, seed=9)
        assert handle.flow_id == 1
        source = handle.source_agent.source_flows[handle.flow_id]
        assert [(batch.batch_id, batch.payloads.tobytes()) for batch in source.batches] == \
            [(batch.batch_id, batch.payloads.tobytes()) for batch in batches]

    def test_throughput_positive_and_bounded(self):
        topo = chain(2, link_delivery=0.8)
        sim, handle = run_flow(topo, 0, 2, total_packets=32, batch_size=16, packet_size=1500)
        record = sim.stats.flows[handle.flow_id]
        throughput = record.throughput_pkts()
        assert 0 < throughput < 500  # can't beat the channel capacity


class TestFlowSetupValidation:
    def test_requires_exactly_one_payload_spec(self):
        topo = chain(1)
        sim = Simulator(topo, SimConfig())
        with pytest.raises(ValueError):
            setup_more_flow(sim, topo, 0, 1)
        with pytest.raises(ValueError):
            setup_more_flow(sim, topo, 0, 1, total_packets=8, file_bytes=b"x")

    def test_agent_reuse_across_flows(self):
        topo = chain(2, link_delivery=0.9)
        sim = Simulator(topo, SimConfig(seed=2))
        first = setup_more_flow(sim, topo, 0, 2, total_packets=16, batch_size=8,
                                packet_size=200)
        second = setup_more_flow(sim, topo, 2, 0, total_packets=16, batch_size=8,
                                 packet_size=200)
        assert sim.nodes[0].agent is first.source_agent
        assert first.flow_id != second.flow_id
        sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
        assert sim.stats.all_flows_complete()

    def test_mixing_protocols_on_a_node_rejected(self):
        from repro.protocols.srcr import setup_srcr_flow
        topo = chain(2, link_delivery=0.9)
        sim = Simulator(topo, SimConfig())
        setup_more_flow(sim, topo, 0, 2, total_packets=8, batch_size=8, packet_size=200)
        with pytest.raises(TypeError):
            setup_srcr_flow(sim, topo, 0, 2, total_packets=8, packet_size=200)

    def test_control_topology_changes_plan(self):
        from repro.topology.estimation import probe_estimated_topology
        topo = diamond(0.4, 0.5, relay_count=2)
        destination = topo.node_count - 1
        sim = Simulator(topo, SimConfig())
        estimated = probe_estimated_topology(topo, seed=1)
        handle = setup_more_flow(sim, topo, 0, destination, total_packets=8, batch_size=8,
                                 packet_size=200, control_topology=estimated)
        # Distances in the spec come from the estimated topology.
        assert handle.spec.plan.distances[0] != pytest.approx(
            float(np.inf), abs=0)  # sanity: finite
