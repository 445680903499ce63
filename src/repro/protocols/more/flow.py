"""MORE flow construction: plumbing a file transfer into the simulator.

:func:`setup_more_flow` does the work of the source's control plane
(Section 3.1.1): it computes the ETX distances, the forwarder list, the TX
credits (Algorithm 1 + Eq. 3.3 + pruning), splits the file into batches and
installs :class:`~repro.protocols.more.agent.MoreAgent` state at every
participating node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.coding.packet import Batch, NativePacket, split_file
from repro.metrics.credits import forwarding_plan
from repro.metrics.etx import best_path
from repro.protocols.more.agent import MoreAgent, MoreFlowSpec
from repro.protocols.more.header import ForwarderEntry
from repro.sim.simulator import Simulator
from repro.sim.trace import FlowRecord
from repro.topology.graph import Topology

_flow_ids = itertools.count(1)


@dataclass
class MoreFlowHandle:
    """Handle returned by :func:`setup_more_flow` for inspecting the flow."""

    spec: MoreFlowSpec
    record: FlowRecord
    source_agent: MoreAgent
    destination_agent: MoreAgent

    @property
    def flow_id(self) -> int:
        """Flow identifier."""
        return self.spec.flow_id

    def decoded_payloads(self) -> list[np.ndarray]:
        """Native payloads recovered by the destination, in order."""
        state = self.destination_agent.destination_flows[self.spec.flow_id]
        return list(state.decoded_payloads)

    def decoded_bytes(self) -> bytes:
        """Concatenated decoded payload bytes."""
        payloads = self.decoded_payloads()
        if not payloads:
            return b""
        return b"".join(p.tobytes() for p in payloads)


def _get_or_create_agent(sim: Simulator, node_id: int, seed: int) -> MoreAgent:
    """Return the node's MoreAgent, creating and attaching one if needed."""
    existing = sim.nodes[node_id].agent
    if existing is None:
        agent = MoreAgent(node_id, seed=seed)
        sim.attach_agent(node_id, agent)
        return agent
    if not isinstance(existing, MoreAgent):
        raise TypeError(
            f"node {node_id} already runs {existing.protocol_name}; cannot add a MORE flow"
        )
    return existing


def _synthetic_batches(total_packets: int, batch_size: int, payload_size: int,
                       rng: np.random.Generator) -> list[Batch]:
    """Build batches with random payload bytes (no real file supplied)."""
    batches: list[Batch] = []
    remaining = total_packets
    batch_id = 0
    while remaining > 0:
        count = min(batch_size, remaining)
        packets = [
            NativePacket(index=i,
                         payload=rng.integers(0, 256, size=payload_size, dtype=np.uint8))
            for i in range(count)
        ]
        batches.append(Batch(batch_id=batch_id, packets=packets))
        remaining -= count
        batch_id += 1
    return batches


def setup_more_flow(sim: Simulator, topology: Topology, source: int, destination: int,
                    *, file_bytes: bytes | None = None, total_packets: int | None = None,
                    batch_size: int = 32, packet_size: int = 1500,
                    coding_payload_size: int | None = None,
                    vector_only: bool = False, metric: str = "etx",
                    prune: bool = True, bitrate: int | None = None,
                    seed: int = 0, flow_id: int | None = None,
                    start_time: float = 0.0,
                    control_topology: Topology | None = None,
                    max_relays: int | None = None) -> MoreFlowHandle:
    """Install a MORE file transfer from ``source`` to ``destination``.

    Exactly one of ``file_bytes`` and ``total_packets`` must be provided.

    Args:
        sim: the simulator the flow runs in.
        topology: the mesh (used for ETX/credit computation and routes).
        source / destination: endpoints of the transfer.
        file_bytes: actual file contents (end-to-end integrity verifiable).
        total_packets: alternatively, the number of native packets to send
            with synthetic payloads.
        batch_size: K.
        packet_size: native packet size in bytes (air time).
        coding_payload_size: bytes pushed through the coding pipeline; use a
            small value to speed up big simulations (default: packet_size
            when a real file is given, 16 bytes otherwise).
        vector_only: run the payload-free fast path — code over zero-length
            payloads so all payload arithmetic disappears.  Delivery, rank
            progression and throughput are unchanged (code vectors drive
            them; empty payload draws consume no RNG state); only
            ``decoded_payloads()`` becomes vacuous.  Incompatible with
            ``file_bytes``, whose point is payload verification.
        metric: forwarder ordering metric, "etx" (deployed MORE) or "eotx".
        control_topology: the link qualities as the routing control plane
            believes them to be (ETX probe estimates); defaults to the true
            ``topology``.
        prune: apply the 10% forwarder pruning rule.
        bitrate: optional fixed data bit-rate for this flow.
        seed: seed for the per-node coding RNGs.
        flow_id: explicit flow id (auto-assigned when omitted).
        start_time: when the source starts transmitting.
        max_relays: cap the forwarder list at this many relays — the
            highest-expected-load ones, replacing the 10% pruning rule
            (:func:`repro.metrics.credits.cap_forwarders`).  This is the
            relay-count axis of the kilonode tier, where the fraction rule
            degenerates (load spreads so thin no relay reaches 10% of the
            total and the flow strands).  ``None`` keeps the full pruned
            plan, today's behaviour bit for bit.

    Returns:
        A :class:`MoreFlowHandle`.
    """
    if (file_bytes is None) == (total_packets is None):
        raise ValueError("provide exactly one of file_bytes or total_packets")
    if vector_only and file_bytes is not None:
        raise ValueError("vector_only skips payload bytes; it cannot carry file_bytes")
    if vector_only and coding_payload_size is not None:
        raise ValueError(
            "vector_only forces a zero-byte coding payload; do not also pass "
            "coding_payload_size"
        )
    if flow_id is None:
        flow_id = next(_flow_ids)

    rng = np.random.default_rng((seed, flow_id))
    if file_bytes is not None:
        coding_size = coding_payload_size if coding_payload_size is not None else packet_size
        batches = split_file(file_bytes, batch_size=batch_size, packet_size=coding_size)
    else:
        if vector_only:
            coding_size = 0
        else:
            coding_size = coding_payload_size if coding_payload_size is not None else 16
        assert total_packets is not None
        batches = _synthetic_batches(total_packets, batch_size, coding_size, rng)
    total = sum(batch.size for batch in batches)

    control = control_topology if control_topology is not None else topology
    plan = forwarding_plan(control, source, destination, metric=metric, prune=prune,
                           max_forwarders=max_relays)
    intermediates = plan.forwarder_list(include_endpoints=False)
    forwarder_entries = [
        ForwarderEntry(node_id=node, tx_credit=float(plan.tx_credit[node]))
        for node in intermediates
    ]
    tx_credit = {node: float(plan.tx_credit[node]) for node in plan.participants}
    distances = {node: float(plan.distances[node]) for node in plan.participants}
    ack_route = best_path(control, destination, source)

    spec = MoreFlowSpec(
        flow_id=flow_id,
        source=source,
        destination=destination,
        batch_size=batch_size,
        packet_size=packet_size,
        coding_payload_size=coding_size,
        forwarders=forwarder_entries,
        tx_credit=tx_credit,
        distances=distances,
        ack_route=ack_route,
        total_packets=total,
        batch_count=len(batches),
        bitrate=bitrate,
        max_relays=max_relays,
    )

    source_agent = _get_or_create_agent(sim, source, seed)
    source_agent.install_source(spec, batches)
    destination_agent = _get_or_create_agent(sim, destination, seed)
    destination_agent.install_destination(spec)
    for node in intermediates:
        _get_or_create_agent(sim, node, seed).install_forwarder(spec)
    for node in ack_route[1:-1]:
        agent = _get_or_create_agent(sim, node, seed)
        if flow_id not in agent.specs:
            agent.install_ack_relay(spec)

    record = sim.stats.register_flow(flow_id, source, destination, total, packet_size,
                                     start_time)
    sim.events.schedule_callback_at(start_time, lambda: sim.trigger_node(source))
    return MoreFlowHandle(spec=spec, record=record, source_agent=source_agent,
                          destination_agent=destination_agent)
