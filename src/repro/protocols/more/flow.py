"""MORE flow construction: plumbing a file transfer into the simulator.

:meth:`MoreFlowHandle.replan` does the work of the source's control plane
(Section 3.1.1): from a control view it computes the ETX distances, the
forwarder list and the TX credits (Algorithm 1 + Eq. 3.3 + pruning) and the
ACK route, and installs :class:`~repro.protocols.more.agent.MoreAgent` state
at every node the plan names.  :func:`setup_more_flow` splits the file into
batches, installs the two endpoints and calls it once; the link-state
refresh loop and fault recovery (:mod:`repro.experiments.refresh`) call it
again mid-flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coding.packet import Batch, NativePacket, split_file
from repro.metrics.credits import forwarding_plan
from repro.metrics.etx import best_path
from repro.protocols.base import FlowHandle, get_or_create_agent
from repro.protocols.more.agent import MoreAgent, MoreFlowSpec, MorePlan
from repro.protocols.more.header import ForwarderEntry, MoreHeader, MorePacketType
from repro.sim.simulator import Simulator
from repro.topology.graph import LinkView, Topology


@dataclass
class MoreFlowHandle(FlowHandle):
    """Handle returned by :func:`setup_more_flow`: the flow's control plane
    and the destination's decoded bytes."""

    spec: MoreFlowSpec
    source_agent: MoreAgent
    destination_agent: MoreAgent
    #: What the plan depends on besides the control view (and the spec's
    #: ``max_relays``): the ordering metric, whether the 10% rule applies,
    #: and the seed of the coding RNG of every agent this flow creates.
    metric: str
    prune: bool
    seed: int

    def replan(self, control: LinkView) -> None:
        """Algorithm 1 + Eq. 3.3 + pruning over ``control``, installed as one
        new :class:`~repro.protocols.more.agent.MorePlan`.

        The :class:`~repro.protocols.more.agent.MoreFlowSpec` is one object
        shared by every agent of the flow, so swapping its plan retargets
        all of them at once.  Recruited forwarders and ACK relays then get
        state installed — an agent created here is seeded like the ones
        set-up created.  A forwarder the plan drops keeps its state but is
        no longer listed, so it ignores the flow's data.
        """
        spec = self.spec
        # A flow set up with a relay cap (kilonode relay-count axis) keeps
        # the same cap across re-plans — top-N by expected load, not the
        # 10% rule.
        plan = forwarding_plan(control, spec.source, spec.destination,
                               metric=self.metric, prune=self.prune,
                               max_forwarders=spec.max_relays)
        ack_route = best_path(control, spec.destination, spec.source)
        intermediates = plan.forwarder_list(include_endpoints=False)
        tx_credit = {node: float(plan.tx_credit[node]) for node in plan.participants}
        distances = {node: float(plan.distances[node]) for node in plan.participants}
        # One representative data header decides what every header carries
        # (its MAX_FORWARDERS truncation included) and how big it is.
        header = MoreHeader(
            packet_type=MorePacketType.DATA, source=spec.source,
            destination=spec.destination, flow_id=spec.flow_id, batch_id=0,
            code_vector=bytes(spec.batch_size),
            forwarders=[ForwarderEntry(node_id=node, tx_credit=tx_credit[node])
                        for node in intermediates])
        spec.plan = MorePlan(
            header_forwarders=header.forwarders,
            frame_size=spec.packet_size + header.size_bytes(),
            tx_credit=tx_credit,
            distances=distances,
            upstream={node: frozenset(other for other, distance in distances.items()
                                      if distance > distances[node])
                      for node in header.forwarder_ids()},
            ack_next_hop=dict(zip(ack_route, ack_route[1:])),
        )
        for node in intermediates:
            agent = get_or_create_agent(self.sim, node, MoreAgent, seed=self.seed)
            if spec.flow_id not in agent.forward_flows:
                agent.install_forwarder(spec)
        for node in ack_route[1:-1]:
            agent = get_or_create_agent(self.sim, node, MoreAgent, seed=self.seed)
            if spec.flow_id not in agent.specs:
                agent.install_ack_relay(spec)

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


def _synthetic_batches(total_packets: int, batch_size: int, payload_size: int,
                       rng: np.random.Generator) -> list[Batch]:
    """Build batches with random payload bytes (no real file supplied).

    One draw per batch.  ``integers(0, 256, dtype=uint8)`` fills its bytes
    from whole 32-bit words and drops the rest of the last one, so a batch's
    rows drawn padded to whole words and then cut are the bytes — and leave
    the generator state — of one draw per native.
    """
    padded = 4 * -(-payload_size // 4)
    batches: list[Batch] = []
    for batch_id, first in enumerate(range(0, total_packets, batch_size)):
        count = min(batch_size, total_packets - first)
        payloads = rng.integers(0, 256, size=(count, padded),
                                dtype=np.uint8)[:, :payload_size]
        batches.append(Batch(batch_id=batch_id, packets=[
            NativePacket(index=index, payload=payload)
            for index, payload in enumerate(payloads)]))
    return batches


def setup_more_flow(sim: Simulator, topology: Topology, source: int, destination: int,
                    *, file_bytes: bytes | None = None, total_packets: int | None = None,
                    batch_size: int = 32, packet_size: int = 1500,
                    coding_payload_size: int | None = None, metric: str = "etx",
                    prune: bool = True, seed: int = 0,
                    control_topology: LinkView | None = None,
                    max_relays: int | None = None) -> MoreFlowHandle:
    """Install a MORE file transfer from ``source`` to ``destination``.

    Exactly one of ``file_bytes`` and ``total_packets`` must be provided.

    Args:
        sim: the simulator the flow runs in.
        topology: the mesh; the control view when no ``control_topology``
            is given.
        source / destination: endpoints of the transfer.
        file_bytes: actual file contents (end-to-end integrity verifiable).
        total_packets: alternatively, the number of native packets to send
            with synthetic payloads.
        batch_size: K.
        packet_size: native packet size in bytes (air time).
        coding_payload_size: bytes pushed through the coding pipeline; use a
            small value to speed up big simulations (default: packet_size
            when a real file is given, 16 bytes otherwise).  0 is the
            payload-free fast path: code over zero-length payloads so all
            payload arithmetic disappears.  Delivery, rank progression and
            throughput are unchanged (code vectors drive them; empty
            payload draws consume no RNG state); only
            ``decoded_payloads()`` becomes vacuous.  A ``file_bytes``
            transfer, whose point is payload verification, needs a
            positive width.
        metric: forwarder ordering metric, "etx" (deployed MORE) or "eotx".
        control_topology: the link qualities as the routing control plane
            believes them to be (ETX probe estimates); defaults to the true
            ``topology``.
        prune: apply the 10% forwarder pruning rule.
        seed: seed for the per-node coding RNGs and the synthetic payloads.
        max_relays: cap the forwarder list at this many relays — the
            highest-expected-load ones, replacing the 10% pruning rule
            (:func:`repro.metrics.credits.cap_forwarders`).  This is the
            relay-count axis of the kilonode tier, where the fraction rule
            degenerates (load spreads so thin no relay reaches 10% of the
            total and the flow strands).  ``None`` keeps the full pruned
            plan, today's behaviour bit for bit.

    ``metric``, ``prune``, ``max_relays`` and ``seed`` stay with the flow:
    every later :meth:`MoreFlowHandle.replan` uses them.

    Returns:
        A :class:`MoreFlowHandle`.
    """
    if (file_bytes is None) == (total_packets is None):
        raise ValueError("provide exactly one of file_bytes or total_packets")
    if file_bytes is not None and coding_payload_size == 0:
        raise ValueError("coding_payload_size must be positive to carry file_bytes")
    flow_id = sim.new_flow_id()
    rng = np.random.default_rng((seed, flow_id))
    if file_bytes is not None:
        coding_size = coding_payload_size if coding_payload_size is not None else packet_size
        batches = split_file(file_bytes, batch_size=batch_size, packet_size=coding_size)
    else:
        coding_size = coding_payload_size if coding_payload_size is not None else 16
        assert total_packets is not None
        batches = _synthetic_batches(total_packets, batch_size, coding_size, rng)
    total = sum(batch.size for batch in batches)

    # The plan is empty until the first replan() below installs one.
    spec = MoreFlowSpec(
        flow_id=flow_id,
        source=source,
        destination=destination,
        batch_size=batch_size,
        packet_size=packet_size,
        coding_payload_size=coding_size,
        total_packets=total,
        batch_count=len(batches),
        max_relays=max_relays,
    )
    source_agent = get_or_create_agent(sim, source, MoreAgent, seed=seed)
    source_agent.install_source(spec, batches)
    destination_agent = get_or_create_agent(sim, destination, MoreAgent, seed=seed)
    destination_agent.install_destination(spec)
    handle = MoreFlowHandle(spec=spec, sim=sim, source_agent=source_agent,
                            destination_agent=destination_agent, metric=metric,
                            prune=prune, seed=seed)
    handle.replan(control_topology if control_topology is not None else topology)
    sim.stats.register_flow(flow_id, source, destination, total, packet_size, 0.0)
    sim.events.schedule_at(0.0, lambda: sim.trigger_node(source))
    return handle
