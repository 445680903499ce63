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

from repro.coding.packet import make_batch, split_file
from repro.metrics.credits import forwarding_plan
from repro.metrics.etx import best_path
from repro.protocols.base import FlowHandle, check_total_packets, get_or_create_agent
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

    def _decoded(self) -> list[np.ndarray]:
        """The destination's decoded ``(K, S)`` batch matrices, in order."""
        return self.destination_agent.destination_flows[self.spec.flow_id].decoded

    def decoded_payloads(self) -> list[np.ndarray]:
        """Native payloads recovered by the destination, in order."""
        return [payload for batch in self._decoded() for payload in batch]

    def decoded_bytes(self) -> bytes:
        """Concatenated decoded payload bytes."""
        return b"".join(batch.tobytes() for batch in self._decoded())


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
    if total_packets is not None:
        check_total_packets(total_packets)
    elif not file_bytes:
        raise ValueError("file_bytes must not be empty")
    elif coding_payload_size == 0:
        raise ValueError("coding_payload_size must be positive to carry file_bytes")
    flow_id = sim.new_flow_id()
    if file_bytes is not None:
        coding_size = coding_payload_size if coding_payload_size is not None else packet_size
        batches = split_file(file_bytes, batch_size=batch_size, packet_size=coding_size)
    else:
        coding_size = coding_payload_size if coding_payload_size is not None else 16
        assert total_packets is not None
        rng = np.random.default_rng((seed, flow_id))
        batches = [make_batch(min(batch_size, total_packets - first), coding_size, rng,
                              batch_id)
                   for batch_id, first in enumerate(range(0, total_packets, batch_size))]
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
