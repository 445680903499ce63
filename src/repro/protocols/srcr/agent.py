"""Srcr: traditional best-path routing with the ETX metric (Section 4.1.1).

Srcr is the baseline protocol: Dijkstra over link ETX picks a single path,
every hop forwards packets to its fixed nexthop using link-layer ARQ, and
nothing is learned from overheard packets.  Optionally the sender runs an
Onoe-style autorate controller per nexthop (Section 4.4).

Simplifications relative to the Roofnet implementation (the "Model
simplifications" table of docs/paper-map.md): a route is computed from the
delivery probabilities of a control
view (no probe traffic is simulated) — once at set-up, and again whenever
the link-state refresh loop or fault recovery
(:mod:`repro.experiments.refresh`) calls :meth:`SrcrFlowHandle.replan` —
per-node queues are not bounded, and a frame that exhausts its MAC retries
is re-queued rather than dropped, which gives the reliable-file-transfer
semantics the evaluation measures throughput over.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.metrics.etx import best_path
from repro.protocols.base import (
    FlowHandle,
    ProtocolAgent,
    check_total_packets,
    get_or_create_agent,
)
from repro.sim.autorate import OnoeRateController
from repro.sim.frames import Frame, FrameKind
from repro.sim.simulator import Simulator
from repro.topology.graph import LinkView, Topology

#: Routing/transport header bytes added to every Srcr data frame.
SRCR_HEADER_BYTES = 24


@dataclass(frozen=True, slots=True)
class SrcrPlan:
    """One plan of an Srcr flow, built whole by
    :meth:`SrcrFlowHandle.replan` and never changed after.

    Attributes:
        route: the best ETX path, source -> destination.
        next_hop: node -> next hop toward the destination: every hop of
            ``route`` but the last, plus the detours of relays a re-plan
            stranded off the route (their own best path, up to where it
            meets ``route``).  A node without an entry forwards nothing.
    """

    route: list[int] = field(default_factory=list)
    next_hop: dict[int, int] = field(default_factory=dict)


@dataclass
class SrcrFlowSpec:
    """One Srcr flow: its constants and its current :class:`SrcrPlan`
    (empty until the flow's first re-plan, replaced whole by every later
    one)."""

    flow_id: int
    source: int
    destination: int
    packet_size: int
    total_packets: int
    plan: SrcrPlan = field(default_factory=SrcrPlan)

    def frame_size(self) -> int:
        """On-air payload size of an Srcr data frame."""
        return self.packet_size + SRCR_HEADER_BYTES


@dataclass
class SrcrDataPayload:
    """Payload of an Srcr data frame: just the packet sequence number."""

    flow_id: int
    sequence: int


class SrcrAgent(ProtocolAgent):
    """Srcr forwarding agent (source, relay and destination roles)."""

    protocol_name = "Srcr"

    def __init__(self, node_id: int, use_autorate: bool = False) -> None:
        super().__init__(node_id)
        self.specs: dict[int, SrcrFlowSpec] = {}
        self.queues: dict[int, deque[int]] = {}
        self.use_autorate = use_autorate
        self.rate_controller = OnoeRateController() if use_autorate else None
        self._round_robin = 0
        self.delivered: dict[int, set[int]] = {}

    # ------------------------------------------------------------------ #
    # Flow installation
    # ------------------------------------------------------------------ #

    def install_flow(self, spec: SrcrFlowSpec) -> None:
        """Register a flow whose route traverses (or originates at) this node;
        a node that already carries it keeps its queue."""
        self.specs[spec.flow_id] = spec
        self.queues.setdefault(spec.flow_id, deque())
        if self.node_id == spec.destination:
            self.delivered.setdefault(spec.flow_id, set())

    def enqueue_source_packets(self, flow_id: int) -> None:
        """Load the whole transfer into the source queue."""
        spec = self.specs[flow_id]
        queue = self.queues[flow_id]
        queue.extend(range(spec.total_packets))
        self.notify_pending()

    # ------------------------------------------------------------------ #
    # MAC interface
    # ------------------------------------------------------------------ #

    def has_pending(self, now: float) -> bool:
        return any(queue for queue in self.queues.values())

    def on_transmit_opportunity(self, now: float) -> Frame | None:
        flow_ids = [fid for fid, queue in self.queues.items() if queue]
        if not flow_ids:
            return None
        self._round_robin = (self._round_robin + 1) % len(flow_ids)
        # A flow can lack a next hop here when a link-state refresh moved
        # its route away and no detour exists yet; skip it rather than
        # give up the opportunity, or co-resident flows with a perfectly
        # good next hop would starve until something re-triggers the MAC.
        for offset in range(len(flow_ids)):
            flow_id = flow_ids[(self._round_robin + offset) % len(flow_ids)]
            spec = self.specs[flow_id]
            next_hop = spec.plan.next_hop.get(self.node_id)
            if next_hop is None:
                continue
            sequence = self.queues[flow_id][0]
            return Frame(
                sender=self.node_id,
                receiver=next_hop,
                kind=FrameKind.DATA,
                flow_id=flow_id,
                size_bytes=spec.frame_size(),
                payload=SrcrDataPayload(flow_id=flow_id, sequence=sequence),
            )
        return None

    def select_bitrate(self, frame: Frame) -> int | None:
        if self.rate_controller is not None and frame.kind is FrameKind.DATA:
            return self.rate_controller.current_rate(frame.receiver)
        return None

    def on_frame_sent(self, frame: Frame, success: bool, now: float) -> None:
        if frame.kind is not FrameKind.DATA or not isinstance(frame.payload, SrcrDataPayload):
            return
        if self.rate_controller is not None:
            self.rate_controller.record_result(frame.receiver, success,
                                               max(0, frame.mac_attempts - 1), now)
        queue = self.queues.get(frame.flow_id)
        if not queue:
            return
        if success and queue and queue[0] == frame.payload.sequence:
            queue.popleft()
        # On failure the packet stays at the head of the queue and will be
        # retried (persistent link-layer retransmission).
        self.notify_pending()

    # ------------------------------------------------------------------ #
    # Reception
    # ------------------------------------------------------------------ #

    def on_frame_received(self, frame: Frame, now: float) -> None:
        if frame.kind is not FrameKind.DATA or not isinstance(frame.payload, SrcrDataPayload):
            return
        if frame.receiver != self.node_id:
            return  # traditional routing ignores overheard packets
        spec = self.specs.get(frame.flow_id)
        if spec is None:
            return
        sequence = frame.payload.sequence
        if self.node_id == spec.destination:
            seen = self.delivered.setdefault(frame.flow_id, set())
            if sequence not in seen:
                seen.add(sequence)
                self.sim.stats.record_delivery(frame.flow_id, 1, now)
            else:
                self.sim.stats.record_duplicate(frame.flow_id)
            return
        # Relay toward the destination.
        self.queues.setdefault(frame.flow_id, deque()).append(sequence)
        self.notify_pending()


@dataclass
class SrcrFlowHandle(FlowHandle):
    """Handle returned by :func:`setup_srcr_flow`: the flow's control plane."""

    spec: SrcrFlowSpec
    #: Whether the agents this flow creates run the Onoe rate controller.
    use_autorate: bool
    #: Every node this flow has installed state at: what a re-plan
    #: revisits, in node-id order.
    nodes: set[int] = field(default_factory=set, init=False, repr=False)

    def replan(self, control: LinkView) -> None:
        """Route over ``control``'s best ETX path; detour stranded relays.

        Relays holding queued packets but lying off the new route get
        detour next hops (their own best path to the destination, spliced
        onto the new route where they meet it) so in-flight traffic keeps
        moving — without them the old route's tail would strand packets
        forever.  Route and detours are installed as one new
        :class:`SrcrPlan`.
        """
        spec = self.spec
        sim = self.sim
        route = best_path(control, spec.source, spec.destination)
        on_route = set(route)
        next_hop = dict(zip(route, route[1:]))
        queued = [node for node in sorted(self.nodes)
                  if sim.nodes[node].agent.queues.get(spec.flow_id)]
        for node in queued:
            if node in next_hop or node == spec.destination:
                continue
            try:
                path = best_path(control, node, spec.destination)
            except ValueError:
                continue  # currently unreachable: strand until the next re-plan
            for hop, following in zip(path, path[1:]):
                if hop in on_route:
                    break
                next_hop[hop] = following
        spec.plan = SrcrPlan(route=route, next_hop=next_hop)
        recruits = on_route.union(next_hop.values())
        self.nodes |= recruits
        for node in sorted(recruits):
            get_or_create_agent(sim, node, SrcrAgent,
                                use_autorate=self.use_autorate).install_flow(spec)
        for node in queued:
            # The next hop may have changed while the node sat idle.
            sim.trigger_node(node)


def setup_srcr_flow(sim: Simulator, topology: Topology, source: int, destination: int,
                    *, total_packets: int, packet_size: int = 1500,
                    use_autorate: bool = False,
                    control_topology: LinkView | None = None) -> SrcrFlowHandle:
    """Install an Srcr file transfer from ``source`` to ``destination``.

    ``control_topology`` carries the link-quality estimates the route is
    computed from (defaults to the true topology).  ``use_autorate`` stays
    with the flow: relays a later :meth:`SrcrFlowHandle.replan` recruits run
    the same rate control.
    """
    check_total_packets(total_packets)
    flow_id = sim.new_flow_id()
    # The plan is empty until the first replan() below installs one.
    spec = SrcrFlowSpec(
        flow_id=flow_id,
        source=source,
        destination=destination,
        packet_size=packet_size,
        total_packets=total_packets,
    )
    handle = SrcrFlowHandle(spec=spec, sim=sim, use_autorate=use_autorate)
    handle.replan(control_topology if control_topology is not None else topology)
    source_agent = sim.nodes[source].agent
    assert isinstance(source_agent, SrcrAgent)
    sim.stats.register_flow(flow_id, source, destination, total_packets, packet_size,
                            0.0)
    sim.events.schedule_at(
        0.0, lambda: source_agent.enqueue_source_packets(flow_id))
    return handle
