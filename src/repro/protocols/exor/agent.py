"""ExOR: opportunistic routing with a strict transmission schedule (Section 2.2.1).

ExOR gathers packets into batches and defers the choice of forwarder until
after reception: the highest-priority (closest-to-destination by ETX) node
that received a packet forwards it.  To avoid duplicate forwarding without
per-packet coordination, ExOR imposes a **strict schedule**: forwarders of a
flow transmit one at a time, in priority order, and every data packet
carries a *batch map* recording, for each packet of the batch, the highest
priority node known to have received it.

This implementation reproduces the behaviour that matters for the
comparison with MORE:

* batch maps piggy-backed on data packets, merged by every receiver;
* a per-flow scheduler that serialises transmissions — one node of the flow
  transmits at a time, so the flow cannot exploit spatial reuse;
* rounds repeating until the destination holds at least 90% of the batch,
  after which the remaining packets are delivered by traditional hop-by-hop
  unicast routing and the batch is acknowledged on the reverse path.

Simplifications (the "Model simplifications" table of docs/paper-map.md):
the turn hand-off uses a shared scheduler object instead of the fragile
timing estimates real ExOR needs, the completion signal (90% reached) stops
the schedule directly rather than propagating through batch maps, and a
flat guard time stands in for each forwarder's padded timing estimate.
The first two favour ExOR.

The control plane is :meth:`ExorFlowHandle.replan`: the prioritised
participant list and the cleanup / ACK routes, from a control view.
:func:`setup_exor_flow` calls it once; the link-state refresh loop and fault
recovery (:mod:`repro.experiments.refresh`) call it again mid-flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.metrics.credits import forwarding_plan
from repro.metrics.etx import best_path
from repro.protocols.base import (
    FlowHandle,
    ProtocolAgent,
    check_total_packets,
    get_or_create_agent,
)
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.simulator import Simulator
from repro.topology.graph import LinkView, Topology

#: ExOR per-packet header: addressing + batch map (one byte per packet).
EXOR_BASE_HEADER_BYTES = 24
#: Fraction of a batch the destination must hold before the schedule stops
#: and the remainder travels over traditional routing (the ExOR design).
COMPLETION_THRESHOLD = 0.9
#: Bytes of a cleanup-request / batch-ACK control frame.
CONTROL_SIZE_BYTES = 40
#: Rank assigned to a node dropped from the participant list by a
#: link-state refresh: far outside the batch-map value range, so the node
#: can never claim responsibility for (or lower the map entry of) any
#: packet again.
INERT_RANK = 1 << 20

#: Guard time inserted between forwarder turns.  Real ExOR cannot hand the
#: schedule over explicitly: each forwarder estimates when its predecessor
#: will finish from the batch map and a rate guess, and pads the estimate to
#: avoid colliding with it (Section 2.2.1 calls these timing estimates
#: "fragile").  Five 802.11 slot-times per expected packet of the previous
#: fragment is the allowance the ExOR design uses; a flat per-turn guard of a
#: couple of data-frame times is the equivalent at our abstraction level.
TURN_GUARD_TIME = 5e-3


@dataclass(frozen=True, slots=True)
class ExorPlan:
    """One plan of an ExOR flow, built whole by
    :meth:`ExorFlowHandle.replan` and never changed after.

    Attributes:
        participants: the prioritised forwarder list, destination first ...
            source last.
        ranks: participant -> its position in ``participants`` (0 = the
            destination = highest priority).
        forward_route: best ETX path source -> destination (cleanup data).
        reverse_route: best ETX path destination -> source (cleanup
            requests and batch ACKs).
    """

    participants: list[int] = field(default_factory=list)
    ranks: dict[int, int] = field(default_factory=dict)
    forward_route: list[int] = field(default_factory=list)
    reverse_route: list[int] = field(default_factory=list)


@dataclass
class ExorFlowSpec:
    """One ExOR flow: its constants and its current :class:`ExorPlan`
    (empty until the flow's first re-plan, replaced whole by every later
    one)."""

    flow_id: int
    source: int
    destination: int
    batch_size: int
    packet_size: int
    total_packets: int
    batch_count: int
    plan: ExorPlan = field(default_factory=ExorPlan)

    def data_frame_size(self) -> int:
        """On-air size of an ExOR data frame (payload + header + batch map)."""
        return self.packet_size + EXOR_BASE_HEADER_BYTES + self.batch_size

    def map_frame_size(self) -> int:
        """On-air size of a batch-map-only frame."""
        return EXOR_BASE_HEADER_BYTES + self.batch_size

    def batch_packet_count(self, batch_id: int) -> int:
        """Number of native packets in a given batch (the last may be short)."""
        if batch_id < self.batch_count - 1:
            return self.batch_size
        remainder = self.total_packets - self.batch_size * (self.batch_count - 1)
        return remainder if remainder > 0 else self.batch_size


@dataclass
class ExorDataPayload:
    """A native packet broadcast during the scheduled phase."""

    flow_id: int
    batch_id: int
    packet_index: int
    batch_map: np.ndarray


@dataclass
class ExorMapPayload:
    """A batch-map-only frame (sent by the destination on its turn)."""

    flow_id: int
    batch_id: int
    batch_map: np.ndarray


@dataclass
class ExorControlPayload:
    """Hop-by-hop unicast control traffic (cleanup request/data, batch ACK)."""

    flow_id: int
    batch_id: int
    control: str  # "cleanup_request" | "cleanup_data" | "batch_ack"
    route: list[int]
    packet_index: int | None = None
    missing: list[int] = field(default_factory=list)


class ExorScheduler:
    """Per-flow strict transmission schedule.

    The schedule starts each batch with the source transmitting the whole
    batch, then cycles through the participants in priority order
    (destination's map frame first, then forwarders, then the source) until
    stopped by the destination.
    """

    def __init__(self, spec: ExorFlowSpec, sim: Simulator) -> None:
        self.spec = spec
        self.sim = sim
        self.active = False
        self.batch_id = -1
        self.holder: int | None = None
        self._position = 0

    def start_batch(self, batch_id: int) -> None:
        """Begin the scheduled phase of a batch with the source's initial turn."""
        self.active = True
        self.batch_id = batch_id
        self._grant(len(self.spec.plan.participants) - 1)  # the source

    def stop(self) -> None:
        """Stop the scheduled phase (destination reached its threshold)."""
        self.active = False
        self.holder = None

    def holds_token(self, node_id: int) -> bool:
        """True if ``node_id`` currently owns the transmission turn."""
        return self.active and self.holder == node_id

    def finish_turn(self, node_id: int) -> None:
        """Advance the schedule after ``node_id`` finishes its allotment."""
        if not self.active or node_id != self.holder:
            return
        next_position = self._position - 1
        if next_position < 0:
            # A full round ended with the destination; start the next round
            # from the node farthest from the destination (the source).
            next_position = len(self.spec.plan.participants) - 1
        # The next forwarder cannot start the instant its predecessor stops:
        # it only knows the predecessor's fragment size from batch maps and
        # must pad its timing estimate (the scheduling cost the paper blames
        # for ExOR's lost spatial reuse and fragile utilisation).
        batch_epoch = self.batch_id
        self.sim.events.schedule(
            TURN_GUARD_TIME,
            lambda: self._grant_if_current(next_position, batch_epoch))

    def _grant_if_current(self, position: int, batch_epoch: int) -> None:
        """Grant a deferred turn unless the batch has moved on meanwhile."""
        if self.active and self.batch_id == batch_epoch:
            self._grant(position)

    def notice_participants_changed(self) -> None:
        """Clamp the schedule position after a re-plan resized the list, and
        re-grant the turn when its holder no longer sits at that position.

        A re-plan can drop the holder (a crashed relay goes inert): left
        with the turn, it never passes it on, and a later re-plan that
        re-admits it does not wake it, so the batch stalls for good.
        :meth:`_grant` wakes the node now at the position, or skips it.
        """
        participants = self.spec.plan.participants
        self._position = min(self._position, len(participants) - 1)
        if self.active and self.holder != participants[self._position]:
            self._grant(self._position)

    def _grant(self, position: int) -> None:
        # A deferred grant scheduled before a link-state refresh may carry a
        # position beyond the refreshed (shorter) participant list.
        participants = self.spec.plan.participants
        position = min(position, len(participants) - 1)
        self._position = position
        self.holder = participants[position]
        agent = self.sim.nodes[self.holder].agent
        if isinstance(agent, ExorAgent) and not agent.turn_has_traffic(self.spec.flow_id):
            # Nothing to send this turn: skip ahead after the guard time
            # (real ExOR burns a turn-timeout here).
            self.finish_turn(self.holder)
            return
        self.sim.trigger_node(self.holder)


class _ExorFlowState:
    """Per-node, per-flow ExOR state."""

    def __init__(self, spec: ExorFlowSpec, rank: int) -> None:
        self.spec = spec
        self.rank = rank
        self.batch_id = 0
        self.received: dict[int, set[int]] = {}
        self.batch_map = np.full(spec.batch_size, len(spec.plan.participants) - 1,
                                 dtype=np.int32)
        self.turn_queue: deque[int] = deque()
        self.map_frame_pending = False

    def reset_for_batch(self, batch_id: int) -> None:
        """Start fresh state for a new batch."""
        self.batch_id = batch_id
        self.batch_map = np.full(self.spec.batch_size,
                                 len(self.spec.plan.participants) - 1, dtype=np.int32)
        self.turn_queue.clear()
        self.map_frame_pending = False

    def load_batch(self, batch_id: int) -> None:
        """Start ``batch_id`` holding every packet of it, as the source does:
        the batch map names this node's rank for each."""
        self.reset_for_batch(batch_id)
        count = self.spec.batch_packet_count(batch_id)
        self.packets_received(batch_id).update(range(count))
        self.batch_map[:count] = self.rank

    def packets_received(self, batch_id: int) -> set[int]:
        """Indices of packets of ``batch_id`` this node holds."""
        return self.received.setdefault(batch_id, set())

    def merge_map(self, other_map: np.ndarray) -> None:
        """Merge a heard batch map into the local one (element-wise min)."""
        np.minimum(self.batch_map, other_map, out=self.batch_map)

    def refresh_rank(self, rank: int) -> None:
        """Re-anchor the batch-map view after a plan refresh changed ranks.

        Map entries written under the old rank numbering would otherwise
        orphan packets: an entry naming a rank nobody holds any more is
        claimed by no ``responsibility()`` check and only ever decreases,
        stalling the batch.  Two conservative rewrites fix that: entries
        beyond the (possibly shrunken) participant list fall back to the
        source's rank — the source holds every packet of the batch, so it
        can always re-serve them — and this node re-claims its own
        holdings at its new rank.  Both can only cause duplicate
        transmissions (which ExOR dedups), never a stall.
        """
        self.rank = rank
        highest = len(self.spec.plan.participants) - 1
        np.minimum(self.batch_map, highest, out=self.batch_map)
        batch_map = self.batch_map
        for index in self.packets_received(self.batch_id):
            if index < batch_map.shape[0] and batch_map[index] > rank:
                batch_map[index] = rank

    def note_reception(self, packet_index: int, batch_id: int) -> bool:
        """Record a received packet; returns True if it is new to this node."""
        packets = self.packets_received(batch_id)
        if packet_index in packets:
            new = False
        else:
            packets.add(packet_index)
            new = True
        if batch_id == self.batch_id:
            self.batch_map[packet_index] = min(self.batch_map[packet_index], self.rank)
        return new

    def _holders(self) -> list[int]:
        """The batch map over the packets this batch has, as plain ints."""
        return self.batch_map[:self.spec.batch_packet_count(self.batch_id)].tolist()

    def responsibility(self) -> list[int]:
        """Packets this node should forward on its turn, in index order.

        A node forwards the packets it holds for which it is (to its
        knowledge) the highest-priority holder.
        """
        packets = self.packets_received(self.batch_id)
        rank = self.rank
        return [index for index, holder in enumerate(self._holders())
                if holder == rank and index in packets]

    def has_responsibility(self) -> bool:
        """Whether :meth:`responsibility` is non-empty: the MAC's poll, asked
        far more often than a turn is prepared, so it builds no list."""
        packets = self.packets_received(self.batch_id)
        if not packets:
            return False
        holders = self._holders()
        rank = self.rank
        return rank in holders and any(
            index < len(holders) and holders[index] == rank for index in packets)


class ExorAgent(ProtocolAgent):
    """ExOR agent handling source, forwarder and destination roles."""

    protocol_name = "ExOR"

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.flows: dict[int, _ExorFlowState] = {}
        self.specs: dict[int, ExorFlowSpec] = {}
        self.schedulers: dict[int, ExorScheduler] = {}
        self.control_queue: deque[Frame] = deque()
        self.source_progress: dict[int, int] = {}  # flow -> current batch at source
        self.cleanup_requested: dict[int, set[int]] = {}

    # ------------------------------------------------------------------ #
    # Flow installation
    # ------------------------------------------------------------------ #

    def install_flow(self, spec: ExorFlowSpec, scheduler: ExorScheduler) -> None:
        """Register a flow on this node (any role), or re-rank it after a re-plan.

        Idempotent: a node the plan newly names gets fresh per-flow state;
        a node that already tracks the flow keeps its transfer progress
        (source batch counter, destination ACK bookkeeping) and only has
        its priority rank re-derived from the participant list.
        """
        self.specs[spec.flow_id] = spec
        self.schedulers[spec.flow_id] = scheduler
        rank = spec.plan.ranks.get(self.node_id)
        state = self.flows.get(spec.flow_id)
        if rank is not None:
            if state is None:
                self.flows[spec.flow_id] = _ExorFlowState(spec, rank)
            else:
                state.refresh_rank(rank)
        elif state is not None:
            # Dropped from the forwarder set: the node keeps its received
            # packets but must never claim responsibility again — an inert
            # rank beyond the batch-map value range guarantees that (any
            # in-range value could collide with a stale map entry).
            state.rank = INERT_RANK
        if self.node_id == spec.source:
            self.source_progress.setdefault(spec.flow_id, 0)
        if self.node_id == spec.destination:
            self.cleanup_requested.setdefault(spec.flow_id, set())

    def start_flow(self, flow_id: int) -> None:
        """Source-side kick-off: load batch 0 and start the schedule."""
        self.flows[flow_id].load_batch(0)
        self.schedulers[flow_id].start_batch(0)

    # ------------------------------------------------------------------ #
    # Scheduler support
    # ------------------------------------------------------------------ #

    def turn_has_traffic(self, flow_id: int) -> bool:
        """True if this node would transmit anything on its turn."""
        state = self.flows.get(flow_id)
        spec = self.specs.get(flow_id)
        if state is None or spec is None:
            return False
        if self.node_id == spec.destination:
            return True  # the destination always broadcasts its map
        return state.has_responsibility()

    def _prepare_turn(self, flow_id: int) -> None:
        """Build the turn queue when the token arrives."""
        state = self.flows[flow_id]
        spec = self.specs[flow_id]
        if self.node_id == spec.destination:
            state.map_frame_pending = True
            return
        state.turn_queue = deque(state.responsibility())

    # ------------------------------------------------------------------ #
    # MAC interface
    # ------------------------------------------------------------------ #

    def has_pending(self, now: float) -> bool:
        if self.control_queue:
            return True
        for flow_id, scheduler in self.schedulers.items():
            if scheduler.holds_token(self.node_id) and self.turn_has_traffic(flow_id):
                return True
        return False

    def on_transmit_opportunity(self, now: float) -> Frame | None:
        if self.control_queue:
            return self.control_queue[0]
        for flow_id, scheduler in self.schedulers.items():
            if not scheduler.holds_token(self.node_id):
                continue
            state = self.flows.get(flow_id)
            spec = self.specs.get(flow_id)
            if state is None or spec is None:
                continue
            if not state.turn_queue and not state.map_frame_pending:
                self._prepare_turn(flow_id)
            if state.map_frame_pending:
                return self._make_map_frame(spec, state)
            if state.turn_queue:
                return self._make_data_frame(spec, state, state.turn_queue[0])
            scheduler.finish_turn(self.node_id)
        return None

    def _make_data_frame(self, spec: ExorFlowSpec, state: _ExorFlowState,
                         packet_index: int) -> Frame:
        return Frame(
            sender=self.node_id,
            receiver=BROADCAST,
            kind=FrameKind.DATA,
            flow_id=spec.flow_id,
            size_bytes=spec.data_frame_size(),
            payload=ExorDataPayload(
                flow_id=spec.flow_id,
                batch_id=state.batch_id,
                packet_index=packet_index,
                batch_map=state.batch_map.copy(),
            ),
        )

    def _make_map_frame(self, spec: ExorFlowSpec, state: _ExorFlowState) -> Frame:
        return Frame(
            sender=self.node_id,
            receiver=BROADCAST,
            kind=FrameKind.CONTROL,
            flow_id=spec.flow_id,
            size_bytes=spec.map_frame_size(),
            payload=ExorMapPayload(
                flow_id=spec.flow_id,
                batch_id=state.batch_id,
                batch_map=state.batch_map.copy(),
            ),
        )

    # ------------------------------------------------------------------ #
    # MAC completion callbacks
    # ------------------------------------------------------------------ #

    def on_frame_sent(self, frame: Frame, success: bool, now: float) -> None:
        if self.control_queue and self.control_queue[0] is frame:
            if success:
                self.control_queue.popleft()
            self.notify_pending()
            return
        payload = frame.payload
        if isinstance(payload, ExorMapPayload):
            state = self.flows.get(payload.flow_id)
            scheduler = self.schedulers.get(payload.flow_id)
            if state is not None:
                state.map_frame_pending = False
            if scheduler is not None:
                scheduler.finish_turn(self.node_id)
            return
        if isinstance(payload, ExorDataPayload):
            state = self.flows.get(payload.flow_id)
            scheduler = self.schedulers.get(payload.flow_id)
            if state is not None and state.turn_queue \
                    and state.turn_queue[0] == payload.packet_index:
                state.turn_queue.popleft()
            if state is not None and not state.turn_queue and scheduler is not None \
                    and scheduler.holds_token(self.node_id):
                scheduler.finish_turn(self.node_id)

    # ------------------------------------------------------------------ #
    # Reception
    # ------------------------------------------------------------------ #

    def on_frame_received(self, frame: Frame, now: float) -> None:
        payload = frame.payload
        if isinstance(payload, ExorDataPayload):
            self._handle_data(payload, now)
        elif isinstance(payload, ExorMapPayload):
            self._handle_map(payload)
        elif isinstance(payload, ExorControlPayload) and frame.receiver == self.node_id:
            self._handle_control(payload, now)

    def _advance_local_batch(self, state: _ExorFlowState, batch_id: int,
                             spec: ExorFlowSpec) -> None:
        """Move local state to a newer batch if needed."""
        if batch_id > state.batch_id:
            if self.node_id == spec.source:
                state.load_batch(batch_id)
            else:
                state.reset_for_batch(batch_id)

    def _handle_data(self, payload: ExorDataPayload, now: float) -> None:
        spec = self.specs.get(payload.flow_id)
        state = self.flows.get(payload.flow_id)
        if spec is None or state is None:
            return
        self._advance_local_batch(state, payload.batch_id, spec)
        if payload.batch_id < state.batch_id:
            return
        state.merge_map(payload.batch_map)
        new = state.note_reception(payload.packet_index, payload.batch_id)
        if self.node_id == spec.destination:
            self._destination_progress(spec, state, payload.batch_id, payload.packet_index,
                                        new, now)

    def _handle_map(self, payload: ExorMapPayload) -> None:
        state = self.flows.get(payload.flow_id)
        if state is None or payload.batch_id != state.batch_id:
            return
        state.merge_map(payload.batch_map)

    def _destination_progress(self, spec: ExorFlowSpec, state: _ExorFlowState,
                              batch_id: int, packet_index: int, new: bool,
                              now: float) -> None:
        if not new:
            self.sim.stats.record_duplicate(spec.flow_id)
            return
        self.sim.stats.record_delivery(spec.flow_id, 1, now)
        count = spec.batch_packet_count(batch_id)
        have = sum(1 for i in state.packets_received(batch_id) if i < count)
        scheduler = self.schedulers[spec.flow_id]
        if have >= count:
            scheduler.stop()
            self._queue_batch_ack(spec, batch_id)
            return
        if have >= COMPLETION_THRESHOLD * count and \
                batch_id not in self.cleanup_requested[spec.flow_id]:
            # Threshold reached: stop the schedule and request the remainder
            # over traditional routing.
            self.cleanup_requested[spec.flow_id].add(batch_id)
            scheduler.stop()
            missing = [i for i in range(count) if i not in state.packets_received(batch_id)]
            self._queue_control(spec, ExorControlPayload(
                flow_id=spec.flow_id, batch_id=batch_id, control="cleanup_request",
                route=spec.plan.reverse_route, missing=missing,
            ))

    # ------------------------------------------------------------------ #
    # Control traffic (cleanup + batch ACKs over traditional routing)
    # ------------------------------------------------------------------ #

    def _queue_control(self, spec: ExorFlowSpec, payload: ExorControlPayload) -> None:
        route = payload.route
        if self.node_id not in route:
            return
        position = route.index(self.node_id)
        if position + 1 >= len(route):
            return
        next_hop = route[position + 1]
        if payload.control == "cleanup_data":
            size = spec.packet_size + EXOR_BASE_HEADER_BYTES
        else:
            size = CONTROL_SIZE_BYTES + len(payload.missing)
        frame = Frame(
            sender=self.node_id,
            receiver=next_hop,
            kind=FrameKind.BATCH_ACK if payload.control == "batch_ack" else FrameKind.CONTROL,
            flow_id=spec.flow_id,
            size_bytes=size,
            payload=payload,
        )
        self.control_queue.append(frame)
        self.notify_pending()

    def _queue_batch_ack(self, spec: ExorFlowSpec, batch_id: int) -> None:
        self._queue_control(spec, ExorControlPayload(
            flow_id=spec.flow_id, batch_id=batch_id, control="batch_ack",
            route=spec.plan.reverse_route,
        ))

    def _handle_control(self, payload: ExorControlPayload, now: float) -> None:
        spec = self.specs.get(payload.flow_id)
        if spec is None:
            return
        route = payload.route
        final = route[-1]
        if self.node_id != final:
            # Relay one hop further along the control route.
            self._queue_control(spec, payload)
            return
        if payload.control == "cleanup_request" and self.node_id == spec.source:
            for index in payload.missing:
                self._queue_control(spec, ExorControlPayload(
                    flow_id=spec.flow_id, batch_id=payload.batch_id, control="cleanup_data",
                    route=spec.plan.forward_route, packet_index=index,
                ))
            return
        if payload.control == "cleanup_data" and self.node_id == spec.destination:
            state = self.flows[payload.flow_id]
            assert payload.packet_index is not None
            new = state.note_reception(payload.packet_index, payload.batch_id)
            count = spec.batch_packet_count(payload.batch_id)
            if new:
                self.sim.stats.record_delivery(spec.flow_id, 1, now)
            have = sum(1 for i in state.packets_received(payload.batch_id) if i < count)
            if have >= count:
                self._queue_batch_ack(spec, payload.batch_id)
            return
        if payload.control == "batch_ack" and self.node_id == spec.source:
            self._handle_batch_ack(spec, payload.batch_id)

    def _handle_batch_ack(self, spec: ExorFlowSpec, batch_id: int) -> None:
        current = self.source_progress.get(spec.flow_id, 0)
        if batch_id < current:
            return
        next_batch = batch_id + 1
        self.source_progress[spec.flow_id] = next_batch
        if next_batch >= spec.batch_count:
            return  # transfer complete
        self.flows[spec.flow_id].load_batch(next_batch)
        self.schedulers[spec.flow_id].start_batch(next_batch)


@dataclass
class ExorFlowHandle(FlowHandle):
    """Handle returned by :func:`setup_exor_flow`: the flow's control plane."""

    spec: ExorFlowSpec
    scheduler: ExorScheduler
    #: Every node this flow has installed state at: what a re-plan
    #: revisits, in node-id order.
    nodes: set[int] = field(default_factory=set, init=False, repr=False)

    def replan(self, control: LinkView) -> None:
        """Rank the participants by ``control``'s ETX distances and route
        the cleanup / ACK traffic, installed as one new :class:`ExorPlan`.

        Nodes keep their transfer progress (:meth:`ExorAgent.install_flow`
        is idempotent), nodes dropped from the list go inert, and the strict
        schedule clamps its position into the resized list, re-granting the
        turn if its holder moved or was dropped.
        """
        spec = self.spec
        forwarding = forwarding_plan(control, spec.source, spec.destination)
        participants = list(forwarding.participants)
        spec.plan = ExorPlan(
            participants=participants,
            ranks={node: rank for rank, node in enumerate(participants)},
            forward_route=best_path(control, spec.source, spec.destination),
            reverse_route=best_path(control, spec.destination, spec.source),
        )
        self.nodes.update(participants, spec.plan.forward_route,
                          spec.plan.reverse_route)
        for node in sorted(self.nodes):
            get_or_create_agent(self.sim, node, ExorAgent).install_flow(
                spec, self.scheduler)
        self.scheduler.notice_participants_changed()


def setup_exor_flow(sim: Simulator, topology: Topology, source: int, destination: int,
                    *, total_packets: int, batch_size: int = 32, packet_size: int = 1500,
                    control_topology: LinkView | None = None) -> ExorFlowHandle:
    """Install an ExOR file transfer from ``source`` to ``destination``.

    ``control_topology`` carries the link-quality estimates used to build the
    forwarder list and the cleanup/ACK routes (defaults to the true topology).
    """
    check_total_packets(total_packets)
    flow_id = sim.new_flow_id()
    batch_count = -(-total_packets // batch_size)
    # The plan is empty until the first replan() below installs one.
    spec = ExorFlowSpec(
        flow_id=flow_id,
        source=source,
        destination=destination,
        batch_size=batch_size,
        packet_size=packet_size,
        total_packets=total_packets,
        batch_count=batch_count,
    )
    handle = ExorFlowHandle(spec=spec, sim=sim, scheduler=ExorScheduler(spec, sim))
    handle.replan(control_topology if control_topology is not None else topology)
    sim.stats.register_flow(flow_id, source, destination, total_packets, packet_size,
                            0.0)
    source_agent = sim.nodes[source].agent
    assert isinstance(source_agent, ExorAgent)
    sim.events.schedule_at(0.0, lambda: source_agent.start_flow(flow_id))
    return handle
