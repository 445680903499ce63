"""MORE protocol agent: source, forwarder and destination roles (Chapter 3).

One :class:`MoreAgent` runs on every participating node and multiplexes any
number of flows, holding the per-flow state of Section 3.3.2:

* the **source** keeps a :class:`~repro.coding.encoder.SourceEncoder` for
  the current batch only and keeps transmitting coded packets of that batch
  until the batch ACK arrives;
* a **forwarder** keeps a batch buffer of innovative packets, a credit
  counter incremented by its TX credit on every packet heard from upstream
  and decremented on every transmission, and a pre-coded packet that is
  refreshed whenever an innovative packet arrives;
* the **destination** keeps a decoder, sends a batch ACK on the reverse
  best-ETX path as soon as it has K innovative packets and then decodes.

ACKs are unicast hop-by-hop with MAC-layer reliability, are prioritised over
data, and are snooped by every overhearing forwarder, which then flushes the
acked batch (Section 3.3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coding.decoder import BatchDecoder
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import Batch, CodedPacket
from repro.gf.arithmetic import CoefficientStream
from repro.protocols.base import ProtocolAgent
from repro.protocols.more.header import ForwarderEntry
from repro.sim.frames import BROADCAST, Frame, FrameKind

#: Size in bytes of a serialised batch ACK (header only, no code vector).
ACK_SIZE_BYTES = 20


@dataclass(frozen=True, slots=True)
class MorePlan:
    """One forwarding plan of a MORE flow: what the source's control plane
    (Section 3.1.1, Algorithm 1 + Eq. 3.3) computes and every header carries.

    Built whole by :meth:`~repro.protocols.more.flow.MoreFlowHandle.replan`
    and never changed after: a re-plan installs a new plan, it does not edit
    this one.

    Attributes:
        header_forwarders: the forwarder list with TX credits, closest to
            the destination first, as the data header carries it (truncated
            to :data:`~repro.protocols.more.header.MAX_FORWARDERS` by the
            header itself).
        frame_size: on-air size of a data frame (native packet plus header).
        tx_credit: node id -> TX credit (Eq. 3.3), every participant.
        distances: node id -> ETX distance to the destination, every
            participant.
        upstream: listed forwarder -> the senders whose packets count as
            "from upstream" for it (strictly farther from the destination).
            Its keys are exactly the node ids ``header_forwarders`` lists: a
            forwarder the plan drops or the header cuts ignores the flow's
            data.
        ack_next_hop: node -> next hop toward the source on the batch-ACK
            route (the reverse best-ETX path).
    """

    header_forwarders: list[ForwarderEntry] = field(default_factory=list)
    frame_size: int = 0
    tx_credit: dict[int, float] = field(default_factory=dict)
    distances: dict[int, float] = field(default_factory=dict)
    upstream: dict[int, frozenset[int]] = field(default_factory=dict)
    ack_next_hop: dict[int, int] = field(default_factory=dict)


@dataclass
class MoreFlowSpec:
    """One MORE flow, shared by all its agents: its constants and its
    current :class:`MorePlan`.

    Attributes:
        flow_id: unique flow identifier.
        source: source node id.
        destination: destination node id.
        batch_size: nominal K (the last batch may be smaller).
        packet_size: native packet size in bytes (used for air time).
        coding_payload_size: byte length actually carried through the coding
            pipeline; equals ``packet_size`` for full-fidelity runs and can
            be reduced to speed up large simulations without changing the
            protocol behaviour (air time still uses ``packet_size``).  A
            size of 0 is the vector-only fast path: every payload is the
            empty vector, so coding, buffering and decoding touch code
            vectors alone while delivery and throughput stay identical.
        total_packets: total native packets in the transfer.
        batch_count: number of batches.
        max_relays: optional cap on the forwarder list length (the
            relay-count axis of the kilonode tier); ``None`` keeps the
            full pruned plan.
        plan: the current plan; empty until the flow's first re-plan, and
            replaced whole by every later one.
    """

    flow_id: int
    source: int
    destination: int
    batch_size: int
    packet_size: int
    coding_payload_size: int
    total_packets: int
    batch_count: int
    max_relays: int | None = None
    plan: MorePlan = field(default_factory=MorePlan)


@dataclass(slots=True)
class MoreAckPayload:
    """Payload attached to MORE batch ACK frames."""

    flow_id: int
    batch_id: int


class _SourceState:
    """Per-flow state held by the source node.

    Only the current batch has an encoder, and with it the operand of the
    batch's payloads: it is built when its batch becomes current and dropped
    once that batch is acked (construction draws nothing).
    """

    def __init__(self, spec: MoreFlowSpec, batches: list[Batch],
                 stream: CoefficientStream) -> None:
        self.spec = spec
        self.batches = batches
        self.stream = stream
        self.current_batch = 0
        self.encoder: SourceEncoder | None = SourceEncoder(batches[0], stream)
        self.acked: set[int] = set()
        # The counts of the encoders already dropped.
        self._generated = 0
        self._built = 0
        #: True once every batch of the transfer has been acknowledged
        #: (maintained by :meth:`handle_ack`; polled on every MAC poll).
        self.done = False

    @property
    def packets_generated(self) -> int:
        """Coded packets generated for the flow so far, every batch's."""
        encoder = self.encoder
        return self._generated + (encoder.packets_generated if encoder is not None else 0)

    @property
    def payloads_built(self) -> int:
        """How many of the flow's generated packets had their bytes computed."""
        encoder = self.encoder
        return self._built + (encoder.payloads_built if encoder is not None else 0)

    def handle_ack(self, batch_id: int) -> None:
        """Record a batch ACK and advance to the next batch."""
        self.acked.add(batch_id)
        current = self.current_batch
        while current < len(self.batches) and current in self.acked:
            current += 1
        if current != self.current_batch:
            encoder = self.encoder
            assert encoder is not None
            self._generated += encoder.packets_generated
            self._built += encoder.payloads_built
            self.current_batch = current
            self.encoder = (SourceEncoder(self.batches[current], self.stream)
                            if current < len(self.batches) else None)
        if len(self.acked) >= len(self.batches):
            self.done = True


class _ForwarderState:
    """Per-flow state held by an intermediate forwarder."""

    def __init__(self, spec: MoreFlowSpec, stream: CoefficientStream) -> None:
        self.spec = spec
        self.stream = stream
        self.credit = 0.0
        self.current_batch = 0
        self.encoder: ForwarderEncoder | None = None

    def _ensure_encoder(self, batch_size: int, batch_id: int) -> ForwarderEncoder:
        if self.encoder is None or self.encoder.buffer.batch_size != batch_size \
                or self.encoder.batch_id != batch_id:
            self.encoder = ForwarderEncoder(
                batch_size=batch_size,
                packet_size=self.spec.coding_payload_size,
                stream=self.stream,
                batch_id=batch_id,
            )
        return self.encoder

    def flush(self, new_batch: int) -> None:
        """Drop buffered packets and credit when a batch is superseded or acked."""
        self.current_batch = new_batch
        self.credit = 0.0
        self.encoder = None

    def handle_data(self, coded: CodedPacket) -> bool:
        """Process a data packet heard for this flow; return True if buffered."""
        batch_id = coded.batch_id
        if batch_id < self.current_batch:
            return False
        if batch_id > self.current_batch:
            self.flush(batch_id)
        encoder = self._ensure_encoder(coded.batch_size, batch_id)
        if encoder.buffer.is_full:
            # Full rank: no vector can be innovative, and a non-innovative
            # insert draws no randomness — skip the GF elimination outright.
            return False
        return encoder.add_packet(coded)

    @property
    def backlogged(self) -> bool:
        """True if the forwarder currently owes transmissions (Section 3.3.3)."""
        return (self.credit > 0.0 and self.encoder is not None
                and self.encoder.has_data())


class _DestinationState:
    """Per-flow state held by the destination node."""

    def __init__(self, spec: MoreFlowSpec) -> None:
        self.spec = spec
        self.current_batch = 0
        self.decoder: BatchDecoder | None = None
        self.completed: set[int] = set()
        #: The decoded ``(K, S)`` payload matrix of every completed batch,
        #: in completion order.
        self.decoded: list[np.ndarray] = []

    def _ensure_decoder(self, batch_size: int, batch_id: int) -> BatchDecoder:
        if self.decoder is None or self.decoder.batch_id != batch_id \
                or self.decoder.batch_size != batch_size:
            self.decoder = BatchDecoder(
                batch_size=batch_size,
                packet_size=self.spec.coding_payload_size,
                batch_id=batch_id,
            )
        return self.decoder

    def handle_data(self, coded: CodedPacket) -> tuple[bool, bool]:
        """Process a data packet; returns (innovative, batch_just_completed)."""
        batch_id = coded.batch_id
        if batch_id in self.completed or batch_id < self.current_batch:
            return False, False
        if batch_id > self.current_batch:
            self.current_batch = batch_id
            self.decoder = None
        decoder = self._ensure_decoder(coded.batch_size, batch_id)
        innovative = decoder.add_packet(coded)
        if decoder.is_complete and batch_id not in self.completed:
            self.completed.add(batch_id)
            self.decoded.append(decoder.decode())
            return innovative, True
        return innovative, False


class MoreAgent(ProtocolAgent):
    """The MORE routing agent running on one node."""

    protocol_name = "MORE"

    def __init__(self, node_id: int, seed: int = 0) -> None:
        super().__init__(node_id)
        self.rng = np.random.default_rng((seed, node_id))
        # Every coefficient this node codes with, for whichever flow and in
        # whichever role, is read from this one stream over its generator
        # (which stays untouched until the node first codes).
        self.coefficients = CoefficientStream(self.rng)
        self.source_flows: dict[int, _SourceState] = {}
        self.forward_flows: dict[int, _ForwarderState] = {}
        self.destination_flows: dict[int, _DestinationState] = {}
        self.specs: dict[int, MoreFlowSpec] = {}
        self._ack_queue: list[Frame] = []
        self._round_robin = 0
        # (flow_id, state) when this agent serves exactly one flow in one
        # role — the overwhelmingly common shape, dispatched without
        # rebuilding the backlogged-flow list on every MAC poll.  Refreshed
        # by the install_* methods.
        self._single_source: tuple[int, _SourceState] | None = None
        self._single_forwarder: tuple[int, _ForwarderState] | None = None
        # Counters for the overhead analysis.
        self.data_sent = 0
        self.innovative_received = 0
        self.non_innovative_received = 0

    # ------------------------------------------------------------------ #
    # Flow installation (called by the flow builder)
    # ------------------------------------------------------------------ #

    def install_source(self, spec: MoreFlowSpec, batches: list[Batch]) -> None:
        """Install source-side state for a flow originating at this node."""
        self.specs[spec.flow_id] = spec
        self.source_flows[spec.flow_id] = _SourceState(spec, batches, self.coefficients)
        self._refresh_flow_shape()

    def install_forwarder(self, spec: MoreFlowSpec) -> None:
        """Install forwarder-side state for a flow this node may relay."""
        self.specs[spec.flow_id] = spec
        self.forward_flows[spec.flow_id] = _ForwarderState(spec, self.coefficients)
        self._refresh_flow_shape()

    def _refresh_flow_shape(self) -> None:
        """Recompute the single-flow dispatch shortcuts."""
        self._single_source = None
        self._single_forwarder = None
        if not self.forward_flows and len(self.source_flows) == 1:
            self._single_source = next(iter(self.source_flows.items()))
        elif not self.source_flows and len(self.forward_flows) == 1:
            self._single_forwarder = next(iter(self.forward_flows.items()))

    def install_destination(self, spec: MoreFlowSpec) -> None:
        """Install destination-side state for a flow terminating at this node."""
        self.specs[spec.flow_id] = spec
        self.destination_flows[spec.flow_id] = _DestinationState(spec)

    def install_ack_relay(self, spec: MoreFlowSpec) -> None:
        """Register the flow spec so this node can relay its batch ACKs."""
        self.specs[spec.flow_id] = spec

    # ------------------------------------------------------------------ #
    # MAC interface
    # ------------------------------------------------------------------ #

    def has_pending(self, now: float) -> bool:
        if self._ack_queue:
            return True
        single = self._single_source
        if single is not None:
            return not single[1].done
        single = self._single_forwarder
        if single is not None:
            return single[1].backlogged
        for state in self.source_flows.values():
            if not state.done:
                return True
        for state in self.forward_flows.values():
            if state.backlogged:
                return True
        return False

    def on_transmit_opportunity(self, now: float) -> Frame | None:
        # Batch ACKs have strict priority (Section 3.2.2).
        if self._ack_queue:
            return self._ack_queue[0]
        # Single-flow fast paths (the overwhelmingly common agent
        # shapes): round-robin over one backlogged flow always lands on
        # it, so skip building and sorting the flow-id list.
        single = self._single_source
        if single is not None:
            state = single[1]
            if state.done:
                return None
            self._round_robin = 0
            return self._make_source_frame(state)
        single = self._single_forwarder
        if single is not None:
            flow_id, state = single
            if not state.backlogged:
                return None
            self._round_robin = 0
            return self._make_forwarder_frame(flow_id)
        flows = self._backlogged_flow_ids()
        if not flows:
            return None
        # Round-robin over backlogged flows (Section 3.3.3, sender side).
        self._round_robin = (self._round_robin + 1) % len(flows)
        flow_id = flows[self._round_robin]
        source_state = self.source_flows.get(flow_id)
        if source_state is not None and not source_state.done:
            return self._make_source_frame(source_state)
        return self._make_forwarder_frame(flow_id)

    def _backlogged_flow_ids(self) -> list[int]:
        flows = [fid for fid, state in self.source_flows.items() if not state.done]
        flows.extend(fid for fid, state in self.forward_flows.items()
                     if state.backlogged and fid not in flows)
        return sorted(flows)

    # ------------------------------------------------------------------ #
    # Frame construction
    # ------------------------------------------------------------------ #

    def _make_source_frame(self, state: _SourceState) -> Frame:
        assert state.encoder is not None
        return self._data_frame(state.spec, state.encoder.next_packet())

    def _make_forwarder_frame(self, flow_id: int) -> Frame | None:
        state = self.forward_flows.get(flow_id)
        if state is None or not state.backlogged:
            return None
        assert state.encoder is not None
        state.credit -= 1.0
        return self._data_frame(state.spec, state.encoder.next_packet())

    def _data_frame(self, spec: MoreFlowSpec, coded: CodedPacket) -> Frame:
        """A broadcast data frame of the current plan, carrying ``coded``:
        the frame holds the flow id, the packet its batch id and code
        vector, and the plan the header's size and forwarder list."""
        self.data_sent += 1
        return Frame(
            sender=self.node_id,
            receiver=BROADCAST,
            kind=FrameKind.DATA,
            flow_id=spec.flow_id,
            size_bytes=spec.plan.frame_size,
            payload=coded,
        )

    def _queue_ack(self, spec: MoreFlowSpec, batch_id: int) -> None:
        """Queue a batch ACK toward the source (next hop on the ACK route)."""
        next_hop = spec.plan.ack_next_hop.get(self.node_id)
        if next_hop is None:
            return
        frame = Frame(
            sender=self.node_id,
            receiver=next_hop,
            kind=FrameKind.BATCH_ACK,
            flow_id=spec.flow_id,
            size_bytes=ACK_SIZE_BYTES,
            payload=MoreAckPayload(flow_id=spec.flow_id, batch_id=batch_id),
        )
        self._ack_queue.append(frame)
        self.notify_pending()

    # ------------------------------------------------------------------ #
    # Reception handling
    # ------------------------------------------------------------------ #

    def on_frame_received(self, frame: Frame, now: float) -> None:
        # Data frames outnumber ACKs by orders of magnitude: check them first.
        kind = frame.kind
        if kind is FrameKind.DATA:
            payload = frame.payload
            if payload.__class__ is CodedPacket:
                self._handle_data(frame, payload, now)
            return
        if kind is FrameKind.BATCH_ACK and isinstance(frame.payload, MoreAckPayload):
            self._handle_ack(frame, frame.payload, now)

    def _handle_ack(self, frame: Frame, ack: MoreAckPayload, now: float) -> None:
        spec = self.specs.get(ack.flow_id)
        # Every node that overhears the ACK flushes the acked batch
        # (Section 3.3.4), whether or not it is the MAC receiver.
        forwarder = self.forward_flows.get(ack.flow_id)
        if forwarder is not None and ack.batch_id >= forwarder.current_batch:
            forwarder.flush(ack.batch_id + 1)
        if frame.receiver != self.node_id or spec is None:
            return
        if self.node_id == spec.source:
            state = self.source_flows.get(ack.flow_id)
            if state is not None:
                state.handle_ack(ack.batch_id)
                self.notify_pending()
            return
        # Relay the ACK one hop closer to the source.
        self._queue_ack(spec, ack.batch_id)

    def _handle_data(self, frame: Frame, coded: CodedPacket, now: float) -> None:
        flow_id = frame.flow_id
        # Per-flow roles are disjoint (a node sources, forwards or decodes a
        # given flow), so dispatch straight off the role tables; nodes with
        # neither role for this flow — the source hearing itself, ACK-route
        # relays, bystanders — fall through and ignore the packet.
        state = self.forward_flows.get(flow_id)
        if state is not None:
            # Only forwarders the header lists take part: one the current
            # plan dropped, or the MAX_FORWARDERS cap cut, ignores the data.
            plan = state.spec.plan
            upstream = plan.upstream.get(self.node_id)
            if upstream is None:
                return
            batch_id = coded.batch_id
            if batch_id >= state.current_batch and frame.sender in upstream:
                # Credit increases for every packet heard from upstream
                # (Section 3.3.3), before the innovation check.
                if batch_id > state.current_batch:
                    state.flush(batch_id)
                state.credit += plan.tx_credit[self.node_id]
            if state.handle_data(coded):
                self.innovative_received += 1
            else:
                self.non_innovative_received += 1
            if state.backlogged:
                self.notify_pending()
            return
        destination = self.destination_flows.get(flow_id)
        if destination is not None:
            self._handle_data_at_destination(destination, coded, now)

    def _handle_data_at_destination(self, state: _DestinationState, coded: CodedPacket,
                                    now: float) -> None:
        innovative, completed = state.handle_data(coded)
        flow_id = state.spec.flow_id
        if innovative:
            self.innovative_received += 1
        else:
            self.non_innovative_received += 1
            self.sim.stats.record_duplicate(flow_id)
        if completed:
            self.sim.stats.record_delivery(flow_id, coded.batch_size, now,
                                           batch_complete=True)
            self._queue_ack(state.spec, coded.batch_id)

    # ------------------------------------------------------------------ #
    # MAC completion callbacks
    # ------------------------------------------------------------------ #

    def on_frame_sent(self, frame: Frame, success: bool, now: float) -> None:
        if frame.kind is FrameKind.BATCH_ACK:
            if self._ack_queue and self._ack_queue[0] is frame:
                if success:
                    self._ack_queue.pop(0)
                # On failure the ACK stays queued and will be retried at the
                # next opportunity (Section 3.3.4: reliable, prioritised).
            self.notify_pending()
