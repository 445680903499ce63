"""Simulation statistics: per-flow delivery tracking and throughput.

The experiment harness reads throughput (packets per second of *delivered
native data*, matching how the paper reports pkt/s) and transmission counts
from here.  Protocol agents report deliveries; the MAC and medium report
channel usage.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FlowRecord:
    """Lifecycle record of one unicast flow (one file transfer)."""

    flow_id: int
    source: int
    destination: int
    total_packets: int
    packet_size: int
    start_time: float = 0.0
    end_time: float | None = None
    delivered_packets: int = 0
    delivered_batches: int = 0
    duplicate_packets: int = 0
    #: True when the flow was given up on (progress timeout after faults,
    #: say) rather than delivered; ``abort_reason`` says why.  A structured
    #: outcome — the alternative is a run that never terminates.
    aborted: bool = False
    abort_reason: str = ""

    @property
    def completed(self) -> bool:
        """True once every native packet has been delivered to the application."""
        return self.delivered_packets >= self.total_packets

    @property
    def finished(self) -> bool:
        """True once the flow reached *any* terminal state: fully delivered
        or structurally aborted."""
        return self.completed or self.aborted

    @property
    def duration(self) -> float | None:
        """Transfer duration in seconds (None until completion)."""
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def throughput_pkts(self, now: float | None = None) -> float:
        """Delivered throughput in packets per second.

        If the flow has not completed, ``now`` must be supplied and the
        throughput is computed over the elapsed time so far.
        """
        end = self.end_time if self.end_time is not None else now
        if end is None:
            raise ValueError("flow not complete; supply `now` for partial throughput")
        elapsed = max(end - self.start_time, 1e-9)
        return self.delivered_packets / elapsed


@dataclass
class StatsCollector:
    """Aggregates flow records and channel counters for one simulation run."""

    flows: dict[int, FlowRecord] = field(default_factory=dict)
    data_transmissions: dict[int, int] = field(default_factory=dict)
    #: Flows registered but not yet complete — keeps the standard stop
    #: condition O(1) instead of a scan over every flow per evaluation.
    _incomplete: int = 0

    def register_flow(self, flow_id: int, source: int, destination: int,
                      total_packets: int, packet_size: int, start_time: float) -> FlowRecord:
        """Create the record for a new flow."""
        record = FlowRecord(
            flow_id=flow_id,
            source=source,
            destination=destination,
            total_packets=total_packets,
            packet_size=packet_size,
            start_time=start_time,
        )
        previous = self.flows.get(flow_id)
        if previous is not None and not previous.completed:
            self._incomplete -= 1  # re-registration replaces the old record
        self.flows[flow_id] = record
        if not record.completed:  # zero-packet flows count as complete
            self._incomplete += 1
        return record

    def record_delivery(self, flow_id: int, packets: int, now: float,
                        batch_complete: bool = False) -> None:
        """Record ``packets`` native packets handed to the destination application."""
        record = self.flows[flow_id]
        was_complete = record.completed
        record.delivered_packets += packets
        if batch_complete:
            record.delivered_batches += 1
        if record.completed and record.end_time is None:
            record.end_time = now
            if not was_complete:  # zero-packet flows were never counted
                self._incomplete -= 1

    def record_abort(self, flow_id: int, now: float, reason: str = "") -> None:
        """Record a structured give-up on ``flow_id`` (a ``FlowAborted``
        outcome): the flow stops counting as incomplete, so the standard
        stop condition terminates the run instead of spinning forever."""
        record = self.flows[flow_id]
        if record.end_time is None:
            record.end_time = now
            record.aborted = True
            record.abort_reason = reason
            if not record.completed:
                self._incomplete -= 1

    def record_duplicate(self, flow_id: int) -> None:
        """Record a non-innovative / duplicate packet arriving at the destination."""
        if flow_id in self.flows:
            self.flows[flow_id].duplicate_packets += 1

    def record_data_transmission(self, node_id: int) -> None:
        """Count a data-frame transmission by ``node_id``."""
        self.data_transmissions[node_id] = self.data_transmissions.get(node_id, 0) + 1

    def all_flows_complete(self) -> bool:
        """True when every registered flow reached a terminal state
        (delivered in full, or structurally aborted).

        O(1): tracked via the incomplete-flow counter, not a per-call scan.
        """
        return self._incomplete == 0 and bool(self.flows)

    def total_data_transmissions(self) -> int:
        """Total data-frame transmissions across all nodes."""
        return sum(self.data_transmissions.values())
