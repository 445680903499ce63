"""Runtime liveness monitoring: stalls become one-screen reports, not hangs.

The one time a flow genuinely stranded (the PR 6 kilonode zero-credit-relay
pathology) the failure mode was a silent hang caught only by the
orchestrator's external cell timeout — a process killed from outside with
no forensics.  :class:`SimMonitor` is the opt-in antidote: attached to the
event loop, it checks liveness/safety invariants every ``interval``
simulated seconds and, on violation, raises a :class:`StallDiagnosis`
carrying everything needed to debug the stall in one screen — per-flow
last-progress times and rank/credit snapshots, the crashed node set, and
which invariant tripped.

Invariants checked per tick:

* **flow progress** — every incomplete flow must advance its progress
  fingerprint (delivered/duplicate counters plus destination decoder rank,
  source batch position, and queued backlog, probed duck-typed from the
  attached agents) at least once per ``stall_intervals`` check intervals;
* **no-event deadlock** — while flows are incomplete, events other than
  the monitor's own ticks must be flowing through the scheduler;
* **credit conservation** — MORE forwarder credits stay finite and never
  fall below the one-transmission debt the credit rule permits;
* **queue bounds** — per-node packet queues stay within a generous
  multiple of the total offered load (runaway retransmission guard).

The monitor is strictly observational: with ``monitor`` disabled no object
is constructed and no event is scheduled, so a monitored run differs from
an unmonitored one only by the tick events themselves (asserted by the
fault differential tests).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.simulator import Simulator

#: Queue-bound safety factor: total queued packets per node may not exceed
#: ``_QUEUE_BOUND_FACTOR * total offered packets`` (floored at
#: ``_QUEUE_BOUND_FLOOR`` so tiny flows are not flagged by startup bursts).
_QUEUE_BOUND_FACTOR = 4
_QUEUE_BOUND_FLOOR = 64

#: Forwarder credit may legitimately dip just below zero (the credit rule
#: decrements a full transmission after the threshold check); anything
#: below this is a conservation bug.
_CREDIT_FLOOR = -1.0 - 1e-9


class StallDiagnosis(RuntimeError):
    """A liveness/safety invariant violation, with the forensics attached.

    Attributes:
        reason: which invariant tripped, human-readable.
        now: simulated time of the failed check.
        flows: per-flow snapshot dicts (delivered/total counts, last
            progress time, destination rank, per-node credits, queued
            backlog) for every flow that had not finished.
        down_nodes: nodes crashed at diagnosis time (the usual suspects).
        ticks: how many monitor checks had run, including this one.
    """

    def __init__(self, reason: str, now: float,
                 flows: dict[int, dict[str, Any]],
                 down_nodes: frozenset[int], ticks: int) -> None:
        self.reason = reason
        self.now = now
        self.flows = flows
        self.down_nodes = down_nodes
        self.ticks = ticks
        super().__init__(self.render())

    def render(self) -> str:
        """The one-screen report (also the exception message)."""
        lines = [f"stall diagnosis at t={self.now:.3f}s "
                 f"(check #{self.ticks}): {self.reason}"]
        if self.down_nodes:
            lines.append(f"  down nodes: {sorted(self.down_nodes)}")
        for flow_id, info in sorted(self.flows.items()):
            lines.append(
                f"  flow {flow_id}: {info['delivered']}/{info['total']} pkts "
                f"delivered, last progress t={info['last_progress']:.3f}s, "
                f"destination rank {info['rank']}")
            credits = info.get("credits")
            if credits:
                shown = ", ".join(f"{node}:{credit:.2f}"
                                  for node, credit in sorted(credits.items()))
                lines.append(f"    forwarder credits: {shown}")
            if info.get("queued"):
                lines.append(f"    queued packets: {info['queued']}")
        return "\n".join(lines)


class SimMonitor:
    """Opt-in runtime invariant checker attached to the event loop.

    ``interval`` is the check period in simulated seconds;
    ``stall_intervals`` is how many consecutive no-progress intervals a
    flow survives before the progress invariant trips (1 = the baseline
    snapshot taken at install makes the very first tick able to flag a
    born-dead flow — the PR 6 regression contract).
    """

    def __init__(self, sim: "Simulator", interval: float = 1.0,
                 stall_intervals: int = 1) -> None:
        if interval <= 0.0 or not math.isfinite(interval):
            raise ValueError("monitor interval must be positive and finite")
        if stall_intervals < 1:
            raise ValueError("monitor stall_intervals must be >= 1")
        self.sim = sim
        self.interval = float(interval)
        self.stall_intervals = int(stall_intervals)
        self.ticks = 0
        self.installed = False
        self._fingerprints: dict[int, tuple] = {}
        self._last_progress: dict[int, float] = {}
        self._quiet: dict[int, int] = {}

    def install(self) -> None:
        """Take the baseline snapshot and schedule the first check.

        Called by :meth:`Simulator.run` once flows are registered — the
        baseline is what makes the first tick able to flag a flow that
        never progressed at all.
        """
        self.installed = True
        for flow_id, fingerprint in self._probe_fingerprints().items():
            self._fingerprints[flow_id] = fingerprint
            self._last_progress[flow_id] = self.sim.events.now
            self._quiet[flow_id] = 0
        self.sim.events.schedule_callback(self.interval, self._tick)

    # ------------------------------------------------------------------ #
    # Agent probing (duck-typed — no protocol imports)
    # ------------------------------------------------------------------ #

    def _probe_fingerprints(self) -> dict[int, tuple]:
        """Per-incomplete-flow progress fingerprint: any change = liveness."""
        stats = self.sim.stats
        fingerprints: dict[int, list] = {}
        for flow_id, record in stats.flows.items():
            if record.finished:
                continue
            fingerprints[flow_id] = [record.delivered_packets,
                                     record.delivered_batches,
                                     record.duplicate_packets]
        if not fingerprints:
            return {}
        for agent in self.sim._agents:
            if agent is None:
                continue
            destinations = getattr(agent, "destination_flows", None)
            if destinations:
                for flow_id, state in destinations.items():
                    if flow_id not in fingerprints:
                        continue
                    decoder = getattr(state, "decoder", None)
                    rank = decoder.rank if decoder is not None else 0
                    fingerprints[flow_id] += [state.current_batch,
                                              len(state.completed), rank]
            sources = getattr(agent, "source_flows", None)
            if sources:
                for flow_id, state in sources.items():
                    if flow_id not in fingerprints:
                        continue
                    fingerprints[flow_id] += [state.current_batch,
                                              len(state.acked)]
            queues = getattr(agent, "queues", None)
            if queues:
                for flow_id, queue in queues.items():
                    if flow_id in fingerprints:
                        fingerprints[flow_id].append(len(queue))
        return {flow_id: tuple(parts)
                for flow_id, parts in fingerprints.items()}

    def _snapshots(self) -> dict[int, dict[str, Any]]:
        """The forensic per-flow snapshots a diagnosis carries."""
        stats = self.sim.stats
        snapshots: dict[int, dict[str, Any]] = {}
        for flow_id, record in stats.flows.items():
            if record.finished:
                continue
            snapshots[flow_id] = {
                "delivered": record.delivered_packets,
                "total": record.total_packets,
                "last_progress": self._last_progress.get(
                    flow_id, record.start_time),
                "rank": 0,
                "credits": {},
                "queued": 0,
            }
        for node, agent in enumerate(self.sim._agents):
            if agent is None:
                continue
            forwarders = getattr(agent, "forward_flows", None)
            if forwarders:
                for flow_id, state in forwarders.items():
                    if flow_id in snapshots:
                        snapshots[flow_id]["credits"][node] = state.credit
            destinations = getattr(agent, "destination_flows", None)
            if destinations:
                for flow_id, state in destinations.items():
                    if flow_id in snapshots:
                        decoder = getattr(state, "decoder", None)
                        snapshots[flow_id]["rank"] = (
                            decoder.rank if decoder is not None else 0)
            queues = getattr(agent, "queues", None)
            if queues:
                for flow_id, queue in queues.items():
                    if flow_id in snapshots:
                        snapshots[flow_id]["queued"] += len(queue)
        return snapshots

    def _down_nodes(self) -> frozenset[int]:
        faults = getattr(self.sim, "faults", None)
        return faults.down_nodes() if faults is not None else frozenset()

    def _diagnose(self, reason: str) -> StallDiagnosis:
        return StallDiagnosis(reason, self.sim.events.now, self._snapshots(),
                              self._down_nodes(), self.ticks)

    # ------------------------------------------------------------------ #
    # The periodic check
    # ------------------------------------------------------------------ #

    def _tick(self) -> None:
        sim = self.sim
        stats = sim.stats
        self.ticks += 1
        if stats.all_flows_complete():
            return  # terminal: stop rescheduling, the run is about to end
        now = sim.events.now

        # No-event deadlock: this tick has already been popped, so an empty
        # queue means nothing else will ever run — yet flows are incomplete.
        # (`empty` tracks live, non-cancelled entries.)
        if sim.events.empty:
            raise self._diagnose(
                "event queue drained with incomplete flows (deadlock)")

        # Safety invariants: credit conservation and queue bounds.
        self._check_safety()

        # Flow progress: every incomplete flow must move its fingerprint.
        fingerprints = self._probe_fingerprints()
        stalled: list[int] = []
        for flow_id, fingerprint in fingerprints.items():
            if fingerprint != self._fingerprints.get(flow_id):
                self._fingerprints[flow_id] = fingerprint
                self._last_progress[flow_id] = now
                self._quiet[flow_id] = 0
                continue
            quiet = self._quiet.get(flow_id, 0) + 1
            self._quiet[flow_id] = quiet
            if quiet >= self.stall_intervals:
                stalled.append(flow_id)
        if stalled:
            raise self._diagnose(
                f"no progress on flow(s) {sorted(stalled)} for "
                f"{self.stall_intervals} check interval(s) (stall)")

        sim.events.schedule_callback(self.interval, self._tick)

    def _check_safety(self) -> None:
        total_offered = sum(record.total_packets
                            for record in self.sim.stats.flows.values())
        queue_bound = max(_QUEUE_BOUND_FLOOR,
                          _QUEUE_BOUND_FACTOR * total_offered)
        for node, agent in enumerate(self.sim._agents):
            if agent is None:
                continue
            forwarders = getattr(agent, "forward_flows", None)
            if forwarders:
                for flow_id, state in forwarders.items():
                    credit = state.credit
                    if not math.isfinite(credit) or credit < _CREDIT_FLOOR:
                        raise self._diagnose(
                            f"credit conservation violated at node {node} "
                            f"flow {flow_id}: credit={credit!r}")
            queues = getattr(agent, "queues", None)
            if queues:
                queued = sum(len(queue) for queue in queues.values())
                if queued > queue_bound:
                    raise self._diagnose(
                        f"queue bound exceeded at node {node}: {queued} "
                        f"packets queued (bound {queue_bound})")
