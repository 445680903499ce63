"""Online link-state refresh: the control plane that can go stale.

The paper's harnesses compute every forwarding plan once, at t=0, from a
single probe-measurement phase (Section 4.1.2) — which is fine for a frozen
testbed but sidesteps the question its own argument raises: how well does
each protocol cope as its link state *ages*?  This module closes the loop:
a :class:`LinkStateRefresher` is a recurring simulator event that, every
``refresh_period`` simulated seconds,

1. snapshots the topology as it stands *now*
   (:meth:`~repro.sim.medium.WirelessMedium.effective_topology` — under
   mobility/churn this is the current epoch's realisation),
2. re-runs the probe estimation of Section 3.1.1 over it
   (:func:`~repro.topology.estimation.probe_estimated_topology`, with fresh
   sampling noise per refresh), and
3. re-plans every installed flow **mid-flow** over those estimates through
   its handle's ``replan`` (:meth:`repro.protocols.base.FlowHandle.replan`,
   the code that planned the flow at set-up, with what the flow was set up
   with): MORE's forwarder list + TX credits + ACK route (Algorithm 1 +
   Eq. 3.3 + pruning), ExOR's prioritised participant list and cleanup/ACK
   routes, Srcr's best-ETX route (with detour next-hops for relays stranded
   off the new route by in-flight packets).

The :class:`FlowSupervisor` is the same loop driven by lack of progress
instead of the clock, and the run's one liveness watchdog.  Neither knows a
protocol: a flow is anything with a ``flow_id`` and a ``replan(control)``,
and what the watchdog reads of the agents is probed duck-typed
(:func:`probe_flows`).

``refresh_period=inf`` (the default) schedules nothing at all, reproducing
today's static plans bit for bit; sweeping ``run.refresh_period`` turns
link-state staleness into an experiment axis — the ``stale_state_sweep``
preset compares MORE vs ExOR vs Srcr as plans age under mobility, which is
the structure-vs-randomness trade-off made measurable.

Refresh computations draw only from their own seed-derived stream (the
probe-noise RNG is seeded by ``(seed, refresh index)``), never from the
simulator's main generator, so enabling a refresh loop perturbs no channel
or MAC randomness.  A refresh that finds the endpoints disconnected in the
control view keeps the stale plan and retries next period — exactly what a
real control plane would do.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.experiments.runner import RunConfig
    from repro.sim.simulator import Simulator

#: Probe-noise stream tag for supervisor-initiated re-plans, so recovery
#: replans never consume the periodic refresher's ``(seed, round)`` stream.
_SUPERVISOR_STREAM = 0x5FA17

#: Forwarder credit may dip just below zero (the credit rule spends a whole
#: transmission after its threshold check); anything lower is a conservation
#: bug.
_CREDIT_FLOOR = -1.0 - 1e-9

#: A flow may hold at most ``max(_QUEUE_BOUND_FLOOR, _QUEUE_BOUND_FACTOR *
#: offered packets)`` packets queued at one node (the floor keeps a tiny
#: flow's start-up burst from tripping it): a runaway-retransmission guard.
_QUEUE_BOUND_FACTOR = 4
_QUEUE_BOUND_FLOOR = 64


def mask_dead_nodes(topology: Topology, dead: frozenset[int]) -> Topology:
    """The control plane's view of a topology with ``dead`` nodes in it.

    A crashed node answers no probes, so every link
    into or out of it measures as zero — plans computed over the masked
    view route around the corpse.  Returns ``topology`` itself when
    nothing is dead.
    """
    if not dead:
        return topology
    delivery = topology.delivery_matrix()
    indices = sorted(dead)
    delivery[indices, :] = 0.0
    delivery[:, indices] = 0.0
    return Topology(delivery, positions=topology.node_positions(),
                    names=[node.name for node in topology.nodes])


def probe_flows(sim: "Simulator") -> dict[int, dict]:
    """What the watchdog reads of each unfinished flow, probed duck-typed.

    Per flow id: ``progress``, the fingerprint whose every change counts as
    progress — delivered packets, batches and duplicates; the destination's
    current batch, completed batches and decoder rank; the source's current
    batch and acknowledged batches; queue lengths — and the forensics an
    abort reports: the destination ``rank`` (``None`` for a protocol without
    a decoder), forwarder ``credits`` and ``queued`` packets, per node in
    node order.
    Credit is not in the fingerprint: spending it is not progress.
    """
    probes = {
        flow_id: {"progress": [record.delivered_packets,
                               record.delivered_batches,
                               record.duplicate_packets],
                  "rank": None, "credits": {}, "queued": {}}
        for flow_id, record in sim.stats.flows.items() if not record.finished}
    for node in sim.nodes:
        agent = node.agent
        if agent is None:
            continue
        for flow_id, state in getattr(agent, "destination_flows", {}).items():
            if flow_id in probes:
                rank = state.decoder.rank if state.decoder is not None else 0
                probes[flow_id]["rank"] = rank
                probes[flow_id]["progress"] += [
                    state.current_batch, len(state.completed), rank]
        for flow_id, state in getattr(agent, "source_flows", {}).items():
            if flow_id in probes:
                probes[flow_id]["progress"] += [state.current_batch,
                                                len(state.acked)]
        for flow_id, queue in getattr(agent, "queues", {}).items():
            if flow_id in probes:
                probes[flow_id]["progress"].append(len(queue))
                probes[flow_id]["queued"][node.node_id] = len(queue)
        for flow_id, state in getattr(agent, "forward_flows", {}).items():
            if flow_id in probes:
                probes[flow_id]["credits"][node.node_id] = state.credit
    return probes


class _ControlLoop:
    """A recurring control-plane event over a set of flow handles."""

    def __init__(self, sim: "Simulator", handles: list, config: "RunConfig",
                 period: float) -> None:
        self.sim = sim
        self.handles = list(handles)
        self.config = config
        self.period = float(period)

    @property
    def enabled(self) -> bool:
        """True if a finite period and at least one flow make the loop real."""
        return bool(self.handles) and math.isfinite(self.period) and self.period > 0

    def install(self) -> "_ControlLoop":
        """Schedule the first round; a no-op for a period of ``inf``.

        With the loop disabled not even an event is scheduled, so static
        runs are bit-identical to a build without this subsystem.
        """
        if self.enabled:
            self.sim.schedule_callback(self.period, self._tick)
        return self

    def _tick(self) -> None:
        raise NotImplementedError

    def _noise_stream(self) -> tuple[int, ...]:
        """What, after the run seed, keys this round's probe noise."""
        raise NotImplementedError

    def control_view(self) -> Topology:
        """The link-state estimates of this round.

        Probes measure the topology *as it stands now*
        (:meth:`RunConfig.control_view` over the medium's current
        snapshot); each round draws fresh probe noise from its own
        ``(seed, *stream)`` generator, so estimates are independent samples
        yet replay identically run to run.  Crashed nodes answer no probes,
        so the view masks them out and plans route around them
        (:func:`mask_dead_nodes`).
        """
        sim = self.sim
        topology = sim.medium.effective_topology(sim.now)
        if sim.faults is not None:
            topology = mask_dead_nodes(topology, sim.faults.down_nodes())
        return self.config.control_view(
            topology, seed=(self.config.seed, *self._noise_stream()))


class LinkStateRefresher(_ControlLoop):
    """Recurring mid-flow re-plan of every flow, each ``refresh_period``.

    Attributes:
        refreshes: completed refresh rounds.
        skipped_flows: per-flow refreshes skipped because the control view
            had the endpoints disconnected (the stale plan was kept).
    """

    def __init__(self, sim: "Simulator", handles: list, config: "RunConfig") -> None:
        super().__init__(sim, handles, config, config.refresh_period)
        self.refreshes = 0
        self.skipped_flows = 0

    def _noise_stream(self) -> tuple[int, ...]:
        return (self.refreshes,)

    def _tick(self) -> None:
        self.refreshes += 1
        control = self.control_view()
        for handle in self.handles:
            try:
                handle.replan(control)
            except ValueError:
                # Endpoints disconnected in the control view: keep the
                # stale plan, retry next round (what a real control plane
                # does when probes stop returning).
                self.skipped_flows += 1
        self.sim.schedule_callback(self.period, self._tick)


class FlowSupervisor(_ControlLoop):
    """The liveness watchdog: bounded re-plans, then a structured abort.

    Every ``progress_timeout`` simulated seconds each unfinished flow is
    probed (:func:`probe_flows`).  The first check only records a baseline.
    A flow whose progress fingerprint has not changed since the last change
    it showed is first **re-planned** over the fault-masked control view
    (up to :data:`MAX_REPLANS` times — MORE repairs its forwarder set and
    credits, ExOR re-ranks, Srcr detours) and, once re-plans are exhausted,
    **aborted** via :meth:`~repro.sim.trace.StatsCollector.record_abort` —
    a structured ``FlowAborted`` outcome that terminates the run instead of
    letting a crashed forwarder set spin it to ``max_duration``.  A flow
    that breaks a safety invariant — a forwarder's credit below one
    transmission of debt, or a queue past the bound — is aborted at once.
    Either reason ends with the down nodes and the flow's forensics:
    delivered/total, destination rank, forwarder credits, queued packets.

    ``progress_timeout=inf`` (the default) schedules nothing at all:
    unsupervised runs are bit-identical to a build without this class.

    Attributes:
        total_replans: recovery re-plans issued across all flows.
        aborts: flows given up on.
    """

    #: Re-plan attempts per flow before the structured abort.
    MAX_REPLANS = 3

    def __init__(self, sim: "Simulator", handles: list,
                 config: "RunConfig") -> None:
        super().__init__(sim, handles, config, config.progress_timeout)
        self.total_replans = 0
        self.aborts = 0
        self._replans: dict[int, int] = {}
        self._fingerprints: dict[int, tuple] = {}

    def _noise_stream(self) -> tuple[int, ...]:
        # Its own stream, so recovery never perturbs the periodic refresher's.
        return (_SUPERVISOR_STREAM, self.total_replans)

    def _tick(self) -> None:
        sim = self.sim
        stats = sim.stats
        if stats.all_flows_complete():
            return  # terminal: every flow finished, stop rescheduling
        probes = probe_flows(sim)
        offered = sum(record.total_packets for record in stats.flows.values())
        queue_bound = max(_QUEUE_BOUND_FLOOR, _QUEUE_BOUND_FACTOR * offered)
        control: Topology | None = None
        for handle in self.handles:
            probe = probes.get(handle.flow_id)
            if probe is None:
                continue  # finished
            violation = _violation(probe, queue_bound)
            if violation is not None:
                self._abort(handle.flow_id, violation, probe)
                continue
            fingerprint = tuple(probe["progress"])
            if fingerprint != self._fingerprints.get(handle.flow_id):
                self._fingerprints[handle.flow_id] = fingerprint
                continue
            replans = self._replans.get(handle.flow_id, 0)
            if replans < self.MAX_REPLANS:
                self._replans[handle.flow_id] = replans + 1
                self.total_replans += 1
                if control is None:
                    control = self.control_view()
                try:
                    handle.replan(control)
                except ValueError:
                    # Endpoints unreachable in the masked view (the crash
                    # partitioned the mesh, or an endpoint is down): keep
                    # the stale plan; retry or abort at the next check.
                    pass
                sim.trigger_node(stats.flows[handle.flow_id].source)
            else:
                self._abort(handle.flow_id,
                            f"no progress for {self.period:g}s after "
                            f"{replans} recovery re-plan(s)", probe)
        self.sim.schedule_callback(self.period, self._tick)

    def _abort(self, flow_id: int, why: str, probe: dict) -> None:
        """End ``flow_id`` as a structured abort; the reason is one line."""
        self.aborts += 1
        sim = self.sim
        record = sim.stats.flows[flow_id]
        down = sorted(sim.faults.down_nodes()) if sim.faults is not None else []
        forensics = [f"delivered {record.delivered_packets}/{record.total_packets}"]
        if probe["rank"] is not None:
            forensics.append(f"destination rank {probe['rank']}")
        if probe["credits"]:
            credits = ", ".join(f"{node}:{credit:.2f}"
                                for node, credit in probe["credits"].items())
            forensics.append(f"forwarder credits [{credits}]")
        if probe["queued"]:
            forensics.append(f"queued packets {sum(probe['queued'].values())}")
        sim.stats.record_abort(
            flow_id, sim.now,
            reason=f"{why}; down nodes {down}; {', '.join(forensics)}")


def _violation(probe: dict, queue_bound: int) -> str | None:
    """The safety invariant ``probe`` breaks, in words, or ``None``."""
    for node, credit in probe["credits"].items():
        if not math.isfinite(credit) or credit < _CREDIT_FLOOR:
            return f"credit conservation violated at node {node}: credit={credit!r}"
    for node, queued in probe["queued"].items():
        if queued > queue_bound:
            return (f"queue bound exceeded at node {node}: {queued} packets "
                    f"queued (bound {queue_bound})")
    return None
