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
instead of the clock.  Neither knows a protocol: a flow is anything with a
``flow_id`` and a ``replan(control)``.

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


def mask_dead_nodes(topology: Topology, dead: frozenset[int]) -> Topology:
    """The control plane's view of a topology with ``dead`` nodes in it.

    A crashed (or control-silent) node answers no probes, so every link
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
    positions = [node.position for node in topology.nodes]
    if not any(positions):
        positions = None
    return Topology(delivery, positions=positions,
                    names=[node.name for node in topology.nodes])


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
        yet replay identically run to run.  Crashed and control-silent
        nodes answer no probes, so the view masks them out and plans route
        around them (:func:`mask_dead_nodes`).
        """
        sim = self.sim
        topology = sim.medium.effective_topology(sim.now)
        if sim.faults is not None:
            topology = mask_dead_nodes(topology, sim.faults.control_dead(sim.now))
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
    """Per-flow progress watchdog: bounded re-plans, then a structured abort.

    The graceful-degradation half of the fault story.  Every
    ``progress_timeout`` simulated seconds each unfinished flow's delivery
    counters are compared against the previous check; a flow that moved
    nothing for a whole period is first **re-planned** over the
    fault-masked control view (up to :data:`MAX_REPLANS` times — MORE
    repairs its forwarder set and credits, ExOR re-ranks, Srcr detours)
    and, once re-plans are exhausted, **aborted** via
    :meth:`~repro.sim.trace.StatsCollector.record_abort` — a structured
    ``FlowAborted`` outcome that terminates the run instead of letting a
    crashed forwarder set spin it to ``max_duration``.

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
        self._fingerprints: dict[int, tuple[int, int, int]] = {}

    def _noise_stream(self) -> tuple[int, ...]:
        # Its own stream, so recovery never perturbs the periodic refresher's.
        return (_SUPERVISOR_STREAM, self.total_replans)

    def _tick(self) -> None:
        sim = self.sim
        stats = sim.stats
        if stats.all_flows_complete():
            return  # terminal: every flow finished, stop rescheduling
        now = sim.events.now
        control: Topology | None = None
        for handle in self.handles:
            record = stats.flows[handle.flow_id]
            if record.finished:
                continue
            fingerprint = (record.delivered_packets,
                           record.delivered_batches,
                           record.duplicate_packets)
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
                sim.trigger_node(record.source)
            else:
                self.aborts += 1
                faults = sim.faults
                down = sorted(faults.down_nodes()) if faults is not None \
                    else []
                stats.record_abort(
                    handle.flow_id, now,
                    reason=(f"no progress for {self.period:g}s after "
                            f"{replans} recovery re-plan(s); down nodes "
                            f"{down}"))
        self.sim.schedule_callback(self.period, self._tick)
