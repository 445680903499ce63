"""Flow runner: execute one experiment (one or more flows) on the simulator.

The runner is what the scenario executor (:mod:`repro.scenarios.execute`)
calls for every flow.  :func:`start_flows` is the one place a run is
started: it builds a fresh :class:`~repro.sim.simulator.Simulator` over a
topology, installs the requested protocol's flows and arms the online
control plane; :func:`run_flows` runs that to completion (or a time limit)
and returns per-flow throughput in packets per second — the metric the
paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.experiments.refresh import FlowSupervisor, LinkStateRefresher
from repro.protocols.exor import setup_exor_flow
from repro.protocols.more import setup_more_flow
from repro.protocols.more.header import MAX_BATCH_SIZE
from repro.protocols.srcr import setup_srcr_flow
from repro.sim.channels import ChannelSpec
from repro.sim.faults import FaultSpec
from repro.sim.radio import RATE_5_5MBPS, SUPPORTED_RATES, SimConfig
from repro.sim.simulator import Simulator
from repro.topology.estimation import (
    DEFAULT_OPTIMISM_EXPONENT,
    DEFAULT_PROBE_COUNT,
    probe_estimated_topology,
)
from repro.topology.graph import LinkView, Topology
from repro.topology.mobility import MobilitySpec

#: Protocol names accepted by the runner.
PROTOCOLS = ("MORE", "ExOR", "Srcr")


@dataclass
class FlowResult:
    """Outcome of one flow in one simulation run."""

    protocol: str
    source: int
    destination: int
    throughput_pkts: float
    duration: float
    delivered_packets: int
    total_packets: int
    completed: bool
    #: Data frames put on the air in the whole run, every flow's: in a
    #: multi-flow run each flow reports the same total (the multiflow
    #: golden traces pin it).
    data_transmissions: int
    #: True when the flow ended as a structured ``FlowAborted`` outcome
    #: (progress timeout under faults) instead of completing or timing out
    #: against ``max_duration``; ``abort_reason`` is the supervisor's why.
    aborted: bool = False
    abort_reason: str = ""


@dataclass(frozen=True)
class Environment:
    """The world a transfer runs in: a scenario's three model sections.

    The default is the paper's: static Bernoulli links, immobile nodes, no
    faults.  :meth:`repro.scenarios.spec.ScenarioSpec.environment` hands out
    a scenario's own.
    """

    channel: ChannelSpec = field(default_factory=ChannelSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    faults: FaultSpec = field(default_factory=FaultSpec)


#: What a ``RunConfig`` field of each declared type accepts, and in words.
_FIELD_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}


def _as_declared(name: str, declared: str, value):
    """``value`` as field ``name``'s declared type, or a one-line ``ValueError``.

    A scenario's ``run`` section arrives as JSON or ``--set`` text, so a
    value can be any JSON type: an ``int`` field takes an integer (no
    ``bool``, no ``1.5``), a ``float`` field a finite-or-infinite number or
    the string ``"inf"`` (JSON has no infinity; never NaN), a ``bool`` field
    a ``bool`` (not a truthy string), ``| None`` also ``None``.
    """
    kind, _, optional = declared.partition(" | ")
    if value is None and optional == "None":
        return None
    if kind == "float" and value == "inf":
        return math.inf
    accepted, in_words = _FIELD_KINDS[kind]
    # To isinstance a bool is an int; NaN is the value unequal to itself.
    if (not isinstance(value, accepted) or value != value
            or (isinstance(value, bool) and kind != "bool")):
        raise ValueError(f"{name} must be {in_words}, got {value!r}")
    return float(value) if kind == "float" else value


@dataclass
class RunConfig:
    """The transfer, protocol and control-plane parameters of one run.

    What the transfer runs *in* — channel model, mobility, faults — is not
    here: it is the :class:`Environment`, described by the scenario's
    ``channel`` / ``mobility`` / ``faults`` sections.

    The defaults are scaled down from the paper's 5 MB transfers so the whole
    benchmark suite runs in minutes; pass ``total_packets=3495`` (5 MB /
    1500 B) to reproduce the paper's transfer size exactly.

    ``estimation_exponent`` (in (0, 1]) / ``estimation_probes`` control the
    probe-based link-quality estimates fed to every protocol's control plane
    (see :mod:`repro.topology.estimation`); set the exponent to 1.0 and
    probes to 0 for a perfectly informed control plane (the ablation case).

    ``vector_only`` enables the payload-free fast path: delivery, rank
    progression and throughput are fully determined by code vectors, so
    runs that never assert payload bytes can skip all payload arithmetic.
    It is shorthand for ``coding_payload_size=0``, which it supersedes: MORE
    codes over zero-length payloads (air time still uses ``packet_size``).
    Results are bit-identical to a payload-carrying run with the same
    seeds — empty RNG draws consume no generator state — just faster.  Set
    it per scenario with ``repro run/sweep --set run.vector_only=true``.
    """

    total_packets: int = 96
    batch_size: int = 32
    packet_size: int = 1500
    bitrate: int = RATE_5_5MBPS
    seed: int = 0
    max_duration: float = 120.0
    coding_payload_size: int = 16
    srcr_autorate: bool = False
    more_metric: str = "etx"
    estimation_exponent: float = DEFAULT_OPTIMISM_EXPONENT
    estimation_probes: int = DEFAULT_PROBE_COUNT
    vector_only: bool = False
    #: Seconds between link-state refreshes: a recurring simulator event
    #: that re-probes the (possibly moved) topology and rebuilds every
    #: flow's forwarding plan / forwarder list / route mid-flow.  ``inf``
    #: (the default) never refreshes — plans are computed once at t=0,
    #: exactly like the paper's harnesses — which makes staleness a sweep
    #: axis (``run.refresh_period``).  Accepts the string ``"inf"`` so the
    #: axis stays plain JSON.
    refresh_period: float = math.inf
    #: Cap on each MORE flow's forwarder-list length (the relay-count axis
    #: of the kilonode tier): the ``N`` highest-expected-load relays are
    #: kept in place of the 10% pruning rule, which degenerates at kilonode
    #: density (see :func:`repro.metrics.credits.cap_forwarders`).
    #: ``None`` keeps the full pruned plan.
    max_relays: int | None = None
    #: Seconds a flow may go without progress before the
    #: :class:`~repro.experiments.refresh.FlowSupervisor`, the run's
    #: liveness watchdog, re-plans it around crashed nodes and, after
    #: bounded retries, aborts it as a structured ``FlowAborted`` outcome
    #: whose reason carries the diagnosis.  ``inf`` (the default) supervises
    #: nothing — not even an event is scheduled.  Accepts the string
    #: ``"inf"`` so the axis stays plain JSON.
    progress_timeout: float = math.inf

    def __post_init__(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name,
                    _as_declared(spec.name, spec.type, getattr(self, spec.name)))
        if self.refresh_period <= 0:
            raise ValueError("refresh_period must be positive (inf = never)")
        if self.progress_timeout <= 0:
            raise ValueError("progress_timeout must be positive (inf = never)")
        if self.bitrate not in SUPPORTED_RATES:
            raise ValueError(f"bitrate must be an 802.11b rate in b/s, one of "
                             f"{SUPPORTED_RATES}, got {self.bitrate}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        for name in ("total_packets", "batch_size", "packet_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ValueError(f"batch_size must be at most {MAX_BATCH_SIZE} (the MORE "
                             f"header carries K in one byte), got {self.batch_size}")
        if self.max_duration <= 0:
            raise ValueError("max_duration must be positive")
        if not 0.0 < self.estimation_exponent <= 1.0:
            raise ValueError("estimation_exponent must lie in (0, 1], "
                             f"got {self.estimation_exponent!r}")
        for name in ("coding_payload_size", "estimation_probes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.coding_payload_size > self.packet_size:
            raise ValueError(f"coding_payload_size must be at most packet_size "
                             f"({self.packet_size}), got {self.coding_payload_size}")
        if self.more_metric not in ("etx", "eotx"):
            raise ValueError(f"more_metric must be 'etx' or 'eotx', got {self.more_metric!r}")
        if self.max_relays is not None and self.max_relays < 1:
            raise ValueError("max_relays must be at least 1 (None = no cap)")

    def control_view(self, topology: LinkView,
                     seed: int | tuple[int, ...] | None = None) -> LinkView:
        """The link-quality estimates the routing control plane works from.

        ``seed`` overrides the probe-noise stream (the refresh loop passes
        ``(run seed, refresh round)`` so every round samples fresh noise);
        the run seed is the default, and a perfectly informed control plane
        (exponent 1.0, no probes) returns the topology itself either way.
        """
        if self.estimation_exponent == 1.0 and self.estimation_probes == 0:
            return topology
        return probe_estimated_topology(
            topology,
            optimism_exponent=self.estimation_exponent,
            probe_count=self.estimation_probes,
            seed=self.seed if seed is None else seed,
        )


def _install_flow(sim: Simulator, topology: Topology, protocol: str, source: int,
                  destination: int, config: RunConfig, flow_seed: int,
                  control_topology: LinkView | None = None):
    """Install one flow of the requested protocol; returns its handle.

    The one place the protocol knobs of ``config`` (``more_metric``,
    ``max_relays``, ``srcr_autorate``) are read: the handle keeps them, so
    a later re-plan never consults a config again.
    """
    if protocol == "MORE":
        # vector_only supersedes the configured coding payload width: it is
        # width 0, the one way to code without payload bytes.
        coding_size = 0 if config.vector_only else config.coding_payload_size
        return setup_more_flow(
            sim, topology, source, destination,
            total_packets=config.total_packets,
            batch_size=config.batch_size,
            packet_size=config.packet_size,
            coding_payload_size=coding_size,
            metric=config.more_metric,
            seed=flow_seed,
            control_topology=control_topology,
            max_relays=config.max_relays,
        )
    if protocol == "ExOR":
        return setup_exor_flow(
            sim, topology, source, destination,
            total_packets=config.total_packets,
            batch_size=config.batch_size,
            packet_size=config.packet_size,
            control_topology=control_topology,
        )
    if protocol == "Srcr":
        return setup_srcr_flow(
            sim, topology, source, destination,
            total_packets=config.total_packets,
            packet_size=config.packet_size,
            use_autorate=config.srcr_autorate,
            control_topology=control_topology,
        )
    raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")


def start_flows(topology: Topology, protocol: str, pairs: list[tuple[int, int]],
                config: RunConfig | None = None,
                environment: Environment | None = None) -> tuple[Simulator, list]:
    """Everything of a run that happens before the clock starts.

    Builds the simulator, installs one ``protocol`` flow per pair (flow
    ``index`` is seeded ``config.seed + index``) and arms the online control
    plane; returns the simulator and the flow handles, in pair order.
    :func:`run_flows` runs it, collects the results and closes it; callers
    that need the whole finished simulator (the golden traces, a decoded
    file, a step-wise test) run it themselves and keep it open.
    """
    run_config = config if config is not None else RunConfig()
    if environment is None:
        environment = Environment()
    sim = Simulator(topology, SimConfig(
        bitrate=run_config.bitrate, seed=run_config.seed,
        max_duration=run_config.max_duration,
        channel_model=environment.channel, mobility=environment.mobility,
        faults=environment.faults))
    control = run_config.control_view(topology)
    handles = [
        _install_flow(sim, topology, protocol, source, destination, run_config,
                      flow_seed=run_config.seed + index, control_topology=control)
        for index, (source, destination) in enumerate(pairs)
    ]
    # Online control plane: with a finite refresh_period, re-probe the
    # (possibly moved) topology mid-flow and rebuild every flow's plan.
    # refresh_period=inf schedules nothing — bit-identical static plans.
    LinkStateRefresher(sim, handles, run_config).install()
    # Graceful degradation under faults: with a finite progress_timeout, a
    # stalled flow is re-planned around crashed nodes a bounded number of
    # times and then aborted as a structured outcome (never an endless run).
    # progress_timeout=inf schedules nothing — bit-identical to before.
    FlowSupervisor(sim, handles, run_config).install()
    return sim, handles


def run_flows(topology: Topology, protocol: str, pairs: list[tuple[int, int]],
              config: RunConfig | None = None,
              environment: Environment | None = None) -> list[FlowResult]:
    """Run one simulation with all ``pairs`` as concurrent flows of ``protocol``.

    ``environment`` defaults to the static, immobile, fault-free world.
    Returns one :class:`FlowResult` per pair, in order.

    The simulator is closed (:meth:`~repro.sim.simulator.Simulator.close`)
    once the results are built: whoever still holds it reads the run's
    record (statistics, clock, event count, MAC and medium counters), not
    its agents, coding buffers or frames, and nothing holds it in a cycle.
    """
    sim, handles = start_flows(topology, protocol, pairs, config, environment)
    # The simulator's own horizon is the config's max_duration.
    sim.run(stop_condition=sim.stats.all_flows_complete)
    results = []
    for handle, (source, destination) in zip(handles, pairs):
        record = handle.record
        # Completed and aborted flows end at their end_time; one still
        # running at the horizon ends now.
        end = record.end_time if record.end_time is not None else sim.now
        duration = max(end - record.start_time, 1e-9)
        results.append(FlowResult(
            protocol=protocol,
            source=source,
            destination=destination,
            throughput_pkts=record.delivered_packets / duration,
            duration=duration,
            delivered_packets=record.delivered_packets,
            total_packets=record.total_packets,
            completed=record.completed,
            data_transmissions=sim.stats.total_data_transmissions(),
            aborted=record.aborted,
            abort_reason=record.abort_reason,
        ))
    sim.close()
    return results


def run_single_flow(topology: Topology, protocol: str, source: int, destination: int,
                    config: RunConfig | None = None,
                    environment: Environment | None = None) -> FlowResult:
    """Run one flow in isolation and return its result."""
    return run_flows(topology, protocol, [(source, destination)], config=config,
                     environment=environment)[0]
