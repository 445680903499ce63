"""Declarative experiment descriptions: the :class:`ScenarioSpec` schema.

A scenario describes *what* to simulate — topology, workload, protocols,
transfer configuration, replication seeds and sweep axes — as plain data
that round-trips through dicts and JSON.  Execution lives in
:mod:`repro.scenarios.execute` (one cell) and
:mod:`repro.experiments.orchestrator` (a whole sweep across worker processes);
named presets covering the paper's figures live in
:mod:`repro.scenarios.presets`.

The unit of execution is a :class:`ScenarioCell`: one fully-resolved
scenario (every sweep axis pinned to a single value) plus one seed.
``ScenarioSpec.expand()`` produces the cartesian product of all sweep axes
and seeds, so a sweep is just a list of independent, deterministic cells —
which is what makes parallel execution bit-for-bit identical to serial.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields
from typing import Any

from repro.experiments.runner import PROTOCOLS, Environment, RunConfig
from repro.params import SectionSpec, check_kind
from repro.sim.channels import CHANNEL_KINDS, ChannelSpec
from repro.sim.faults import FAULT_KINDS, FaultSpec
from repro.topology.mobility import MOBILITY_KINDS, MobilitySpec

#: Execution modes understood by :func:`repro.scenarios.execute.run_cell`.
MODES = ("throughput", "multiflow", "gap")

#: Every token a scenario's ``protocols`` may hold, as (runner protocol,
#: ``RunConfig`` fields the token sets): the runner's names, plus ``Srcr/auto``
#: — Srcr with Onoe-style autorate, the extra baseline of Figure 4-6.  The
#: spec validates against it and :mod:`repro.scenarios.execute` resolves
#: tokens through it, so the two cannot drift.
PROTOCOL_TOKENS: dict[str, tuple[str, dict[str, Any]]] = {
    **{name: (name, {}) for name in PROTOCOLS},
    "Srcr/auto": ("Srcr", {"srcr_autorate": True}),
}

#: A transfer always spans at least this many batches
#: (``total_packets = max(2 * K, total_packets)``), so a batch-size sweep
#: (Figure 4-7) never degenerates into a sub-batch transfer.
MIN_BATCHES_PER_TRANSFER = 2


#: The model sections of a scenario (its :class:`Environment`): section name →
#: (spec class, accepted kinds).  Drives validation, dotted overrides, the JSON
#: round trip and the CLI's ``--channel`` / ``--mobility`` / ``--faults``.
MODEL_SECTIONS: dict[str, tuple[type[SectionSpec], tuple[str, ...]]] = {
    "channel": (ChannelSpec, CHANNEL_KINDS),
    "mobility": (MobilitySpec, MOBILITY_KINDS),
    "faults": (FaultSpec, FAULT_KINDS),
}


def _protocol_tokens(value: str | tuple | list) -> tuple[str, ...]:
    """``protocols`` as a tuple of accepted tokens.

    A bare string means one protocol, not a tuple of its characters.  An
    unknown token dies here — when the spec is built or overridden — and
    not after the cells of the tokens listed before it have run; so does an
    empty list (an empty table) and a repeated token (one series simulated
    twice).
    """
    tokens = (value,) if isinstance(value, str) else tuple(value)
    if not tokens:
        raise ValueError("protocols must name at least one protocol, got []")
    for index, token in enumerate(tokens):
        if token not in PROTOCOL_TOKENS:
            raise ValueError(f"unknown protocol {token!r}; expected one of "
                             f"{tuple(PROTOCOL_TOKENS)}")
        if token in tokens[:index]:
            raise ValueError(f"protocol {token!r} is listed twice in protocols")
    return tokens


def _distinct(values: tuple, what: str) -> tuple:
    """``values`` when it is non-empty and lists no value twice.

    Cells made from a repeated value share one store key and would be
    pooled as one sample; no value makes no cell.
    """
    if not values:
        raise ValueError(f"{what} must list at least one value, got []")
    for index, value in enumerate(values):
        if value in values[:index]:
            raise ValueError(f"{what} lists {value!r} twice")
    return values


def _apply_dotted(spec: "ScenarioSpec", path: str, value: Any) -> None:
    """Set one dotted-path override (e.g. ``run.batch_size``) on ``spec``."""
    head, _, rest = path.partition(".")
    if head == "run":
        if not rest or "." in rest:
            raise ValueError(f"run overrides need a single field name, got {path!r}")
        if rest not in {f.name for f in fields(RunConfig)}:
            raise ValueError(f"unknown RunConfig field {rest!r} in axis {path!r}")
        spec.run[rest] = value
    elif head in ("topology", "workload"):
        target = getattr(spec, head)
        if not rest:
            raise ValueError(f"{head} overrides need a parameter name, got {path!r}")
        if rest == "kind":
            target.kind = value
        else:
            target.params[rest] = value
    elif head in MODEL_SECTIONS:
        # `channel=gilbert_elliott` (a bare kind) and `channel.kind=...` both
        # switch the model; `channel.<param>` sets one model parameter, so
        # model axes (burst depth, churn rate, crash rate) are sweepable
        # like any other.  Switching to a *different* kind resets the params:
        # the old model's knobs would be unknown keywords for the new one.
        if not rest or rest == "kind":
            spec_cls, kinds = MODEL_SECTIONS[head]
            section = spec_cls(kind=value)
            check_kind(section, kinds)
            if value != getattr(spec, head).kind:
                setattr(spec, head, section)
        else:
            getattr(spec, head).params[rest] = value
    elif head == "protocols" and not rest:
        spec.protocols = _protocol_tokens(value)
    elif head == "mode" and not rest:
        spec.mode = str(value)
    else:
        raise ValueError(
            f"unsupported override path {path!r}; expected run.*, topology.*, "
            "workload.*, channel.*, mobility.*, faults.*, protocols or mode"
        )


class TopologySpec(SectionSpec):
    """Which topology generator to call and with what parameters.

    ``kind`` names a generator in :mod:`repro.topology.generator` (see
    :data:`repro.scenarios.build.TOPOLOGY_BUILDERS`); ``params`` are its
    keyword arguments.  Generators are deterministic given their params, so
    a TopologySpec fully determines the mesh.
    """

    label = "topology"


class WorkloadSpec(SectionSpec):
    """Which source-destination pairs (or flow sets) the experiment drives.

    ``kind`` selects a generator from :mod:`repro.experiments.workloads`
    (``random_pairs``, ``spatial_reuse``, ``explicit``, ``multiflow``);
    ``params`` are its arguments.  If ``params`` carries no
    ``seed``, the cell's seed is used: one seed drives both pair selection
    and the simulator.
    """

    label = "workload"


@dataclass
class ScenarioSpec:
    """One declarative experiment: topology × workload × protocols × sweep.

    Attributes:
        name: registry / cache key; also the subdirectory under ``results/``.
        description: one-line human description (shown by ``repro list``).
        topology: the mesh to simulate on.
        workload: the flows to drive across it.
        channel: the channel model the medium resolves receptions against
            (:class:`~repro.sim.channels.ChannelSpec`); defaults to the
            static Bernoulli delivery matrix.  The cell seed drives the
            channel RNG stream unless ``channel.params.seed`` pins one.
        mobility: the dynamic-topology process
            (:class:`~repro.topology.mobility.MobilitySpec`); defaults to
            a static topology.  Same seeding convention as ``channel``.
            Pair with a finite ``run.refresh_period`` for an online
            control plane (a plan refreshed mid-flow), or leave it at
            ``inf`` to study stale plans.
        faults: the fault-injection process
            (:class:`~repro.sim.faults.FaultSpec`); defaults to fault-free.
            Same seeding convention as ``channel``.  Pair with a finite
            ``run.progress_timeout`` so crashed forwarders trigger recovery
            re-plans and, failing that, a structured abort whose reason
            carries the diagnosis, instead of a hang.
        protocols: protocol tokens; plain names (``MORE``, ``ExOR``,
            ``Srcr``) or variants such as ``Srcr/auto`` (Srcr with Onoe-style
            autorate, the Figure 4-6 baseline).
        mode: ``throughput`` (one flow at a time per pair, the Fig 4-2
            method), ``multiflow`` (concurrent flow sets, Fig 4-5) or
            ``gap`` (analytic ETX-vs-EOTX survey, Fig 5-1 — no simulator).
        run: overrides for :class:`repro.experiments.runner.RunConfig`
            fields (``batch_size``, ``total_packets``, ``bitrate``, …).
        seeds: replication seeds; each seed is one cell per sweep point.
        sweep: dotted-path axes (``run.batch_size``, ``workload.flow_count``)
            mapped to the list of values to sweep; cells are the cartesian
            product across axes.
    """

    name: str
    topology: TopologySpec
    workload: WorkloadSpec
    description: str = ""
    protocols: tuple[str, ...] = PROTOCOLS
    mode: str = "throughput"
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    run: dict[str, Any] = field(default_factory=dict)
    seeds: tuple[int, ...] = (1,)
    sweep: dict[str, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        self.protocols = _protocol_tokens(self.protocols)
        for name, (spec_cls, kinds) in MODEL_SECTIONS.items():
            section = getattr(self, name)
            if isinstance(section, dict):
                section = spec_cls.from_dict(section)
                setattr(self, name, section)
            check_kind(section, kinds)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.sweep = {path: tuple(values) for path, values in self.sweep.items()}

    # -- serialisation ----------------------------------------------------- #

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "topology": self.topology.to_dict(),
            "workload": self.workload.to_dict(),
            "protocols": list(self.protocols),
            "mode": self.mode,
            **{name: getattr(self, name).to_dict() for name in MODEL_SECTIONS},
            "run": dict(self.run),
            "seeds": list(self.seeds),
            "sweep": {path: list(values) for path, values in self.sweep.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        missing = {"name", "topology", "workload"} - set(data)
        if missing:
            raise ValueError(f"scenario spec is missing required field(s): "
                             f"{sorted(missing)}")
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            topology=TopologySpec.from_dict(data["topology"]),
            workload=WorkloadSpec.from_dict(data["workload"]),
            protocols=data.get("protocols", PROTOCOLS),  # __post_init__ normalises
            mode=data.get("mode", "throughput"),
            # __post_init__ turns the section dicts into their spec classes.
            **{name: data[name] for name in MODEL_SECTIONS if name in data},
            run=dict(data.get("run", {})),
            seeds=tuple(data.get("seeds", (1,))),
            sweep={path: tuple(vals) for path, vals in data.get("sweep", {}).items()},
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- resolution -------------------------------------------------------- #

    def with_overrides(self, overrides: dict[str, Any]) -> "ScenarioSpec":
        """A deep copy with dotted-path overrides applied (sweep untouched)."""
        spec = copy.deepcopy(self)
        for path, value in overrides.items():
            _apply_dotted(spec, path, value)
        return spec

    def run_config(self, seed: int | None = None) -> RunConfig:
        """The :class:`RunConfig` for one cell of this scenario.

        ``seed`` wins unless the ``run`` overrides pin one explicitly.  The
        transfer is stretched to at least :data:`MIN_BATCHES_PER_TRANSFER`
        batches so batch-size sweeps stay well-posed.
        """
        known = {f.name for f in fields(RunConfig)}
        unknown = set(self.run) - known
        if unknown:
            raise ValueError(f"unknown RunConfig fields in scenario {self.name!r}: "
                             f"{sorted(unknown)}")
        values = dict(self.run)
        if seed is not None:
            values.setdefault("seed", int(seed))
        config = RunConfig(**values)
        config.total_packets = max(config.total_packets,
                                   MIN_BATCHES_PER_TRANSFER * config.batch_size)
        return config

    def environment(self) -> Environment:
        """The world every cell of this scenario runs in: its model sections."""
        return Environment(**{name: getattr(self, name) for name in MODEL_SECTIONS})

    def expand(self) -> list["ScenarioCell"]:
        """All cells of this sweep: cartesian product of sweep axes × seeds.

        The cell order (axes in insertion order, seeds innermost) and each
        cell's content depend only on the spec, which is what makes result
        caching and parallel execution deterministic.  The seeds and each
        axis must list at least one value and none twice: this is the one
        place cells are made, and the CLI sets ``seeds`` and ``sweep`` after
        the spec is built.
        """
        seeds = _distinct(self.seeds, "seeds")
        axis_paths = list(self.sweep)
        axis_values = [_distinct(self.sweep[path], f"sweep axis {path!r}")
                       for path in axis_paths]
        cells = []
        for combo in itertools.product(*axis_values):
            axes = dict(zip(axis_paths, combo))
            resolved = self.with_overrides(axes)
            resolved.sweep = {}
            for seed in seeds:
                cell_spec = copy.deepcopy(resolved)
                cell_spec.seeds = (seed,)
                cells.append(ScenarioCell(scenario=cell_spec, seed=int(seed),
                                          axes=dict(axes)))
        return cells


@dataclass
class ScenarioCell:
    """One fully-resolved (scenario, seed) point of a sweep."""

    scenario: ScenarioSpec
    seed: int
    axes: dict[str, Any] = field(default_factory=dict)

    def key(self) -> str:
        """A stable content hash identifying this cell (used as cache key)."""
        payload = {
            "scenario": self.scenario.to_dict(),
            "seed": self.seed,
            "axes": self.axes,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "seed": self.seed,
            "axes": dict(self.axes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioCell":
        return cls(
            scenario=ScenarioSpec.from_dict(data["scenario"]),
            seed=int(data["seed"]),
            axes=dict(data.get("axes", {})),
        )
