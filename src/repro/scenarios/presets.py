"""Named scenario presets: the paper's figures, fixtures and extension studies.

Each preset is a fully-declarative :class:`~repro.scenarios.spec.ScenarioSpec`.
The ``fig_*`` presets are the one definition of the paper's experiments, at
the scale tier-1 runs and ``results/figure_*.txt`` records; the rows of
:data:`repro.experiments.figures.FIGURES` hold, beside each, the overlay
that scales it to the paper's sample sizes, the view that computes the
paper's statistics from its cells, and the bands those are held to.  Every
other preset is a fixture a test, golden trace or benchmark runs, or an
extension study whose claim source ``docs/scenarios.md`` names.
Presets are looked up by name from the CLI (``python -m repro run --preset
fig_4_2``) and from code via :func:`get_preset`.

The figure presets pin ``run.seed = 1``: a cell's seed then selects the
pairs (or flow sets) only, and every replication seed replays the same
loss draws.  Seed-averaged bands (ROADMAP item 1) must lift the pin, which
moves every ``results/figure_*.txt``.
"""

from __future__ import annotations

import copy

from repro.scenarios.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.sim.channels import ChannelSpec
from repro.sim.faults import FaultSpec
from repro.sim.radio import RATE_5_5MBPS, RATE_11MBPS
from repro.topology.mobility import MobilitySpec

#: The synthetic 20-node, 3-floor indoor testbed of every Chapter 4 figure.
_TESTBED = TopologySpec("indoor_testbed", {"node_count": 20, "floors": 3, "seed": 7})

#: The transfer every figure preset runs: three batches of 1500 B packets,
#: and the pinned simulator seed the module docstring explains.
_FIGURE_RUN = {"total_packets": 96, "batch_size": 32, "packet_size": 1500, "seed": 1}

PRESETS: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to the registry (last registration wins)."""
    PRESETS[spec.name] = spec
    return spec


def get_preset(name: str) -> ScenarioSpec:
    """A deep copy of the named preset (safe to mutate / override)."""
    try:
        return copy.deepcopy(PRESETS[name])
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; run `python -m repro list` or see "
                       f"{sorted(PRESETS)}") from None


def list_presets() -> list[ScenarioSpec]:
    """All registered presets, sorted by name."""
    return [copy.deepcopy(PRESETS[name]) for name in sorted(PRESETS)]


# --------------------------------------------------------------------------- #
# Paper figures (Chapter 4 evaluation + the Section 5.7 gap survey)
# --------------------------------------------------------------------------- #

register(ScenarioSpec(
    name="fig_4_2",
    description="Fig 4-2 and 4-3: unicast throughput of MORE vs ExOR vs Srcr "
                "over random testbed pairs (CDF and per-pair scatter)",
    topology=copy.deepcopy(_TESTBED),
    workload=WorkloadSpec("random_pairs", {"count": 10}),
    run=dict(_FIGURE_RUN),
    seeds=(1,),
))

register(ScenarioSpec(
    name="fig_4_4",
    description="Fig 4-4: spatial reuse on 4-hop paths whose first and last "
                "hop can transmit concurrently",
    topology=copy.deepcopy(_TESTBED),
    workload=WorkloadSpec("spatial_reuse", {"count": 5, "path_hops": 4}),
    run=dict(_FIGURE_RUN),
    seeds=(2,),
))

register(ScenarioSpec(
    name="fig_4_5",
    description="Fig 4-5: average per-flow throughput vs number of concurrent "
                "flows (sweep workload.flow_count)",
    topology=copy.deepcopy(_TESTBED),
    workload=WorkloadSpec("multiflow", {"flows_per_set": 4, "set_count": 2}),
    mode="multiflow",
    run=dict(_FIGURE_RUN),
    seeds=(3,),
    sweep={"workload.flow_count": (1, 2, 3, 4)},
))

register(ScenarioSpec(
    name="fig_4_6",
    description="Fig 4-6: opportunistic routing at fixed 11 Mb/s vs Srcr with "
                "Onoe autorate",
    topology=copy.deepcopy(_TESTBED),
    workload=WorkloadSpec("random_pairs", {"count": 8}),
    protocols=("MORE", "ExOR", "Srcr", "Srcr/auto"),
    run={"bitrate": RATE_11MBPS, **_FIGURE_RUN},
    seeds=(4,),
))

register(ScenarioSpec(
    name="fig_4_7",
    description="Fig 4-7: batch-size sensitivity, MORE vs ExOR "
                "(sweep run.batch_size)",
    topology=copy.deepcopy(_TESTBED),
    workload=WorkloadSpec("random_pairs", {"count": 4}),
    protocols=("MORE", "ExOR"),
    run=dict(_FIGURE_RUN),
    seeds=(5,),
    # The paper's K = 128 needs a 256-packet transfer: paper scale only.
    sweep={"run.batch_size": (8, 16, 32, 64)},
))

register(ScenarioSpec(
    name="fig_5_1",
    description="Section 5.7: ETX-vs-EOTX ordering-gap survey on the testbed "
                "(analytic, no packet simulation)",
    topology=TopologySpec("indoor_testbed", {"node_count": 20, "floors": 3, "seed": 6}),
    workload=WorkloadSpec("random_pairs", {"count": 15}),
    mode="gap",
    run=dict(_FIGURE_RUN),
    seeds=(6,),
))

# --------------------------------------------------------------------------- #
# Fixtures: the small scenarios the tests and golden traces run
# --------------------------------------------------------------------------- #

register(ScenarioSpec(
    name="chain_smoke",
    description="Fast smoke scenario: one flow over a lossy 3-hop chain with "
                "weak skip links (seconds, used by CLI tests)",
    topology=TopologySpec("chain", {"hops": 3, "link_delivery": 0.7,
                                    "skip_delivery": 0.2}),
    workload=WorkloadSpec("explicit", {"pairs": [[0, 3]]}),
    run={"total_packets": 32, "batch_size": 16, "packet_size": 256,
         "coding_payload_size": 16},
    seeds=(1,),
))

register(ScenarioSpec(
    name="random_geometric_16",
    description="16-node random geometric mesh (outdoor-style Roofnet loss "
                "profile), random pairs",
    topology=TopologySpec("random_geometric", {"node_count": 16, "area": 120.0,
                                               "seed": 2}),
    workload=WorkloadSpec("random_pairs", {"count": 8}),
    run={"total_packets": 64},
    seeds=(1,),
))

register(ScenarioSpec(
    name="multiflow_grid",
    description="Contention study: 1-3 concurrent flows on a 4x4 grid "
                "(sweep workload.flow_count)",
    topology=TopologySpec("grid", {"rows": 4, "cols": 4}),
    workload=WorkloadSpec("multiflow", {"flows_per_set": 3, "set_count": 2}),
    mode="multiflow",
    run={"total_packets": 48},
    seeds=(1,),
    sweep={"workload.flow_count": (1, 2, 3)},
))

# --------------------------------------------------------------------------- #
# Scale tier: the engine hot-path workloads (see docs/performance.md)
# --------------------------------------------------------------------------- #

register(ScenarioSpec(
    name="large_mesh_200",
    description="Scale tier: 200-node random-geometric mesh, one 7-hop flow "
                "per protocol (the event-engine hot-path workload)",
    topology=TopologySpec("random_geometric", {"node_count": 200, "area": 420.0,
                                               "seed": 11}),
    # Explicit far pair (7 ETX hops): pair selection by hop count runs one
    # Dijkstra per node (about a second at this scale), as long as the flow.
    workload=WorkloadSpec("explicit", {"pairs": [[168, 0]]}),
    run={"total_packets": 64, "batch_size": 32, "coding_payload_size": 16,
         "max_duration": 60.0},
    seeds=(1,),
))

# --------------------------------------------------------------------------- #
# Kilonode tier: 1000-node meshes (see docs/performance.md)
#
# At this density the paper's 10% pruning rule degenerates — the expected
# load spreads over 100+ candidate relays, none reaches 10% of the total,
# and pruning strands the flow — so every kilonode preset sets
# ``run.max_relays``: the fixed-size top-N-by-load cap of
# ``repro.metrics.credits.cap_forwarders``.  MORE-only: Srcr/ExOR route
# computation adds nothing to the decode-path workload these presets stress.
# --------------------------------------------------------------------------- #

#: The kilonode mesh: same node density as ``large_mesh_200``
#: (1000 / 940^2 vs 200 / 420^2 nodes per m^2), fully connected at seed 21.
_KILONODE_MESH = TopologySpec("random_geometric", {"node_count": 1000,
                                                   "area": 940.0, "seed": 21})

register(ScenarioSpec(
    name="kilonode",
    description="Kilonode tier: one 4-hop MORE flow across a 1000-node "
                "random-geometric mesh, forwarder list capped at the 10 "
                "highest-load relays",
    topology=copy.deepcopy(_KILONODE_MESH),
    # Explicit pair (node 441 is 4 ETX hops from node 0): hop-count pair
    # selection runs one Dijkstra per node, far longer than the flow here.
    workload=WorkloadSpec("explicit", {"pairs": [[441, 0]]}),
    protocols=("MORE",),
    run={"total_packets": 64, "batch_size": 32, "coding_payload_size": 16,
         "max_duration": 60.0, "max_relays": 10},
    seeds=(1,),
))

register(ScenarioSpec(
    name="kilonode_relays",
    description="Kilonode tier: throughput vs forwarder-list cap (the "
                "relay-count axis) on the 1000-node mesh",
    topology=copy.deepcopy(_KILONODE_MESH),
    workload=WorkloadSpec("explicit", {"pairs": [[441, 0]]}),
    protocols=("MORE",),
    run={"total_packets": 64, "batch_size": 32, "coding_payload_size": 16,
         "max_duration": 60.0, "max_relays": 10},
    seeds=(1,),
    sweep={"run.max_relays": (4, 8, 12, 16)},
))

register(ScenarioSpec(
    name="kilonode_bitrate",
    description="Kilonode tier: 5.5 vs 11 Mb/s data rate on the capped "
                "1000-node mesh flow (the bitrate axis)",
    topology=copy.deepcopy(_KILONODE_MESH),
    workload=WorkloadSpec("explicit", {"pairs": [[441, 0]]}),
    protocols=("MORE",),
    run={"total_packets": 64, "batch_size": 32, "coding_payload_size": 16,
         "max_duration": 60.0, "max_relays": 10},
    seeds=(1,),
    sweep={"run.bitrate": (RATE_5_5MBPS, RATE_11MBPS)},
))

# --------------------------------------------------------------------------- #
# Channel-model scenario families (see repro.sim.channels)
# --------------------------------------------------------------------------- #

register(ScenarioSpec(
    name="bursty_chain",
    description="Gilbert-Elliott bursty losses on a lossy 4-hop chain: how "
                "opportunistic routing rides out loss bursts",
    topology=TopologySpec("chain", {"hops": 4, "link_delivery": 0.75,
                                    "skip_delivery": 0.2}),
    workload=WorkloadSpec("explicit", {"pairs": [[0, 4]]}),
    channel=ChannelSpec("gilbert_elliott", {"bad_scale": 0.2,
                                            "mean_good_time": 0.5,
                                            "mean_bad_time": 0.08}),
    run={"total_packets": 64, "packet_size": 512, "coding_payload_size": 16},
    seeds=(1,),
))

# --------------------------------------------------------------------------- #
# Dynamic topologies: mobility / link churn + online link-state refresh
# (see repro.topology.mobility and repro.experiments.refresh)
# --------------------------------------------------------------------------- #

register(ScenarioSpec(
    name="mobile_mesh",
    description="Random-waypoint mobility over a 16-node geometric mesh with "
                "a 1 s link-state refresh loop (online control plane)",
    topology=TopologySpec("random_geometric", {"node_count": 16, "area": 120.0,
                                               "seed": 2}),
    workload=WorkloadSpec("random_pairs", {"count": 4}),
    mobility=MobilitySpec("random_waypoint", {"speed_min": 1.0, "speed_max": 6.0,
                                              "epoch_length": 0.5,
                                              "area": 120.0}),
    run={"total_packets": 96, "coding_payload_size": 16, "refresh_period": 1.0,
         "max_duration": 60.0},
    seeds=(1,),
))

register(ScenarioSpec(
    name="churn_chain",
    description="Markov link churn (up/down flapping) on a lossy 4-hop chain "
                "with a 0.75 s link-state refresh loop",
    topology=TopologySpec("chain", {"hops": 4, "link_delivery": 0.75,
                                    "skip_delivery": 0.25}),
    workload=WorkloadSpec("explicit", {"pairs": [[0, 4]]}),
    mobility=MobilitySpec("link_churn", {"mean_up_time": 2.0,
                                         "mean_down_time": 0.5,
                                         "down_scale": 0.1,
                                         "epoch_length": 0.25}),
    run={"total_packets": 96, "packet_size": 512, "coding_payload_size": 16,
         "refresh_period": 0.75, "max_duration": 60.0},
    seeds=(1,),
))

register(ScenarioSpec(
    name="stale_state_sweep",
    description="Link-state staleness axis under mobility: MORE vs ExOR vs "
                "Srcr as plans age (sweep run.refresh_period; inf = the "
                "paper's compute-once plans)",
    topology=TopologySpec("random_geometric", {"node_count": 16, "area": 120.0,
                                               "seed": 2}),
    workload=WorkloadSpec("random_pairs", {"count": 3}),
    mobility=MobilitySpec("random_waypoint", {"speed_min": 1.0, "speed_max": 6.0,
                                              "epoch_length": 0.5,
                                              "area": 120.0}),
    run={"total_packets": 192, "coding_payload_size": 16, "max_duration": 60.0},
    seeds=(1,),
    sweep={"run.refresh_period": (0.5, 2.0, 8.0, "inf")},
))

# --------------------------------------------------------------------------- #
# Fault injection: node crashes, outages and the liveness watchdog
# (see repro.sim.faults, repro.experiments.refresh and docs/faults.md)
# --------------------------------------------------------------------------- #

register(ScenarioSpec(
    name="node_churn_mesh",
    description="Node churn on a 16-node geometric mesh: relays crash and "
                "recover (exponential up/down) while a 1 s refresh loop "
                "re-plans around them; endpoints protected",
    topology=TopologySpec("random_geometric", {"node_count": 16, "area": 120.0,
                                               "seed": 2}),
    workload=WorkloadSpec("explicit", {"pairs": [[0, 12]]}),
    faults=FaultSpec("crash_recover", {"mean_uptime": 8.0, "mean_downtime": 1.5,
                                       "protect": [0, 12]}),
    run={"total_packets": 96, "coding_payload_size": 16, "refresh_period": 1.0,
         "progress_timeout": 4.0, "max_duration": 60.0},
    seeds=(1,),
))

register(ScenarioSpec(
    name="crash_recover_sweep",
    description="Fault-rate axis: MORE vs ExOR vs Srcr on a lossy 4-hop chain "
                "as relay mean uptime shrinks (sweep faults.mean_uptime); "
                "stalled flows abort gracefully via run.progress_timeout",
    topology=TopologySpec("chain", {"hops": 4, "link_delivery": 0.75,
                                    "skip_delivery": 0.2}),
    workload=WorkloadSpec("explicit", {"pairs": [[0, 4]]}),
    faults=FaultSpec("crash_recover", {"mean_downtime": 1.0,
                                       "protect": [0, 4]}),
    run={"total_packets": 64, "packet_size": 512, "coding_payload_size": 16,
         "refresh_period": 1.0, "progress_timeout": 3.0, "max_duration": 60.0},
    seeds=(1,),
    sweep={"faults.mean_uptime": (2.0, 6.0, 18.0)},
))

register(ScenarioSpec(
    name="kilonode_stranded",
    description="Regression: the PR 6 kilonode stranding pathology (10% "
                "pruning leaves no forwarders) under the progress watchdog — "
                "its recovery re-plans deliver the file instead of hanging",
    topology=copy.deepcopy(_KILONODE_MESH),
    workload=WorkloadSpec("explicit", {"pairs": [[441, 0]]}),
    protocols=("MORE",),
    # Deliberately NO run.max_relays: the uncapped 10% rule is the bug.
    run={"total_packets": 64, "batch_size": 32, "coding_payload_size": 16,
         "max_duration": 60.0, "progress_timeout": 0.5},
    seeds=(1,),
))

register(ScenarioSpec(
    name="multiflow_bursty",
    description="Concurrent flows under Gilbert-Elliott bursty loss on a 4x4 "
                "grid (sweep workload.flow_count)",
    topology=TopologySpec("grid", {"rows": 4, "cols": 4}),
    workload=WorkloadSpec("multiflow", {"flows_per_set": 3, "set_count": 2}),
    mode="multiflow",
    channel=ChannelSpec("gilbert_elliott", {"bad_scale": 0.25,
                                            "mean_good_time": 0.4,
                                            "mean_bad_time": 0.1}),
    run={"total_packets": 48},
    seeds=(1,),
    sweep={"workload.flow_count": (1, 2, 3)},
))
