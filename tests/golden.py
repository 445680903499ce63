"""The one full-run trace helper and the committed golden traces.

``tests/golden_traces.json`` freezes every observable of a complete
simulation — the main RNG's exact ``bit_generator.state``, the final clock,
per-flow statistics, the medium counters and ``events.processed`` — over
the preset x protocol x seed x fault grid below, and, for four MORE runs,
every code vector put on the air (``CODE_VECTOR_RUNS``).  A trace is set up by
``repro.experiments.runner.start_flows``, the one place a run is started,
so the link-state refresh loop and the progress supervisor are inside what
it pins whenever the preset arms them.  The differential suites
(``tests/sim/test_engine_differential.py``, ``test_fault_differential.py``,
``tests/scenarios/test_dynamic_scenarios.py``) assert ``run_trace(...) ==
GOLDEN[...]``: the file is the behavioural contract any hot-path change
must hold.  It is rewritten only by ``make golden``
(``scripts/golden_traces.py``), and a diff in it is a behaviour change to
be argued in review, never noise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from dataclasses import replace

from repro.coding.packet import CodedPacket
from repro.experiments.runner import PROTOCOLS, run_flows, start_flows
from repro.scenarios import build_pairs, build_topology, get_preset
from repro.sim.faults import FaultSpec

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")

SEEDS = (1, 5, 17)

#: Three presets spanning the hot paths: a lossy chain (MORE's bread and
#: butter), a bursty Gilbert-Elliott channel (non-static model: the static
#: row caches must disengage), and a mid-size random-geometric mesh.
PRESETS = ("chain_smoke", "bursty_chain", "random_geometric_16")

#: Aggressive churn so every preset sees crashes inside its short run.
CHURN = FaultSpec("crash_recover", {"mean_uptime": 0.1, "mean_downtime": 0.05})

#: The two concurrent MORE flows of the ``multiflow_grid`` entry.
MULTIFLOW_PAIRS = [(0, 15), (12, 3)]

#: The presets whose control plane recurs: link churn and mobility under a
#: periodic link-state refresh, node crashes under refresh plus the progress
#: supervisor.  Run at the presets' own ``refresh_period`` /
#: ``progress_timeout``, so every mid-flow re-plan is inside the trace.
REFRESH_PRESETS = ("churn_chain", "mobile_mesh", "node_churn_mesh")

#: Seed of the three-flow ``mobile_mesh`` entries.  Of seeds 1-24 it is the
#: one at which the MORE run tells apart how a relay recruited mid-flow
#: seeds its coding RNG (a draw of such a relay decides an innovation; the
#: flow results otherwise depend on code vectors only through rank), so the
#: entry pins the rule: an agent is seeded by the flow that first installs it.
REFRESH_MULTIFLOW_SEED = 16

#: MORE runs pinned on the coefficients themselves: key -> (preset, seed,
#: explicit pairs or how many of the preset's own, ``RunConfig`` overrides).
#: Flow results depend on code vectors only through rank, so these are what
#: holds a coding generator's draws in place, one entry per way a node's
#: stream is read: a single flow on the testbed (a source's vectors; each
#: forwarder's pre-code draws and fold coefficients); two flows of which
#: node 5 sources the second and forwards the first (one stream, three kinds
#: of draw interleaved); and the three re-planned ``mobile_mesh`` flows,
#: where node 2 is recruited mid-run into an agent of its own and relays all
#: three.  The K=128 run is the one whose buffers pass rank 32: every
#: pre-code and pivot clear above it is inside the pinned vectors.
CODE_VECTOR_RUNS = {
    # Named, not "the preset's first pair": selection is not prefix-stable in
    # the preset's pair count.
    "code_vectors/fig_4_2/1flow/1": ("fig_4_2", 1, [(14, 0)], {}),
    "code_vectors/fig_4_2/1flow/K128/1":
        ("fig_4_2", 1, [(14, 0)], {"batch_size": 128, "total_packets": 256}),
    "code_vectors/multiflow_grid/2flows/1":
        ("multiflow_grid", 1, [(0, 15), (5, 3)], {}),
    f"code_vectors/mobile_mesh/3flows/{REFRESH_MULTIFLOW_SEED}":
        ("mobile_mesh", REFRESH_MULTIFLOW_SEED, 3, {}),
}

#: (preset, protocol, seed, under CHURN) for every single-flow entry.
GRID = (
    [(preset, "MORE", seed, churn)
     for churn in (False, True) for preset in PRESETS for seed in SEEDS]
    + [("chain_smoke", protocol, seed, False)
       for protocol in ("ExOR", "Srcr") for seed in (1, 17)]
    + [("chain_smoke", protocol, 1, True) for protocol in ("ExOR", "Srcr")]
    + [(preset, protocol, 1, False)
       for preset in REFRESH_PRESETS for protocol in PROTOCOLS]
)


def key(preset_name: str, protocol: str, seed: int, churn: bool = False) -> str:
    """The golden file's key for one run."""
    return f"{preset_name}/{protocol}/{seed}" + ("/crash_recover" if churn else "")


def run_trace(preset_name: str, protocol: str, seed: int,
              faults: FaultSpec | None = None, **overrides) -> dict:
    """One full simulation; returns every observable a run is pinned on.

    The run happens in the preset's environment, with ``faults`` (``CHURN``)
    in place of its fault section when given; ``overrides`` are set on the
    preset's ``RunConfig`` (``progress_timeout=0.5``...).  The result holds only
    JSON-native values, so it compares equal to its own round trip through
    the golden file.
    """
    spec = get_preset(preset_name)
    topology = build_topology(spec.topology)
    source, destination = build_pairs(spec.workload, topology, seed)[0]
    config = replace(spec.run_config(seed), **overrides)
    environment = spec.environment()
    if faults is not None:
        environment = replace(environment, faults=faults)
    # The set-up run_flows performs (refresher and supervisor included),
    # stopped short of the run: a trace reads the finished simulator.
    sim, (handle,) = start_flows(topology, protocol, [(source, destination)],
                                 config, environment)
    sim.run(until=config.max_duration, stop_condition=sim.stats.all_flows_complete)
    record = handle.record
    flows = [[r.source, r.destination, r.total_packets, r.packet_size,
              r.start_time, r.end_time, r.delivered_packets,
              r.delivered_batches, r.duplicate_packets]
             for r in sim.stats.flows.values()]
    faults = [sim.faults.crashes, sim.faults.recoveries] if sim.faults else None
    return {
        "rng_state": sim.rng.bit_generator.state,
        "now": sim.now,
        "flow": [record.delivered_packets, record.delivered_batches,
                 record.duplicate_packets, record.completed, record.aborted,
                 record.start_time, record.end_time],
        "stats_flows": flows,
        "data_transmissions": [list(item) for item in
                               sorted(sim.stats.data_transmissions.items())],
        "medium": [sim.medium.transmissions, sim.medium.receptions,
                   sim.medium.collisions, sim.medium.captures],
        "events": sim.events.processed,
        "faults": faults,
    }


def _flow_results(flows) -> list:
    return [[f.throughput_pkts, f.delivered_packets, f.duration, f.completed,
             f.data_transmissions] for f in flows]


def run_multiflow_trace() -> list:
    """Two concurrent MORE flows on ``multiflow_grid`` through ``run_flows``
    (shared agents, round-robin paths): the per-flow results."""
    spec = get_preset("multiflow_grid")
    flows = run_flows(build_topology(spec.topology), "MORE", MULTIFLOW_PAIRS,
                      config=spec.run_config(1))
    return _flow_results(flows)


def run_refreshing_multiflow_trace(protocol: str) -> list:
    """Three concurrent flows of ``protocol`` on ``mobile_mesh`` (its first
    three pairs) through ``run_flows``, re-planned every second while the
    nodes move: recruits join agents that other flows already installed, or
    get a new agent from whichever flow reaches them first."""
    spec = get_preset("mobile_mesh")
    topology = build_topology(spec.topology)
    seed = REFRESH_MULTIFLOW_SEED
    pairs = build_pairs(spec.workload, topology, seed)[:3]
    flows = run_flows(topology, protocol, pairs, config=spec.run_config(seed),
                      environment=spec.environment())
    return _flow_results(flows)


def run_code_vector_trace(name: str) -> dict:
    """One ``CODE_VECTOR_RUNS`` entry: sha256 over the code vector of every
    MORE data frame, source's and forwarders' alike, in the order the frames
    went on the air; how many each node sent per flow (flow ids count the
    pairs from 1); and the senders whose agent a re-plan created mid-run."""
    preset_name, seed, pairs, overrides = CODE_VECTOR_RUNS[name]
    spec = get_preset(preset_name)
    topology = build_topology(spec.topology)
    if isinstance(pairs, int):
        pairs = build_pairs(spec.workload, topology, seed)[:pairs]
    config = replace(spec.run_config(seed), **overrides)
    sim, _ = start_flows(topology, "MORE", pairs, config, spec.environment())
    installed = {node.node_id for node in sim.nodes if node.agent is not None}
    digest = hashlib.sha256()
    frames: dict[tuple[int, int], int] = {}
    begin = sim.medium.begin

    def recording_begin(frame, now, airtime):
        if frame.payload.__class__ is CodedPacket:
            digest.update(frame.payload.code_vector)
            sent = (frame.sender, frame.flow_id)
            frames[sent] = frames.get(sent, 0) + 1
        return begin(frame, now, airtime)

    sim.medium.begin = recording_begin
    sim.run(until=config.max_duration, stop_condition=sim.stats.all_flows_complete)
    return {
        "pairs": [list(pair) for pair in pairs],
        "frames": [[sender, flow_id, count]
                   for (sender, flow_id), count in sorted(frames.items())],
        "recruited": sorted({sender for sender, _ in frames} - installed),
        "sha256": digest.hexdigest(),
    }


def compute_golden() -> dict:
    """Every entry of the golden file, from the tree under test."""
    entries = {key(preset, protocol, seed, churn):
               run_trace(preset, protocol, seed, faults=CHURN if churn else None)
               for preset, protocol, seed, churn in GRID}
    entries["multiflow_grid/MORE/1"] = run_multiflow_trace()
    for protocol in PROTOCOLS:
        entries[f"mobile_mesh/3flows/{protocol}/{REFRESH_MULTIFLOW_SEED}"] = \
            run_refreshing_multiflow_trace(protocol)
    for name in CODE_VECTOR_RUNS:
        entries[name] = run_code_vector_trace(name)
    return entries


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
