"""The payload-free (vector-only) execution mode.

Delivery, rank progression and throughput in MORE are fully determined by
code vectors, and zero-length payload draws consume no RNG state, so a
vector-only run must report results identical to a payload-carrying run of
the same scenario — it merely skips the payload arithmetic.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import _load_spec, build_parser
from repro.experiments.runner import RunConfig, run_single_flow
from repro.protocols.more.flow import setup_more_flow
from repro.scenarios import get_preset
from repro.scenarios.execute import run_cell
from repro.sim.simulator import Simulator
from repro.topology.generator import chain


@pytest.fixture
def lossy_chain():
    return chain(3, link_delivery=0.7, skip_delivery=0.2)


def _run(topology, vector_only: bool):
    config = RunConfig(total_packets=32, batch_size=16, packet_size=1500,
                       seed=3, vector_only=vector_only)
    return run_single_flow(topology, "MORE", 0, topology.node_count - 1,
                           config=config)


def test_vector_only_flow_results_identical(lossy_chain):
    payload_run = _run(lossy_chain, vector_only=False)
    vector_run = _run(lossy_chain, vector_only=True)
    assert dataclasses.asdict(payload_run) == dataclasses.asdict(vector_run)
    assert payload_run.completed


def test_vector_only_scenario_cell_identical():
    """A whole scenario cell (the chain smoke preset) matches byte for byte."""
    spec = get_preset("chain_smoke")
    payload_result = run_cell(spec.expand()[0])
    vector_result = run_cell(
        spec.with_overrides({"run.vector_only": True}).expand()[0])
    assert payload_result.series == vector_result.series
    assert payload_result.summary == vector_result.summary


def test_vector_only_decoded_payloads_are_empty(lossy_chain):
    from repro.sim.radio import SimConfig
    sim = Simulator(lossy_chain, SimConfig(seed=1))
    handle = setup_more_flow(sim, lossy_chain, 0, lossy_chain.node_count - 1,
                             total_packets=16, batch_size=16,
                             coding_payload_size=0, seed=1)
    sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
    payloads = handle.decoded_payloads()
    assert len(payloads) == 16
    assert all(p.size == 0 for p in payloads)
    assert handle.decoded_bytes() == b""


def test_vector_only_rejects_file_bytes(lossy_chain):
    """A file's point is its bytes: width 0 cannot carry one."""
    from repro.sim.radio import SimConfig
    sim = Simulator(lossy_chain, SimConfig(seed=1))
    with pytest.raises(ValueError, match="coding_payload_size"):
        setup_more_flow(sim, lossy_chain, 0, 1, file_bytes=b"payload",
                        coding_payload_size=0)


def test_width_zero_flow_runs_as_a_sized_one(lossy_chain):
    """Below RunConfig there is no mode to conflict with a width: a flow
    set up at width 0 runs exactly as one set up at 64 bytes."""
    from repro.sim.radio import SimConfig
    runs = []
    for width in (0, 64):
        sim = Simulator(lossy_chain, SimConfig(seed=1))
        handle = setup_more_flow(sim, lossy_chain, 0, lossy_chain.node_count - 1,
                                 total_packets=16, batch_size=16,
                                 coding_payload_size=width, seed=1)
        sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
        assert all(p.size == width for p in handle.decoded_payloads())
        runs.append((dataclasses.asdict(sim.stats.flows[handle.spec.flow_id]),
                     sim.stats.total_data_transmissions(), sim.now))
    assert runs[0] == runs[1]
    assert runs[0][0]["delivered_packets"] == 16


def test_vector_only_supersedes_run_config_payload_size(lossy_chain):
    """Through RunConfig the mode wins over the default payload width."""
    config = RunConfig(total_packets=32, batch_size=16, seed=3,
                       coding_payload_size=64, vector_only=True)
    result = run_single_flow(lossy_chain, "MORE", 0,
                             lossy_chain.node_count - 1, config=config)
    assert result.completed


def test_run_config_override_path():
    spec = get_preset("chain_smoke").with_overrides({"run.vector_only": True})
    assert spec.run_config(seed=1).vector_only is True
    assert get_preset("chain_smoke").run_config(seed=1).vector_only is False


def test_cli_sets_vector_only_with_set():
    parser = build_parser()
    args = parser.parse_args(["run", "--preset", "chain_smoke",
                              "--set", "run.vector_only=true"])
    assert _load_spec(args).run["vector_only"] is True
    args = parser.parse_args(["run", "--preset", "chain_smoke"])
    assert "vector_only" not in _load_spec(args).run
    with pytest.raises(SystemExit):  # no flag of its own
        parser.parse_args(["run", "--preset", "chain_smoke", "--vector-only"])
