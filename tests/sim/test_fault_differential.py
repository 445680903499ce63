"""Differential tests for the fault subsystem's no-op and determinism contracts.

Three bit-identity pins, in the style of ``test_engine_differential``:

* **absence** — a run with the fault/watchdog fields at their defaults is
  bit-identical to one passing an explicit ``kind="none"`` spec with no
  progress timeout, and a run given no environment to one given the default
  ``Environment()``: the subsystem's `is not None` guards add no
  behaviour, and a watched run of a healthy flow differs from an unwatched
  one only by the watchdog's own tick events (``events.processed``), never
  by the trace;
* **one route** — a scenario's ``channel`` / ``mobility`` / ``faults``
  sections reach the simulator as ``spec.environment()``: ``run_cell``
  equals ``run_single_flow`` given that environment, flow for flow;
* **golden traces under faults** — with a crash/recover process active,
  every run still reproduces its committed golden trace bit for bit (exact
  RNG state, stats, medium counters, clock, crash/recovery counts),
  because receiver filtering happens after the channel draws and fault
  randomness lives on a private counter-based stream.
"""

from __future__ import annotations

import math

import pytest

from golden import CHURN, PRESETS, SEEDS, key, load_golden, run_trace
from repro.experiments.runner import Environment, run_single_flow
from repro.scenarios import build_pairs, build_topology, get_preset, run_cell
from repro.sim.faults import FaultSpec

GOLDEN = load_golden()


@pytest.mark.parametrize("preset_name", PRESETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_fault_free_defaults_bit_identical_to_explicit_none(preset_name, seed):
    """Default fault section == explicit kind-none spec with no progress
    timeout, and no environment == the explicit default one."""
    implicit = run_trace(preset_name, "MORE", seed)
    explicit = run_trace(preset_name, "MORE", seed, faults=FaultSpec("none"),
                         progress_timeout=math.inf)
    assert implicit == explicit

    spec = get_preset(preset_name)
    topology = build_topology(spec.topology)
    flow = (topology, "MORE", *build_pairs(spec.workload, topology, seed)[0])
    config = spec.run_config(seed)
    assert run_single_flow(*flow, config=config) \
        == run_single_flow(*flow, config=config, environment=Environment())


def test_scenario_sections_reach_the_simulator_as_the_environment():
    """``run_cell`` == ``run_single_flow`` in ``spec.environment()``, flow for
    flow, under a bursty channel x link churn x crash/recover composition."""
    spec = get_preset("chain_smoke").with_overrides({
        "channel": "gilbert_elliott", "mobility": "link_churn",
        "faults": "crash_recover", "faults.mean_uptime": 0.1,
        "faults.mean_downtime": 0.05, "run.progress_timeout": 2})
    (cell,) = spec.expand()
    result = run_cell(cell)
    topology = build_topology(spec.topology)
    pairs = build_pairs(spec.workload, topology, cell.seed)
    config = spec.run_config(cell.seed)
    for protocol in spec.protocols:
        flows = [run_single_flow(topology, protocol, source, destination,
                                 config=config, environment=spec.environment())
                 for source, destination in pairs]
        assert result.series[protocol] == [flow.throughput_pkts for flow in flows]
    # The sections are what made those numbers: the default world differs.
    bare = run_single_flow(topology, "MORE", *pairs[0], config=config)
    assert bare.throughput_pkts != result.series["MORE"][0]


@pytest.mark.parametrize("preset_name", PRESETS)
@pytest.mark.parametrize("seed", (1, 17))
def test_watchdog_changes_nothing_but_its_own_ticks(preset_name, seed):
    """Watchdog on == watchdog off, modulo the tick events it schedules."""
    # 0.5 s ticks: frequent enough to fire many times inside these runs,
    # coarse enough not to flag the transient ACK-recovery quiet windows a
    # lossy chain legitimately has, so no healthy flow is re-planned.
    off = run_trace(preset_name, "MORE", seed, progress_timeout=math.inf)
    on = run_trace(preset_name, "MORE", seed, progress_timeout=0.5)
    assert on["events"] >= off["events"]
    del on["events"], off["events"]
    assert on == off


@pytest.mark.parametrize("preset_name", PRESETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_crash_recover_bit_identical_across_engines(preset_name, seed):
    """With churn active, the run still reproduces its golden trace exactly."""
    trace = run_trace(preset_name, "MORE", seed, faults=CHURN)
    assert trace["faults"] is not None and trace["faults"] != [0, 0]
    assert trace == GOLDEN[key(preset_name, "MORE", seed, churn=True)]


@pytest.mark.parametrize("protocol", ("ExOR", "Srcr"))
def test_other_protocols_bit_identical_under_faults(protocol):
    assert run_trace("chain_smoke", protocol, 1, faults=CHURN) \
        == GOLDEN[key("chain_smoke", protocol, 1, churn=True)]


def test_crash_realisation_is_a_pure_function_of_the_seed():
    """Back-to-back runs replay the exact same crash/recover timeline."""
    first = run_trace("chain_smoke", "MORE", 5, faults=CHURN)
    second = run_trace("chain_smoke", "MORE", 5, faults=CHURN)
    assert first == second
