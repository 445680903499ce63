"""Golden-trace tests: complete simulations, pinned bit for bit.

The scheduler, the MAC transmit path, the medium's resolution caches and
the protocol agents' hot paths each have exactly one implementation; what
pins their behaviour is ``tests/golden_traces.json`` (see
``tests/golden.py``).  These tests drive complete simulations — across
presets, protocols, seeds and channel models — and assert *bit-identical*
traces against it: the exact ``bit_generator.state`` of the main RNG
afterwards, the per-flow statistics, the medium counters, the processed
event count and the final clock.  This is the same pin pattern as
``tests/sim/test_medium_differential.py``, one level up the stack.
"""

from __future__ import annotations

import pytest

from golden import (
    CODE_VECTOR_RUNS,
    PRESETS,
    REFRESH_MULTIFLOW_SEED,
    REFRESH_PRESETS,
    SEEDS,
    key,
    load_golden,
    run_code_vector_trace,
    run_multiflow_trace,
    run_refreshing_multiflow_trace,
    run_trace,
)
from repro.experiments.runner import PROTOCOLS
from repro.sim.radio import SimConfig

GOLDEN = load_golden()


@pytest.mark.parametrize("preset_name", PRESETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_more_full_run_bit_identical(preset_name, seed):
    """MORE end-to-end: exact RNG state + stats equality with the golden run."""
    assert run_trace(preset_name, "MORE", seed) == GOLDEN[key(preset_name, "MORE", seed)]


@pytest.mark.parametrize("protocol", ("ExOR", "Srcr"))
@pytest.mark.parametrize("seed", (1, 17))
def test_other_protocols_bit_identical(protocol, seed):
    """ExOR and Srcr ride the same MAC/medium/engine: pinned traces too."""
    assert run_trace("chain_smoke", protocol, seed) \
        == GOLDEN[key("chain_smoke", protocol, seed)]


def test_multiflow_bit_identical():
    """Concurrent flows (shared agents, round-robin paths) are pinned too."""
    assert run_multiflow_trace() == GOLDEN["multiflow_grid/MORE/1"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("preset_name", REFRESH_PRESETS)
def test_replanned_run_bit_identical(preset_name, protocol):
    """The control plane recurs mid-flow (periodic link-state refresh, and on
    ``node_churn_mesh`` the supervisor's recovery re-plans): what a re-plan
    installs, keeps and drops is pinned like the data path."""
    assert run_trace(preset_name, protocol, 1) == GOLDEN[key(preset_name, protocol, 1)]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_replanned_multiflow_bit_identical(protocol):
    """Three flows re-planned while they share (and recruit) agents."""
    assert run_refreshing_multiflow_trace(protocol) \
        == GOLDEN[f"mobile_mesh/3flows/{protocol}/{REFRESH_MULTIFLOW_SEED}"]


@pytest.mark.parametrize("name", CODE_VECTOR_RUNS)
def test_code_vectors_bit_identical(name):
    """Every coefficient a MORE node put on the air, in order: flow results
    see code vectors only through rank, so this is the pin on how a coding
    generator is read (a source's vectors, a forwarder's pre-code draws and
    fold coefficients, several flows sharing one node's stream)."""
    trace = run_code_vector_trace(name)
    assert trace == GOLDEN[name]
    # The entries are the shapes they are named for.
    sent = {(sender, flow_id) for sender, flow_id, _ in trace["frames"]}
    sources = {pair[0]: flow_id for flow_id, pair in enumerate(trace["pairs"], 1)}
    relayed_by_a_source = [node for node, flow_id in sent
                           if sources.get(node, flow_id) != flow_id]
    assert bool(relayed_by_a_source) == (len(trace["pairs"]) > 1)
    assert bool(trace["recruited"]) == ("mobile_mesh" in name)


def test_engine_mode_validation():
    """There is one engine: ``SimConfig`` takes no selector for it."""
    with pytest.raises(TypeError):
        SimConfig(engine="warp")
