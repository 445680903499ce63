"""The traced pass must survive a refactor of the program under test.

Run with ``python3 -m pytest bench -q`` from the checkout root.  Tier-1's
``testpaths`` are ``tests`` and ``benchmarks``, so it never collects this file.
"""

from __future__ import annotations

import dataclasses

import pytest

from bench import use_checkout_source

use_checkout_source()

from bench import harness  # noqa: E402
from bench.trace import SPANS, Tracer  # noqa: E402
from bench.workloads import Outcome, Workload  # noqa: E402
from repro.experiments.runner import RunConfig, run_single_flow  # noqa: E402
from repro.topology.generator import chain  # noqa: E402


def _run_chain(topology, run_seed: int) -> Outcome:
    config = RunConfig(total_packets=32, batch_size=32, estimation_probes=0, seed=run_seed)
    return Outcome([dataclasses.asdict(
        run_single_flow(topology, "MORE", 0, 3, config=config))])


#: A three-hop MORE flow: small enough for a unit test.
CHAIN = Workload("chain", lambda: chain(3), _run_chain)


@pytest.fixture
def run(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    run = harness.set_up(CHAIN, seed=1)
    harness.measure(run, 0.0, harness.TRACED_REPS)
    yield run
    run.capture.uninstall()


def test_traced_pass_repeats_the_untraced_simulation(run, tmp_path):
    metrics = harness.traced_pass(run, calib_seconds=0.2)
    assert not run.errors and run.failed == 0
    assert metrics["trace.missing"] == 0
    assert metrics["trace.coverage"] > 0.9
    assert metrics["sim.medium.complete_calls"] > 0
    assert metrics["sim.events.pump_eps"] > 0
    assert (tmp_path / "trace-chain.json").is_file()


def test_deleted_entry_points_cost_only_their_own_metrics(run, monkeypatch):
    # A module function and a class attribute the chain flow never calls.
    monkeypatch.delattr("repro.sim.events.pump_timer_workload")
    monkeypatch.delattr("repro.experiments.orchestrator.store.ResultStore.load")
    metrics = harness.traced_pass(run, calib_seconds=0.2)
    assert not run.errors and run.failed == 0
    assert metrics["trace.missing"] == 2
    assert "sim.events.pump_eps" not in metrics
    assert metrics["orchestrator.store_load_share"] == 0.0
    assert metrics["sim.medium.complete_calls"] > 0


def test_tracer_restores_every_entry_point():
    from repro.sim.medium import WirelessMedium

    original = WirelessMedium.complete
    tracer = Tracer({**SPANS, "nowhere": ("repro.sim.medium.WirelessMedium.no_such_method",)})
    tracer.install()
    assert WirelessMedium.complete is not original
    assert tracer.missing == ["repro.sim.medium.WirelessMedium.no_such_method"]
    tracer.uninstall()
    assert WirelessMedium.complete is original
