"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.gf import kernels
from repro.gf.arithmetic import CoefficientStream
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.topology.generator import (
    chain,
    cost_gap_topology,
    diamond,
    indoor_testbed,
    random_mesh,
    two_hop_relay,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def deadline():
    """Fail a test that is still running after a minute (pytest-timeout is not
    a dependency); the handler runs between bytecodes of the main thread."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def stream() -> CoefficientStream:
    """Coding coefficients for the encoders under test: one stream over a
    deterministic generator of its own (an encoder is handed a stream, and a
    generator has one)."""
    return CoefficientStream(np.random.default_rng(4321))


@pytest.fixture
def shifted_rows(monkeypatch) -> list[int]:
    """Row counts of every ``repro.gf.kernels._write_shifts`` call: the rows
    a :class:`~repro.gf.kernels.ShiftedRows` expands in its stack (one call
    per expansion, over the rows' lines)."""
    calls: list[int] = []
    original = kernels._write_shifts

    def counting(lines: np.ndarray) -> None:
        calls.append(lines.shape[0])
        original(lines)

    monkeypatch.setattr(kernels, "_write_shifts", counting)
    return calls


@pytest.fixture
def relay_topology():
    """The Figure 1-1 motivating example (src, R, dst)."""
    return two_hop_relay()


@pytest.fixture
def chain_topology():
    """A lossy 3-hop chain with weak skip links."""
    return chain(3, link_delivery=0.7, skip_delivery=0.2)


@pytest.fixture
def diamond_topology():
    """Source -> three lossy relays -> destination."""
    return diamond(source_to_relays=0.5, relays_to_destination=0.5, relay_count=3)


@pytest.fixture
def small_mesh():
    """A connected 8-node random mesh."""
    return random_mesh(8, density=0.5, seed=3)


@pytest.fixture(scope="session")
def testbed():
    """The synthetic 20-node indoor testbed (session-scoped: it is static)."""
    return indoor_testbed()


@pytest.fixture
def gap_topology():
    """The Figure 5-1 ETX-vs-EOTX gap topology."""
    return cost_gap_topology(bridge_delivery=0.1, branch_count=8)


@pytest.fixture
def tiny_sweep() -> ScenarioSpec:
    """A sub-second two-cell sweep on a lossy chain."""
    return ScenarioSpec(
        name="tiny_sweep",
        topology=TopologySpec("chain", {"hops": 3, "link_delivery": 0.7,
                                        "skip_delivery": 0.2}),
        workload=WorkloadSpec("explicit", {"pairs": [[0, 3]]}),
        protocols=("MORE", "Srcr"),
        run={"total_packets": 32, "batch_size": 8, "packet_size": 256,
             "coding_payload_size": 16},
        seeds=(1,),
        sweep={"run.batch_size": (8, 16)},
    )
