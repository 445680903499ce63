#!/usr/bin/env python3
"""bench-baseline: record stage-level throughput of the engine, coding and medium.

Runs the coding micro-benchmarks (GF(2^8) kernels, encoder/buffer/decoder
packet rates, one small end-to-end transfer per protocol), the
medium-resolution stage (frames/s through ``WirelessMedium.complete`` on a
50-node mesh), the event-engine stage (events/s through the scheduler, the
``large_mesh_200`` and ``kilonode`` scale presets) and the sweep stage, and
writes the results to ``BENCH_coding.json`` at the repo root:

    make bench-baseline                 # or
    PYTHONPATH=src python scripts/bench_baseline.py [output.json]

Schema ``bench-baseline/v6`` holds absolute figures only: every ratio
against an implementation kept alive to be slow (the v3–v5 ``*_speedup`` /
``*_legacy`` / per-engine fields) went with those implementations.  These
are stage-level raw numbers of one machine; the regression floor is the
calibration-normalised ``norm_cost`` of ``python3 -m bench``
(``BENCHMARK.json``) — see docs/performance.md for how to read both.
``destination_decode_pps`` *includes* the final ``decode()`` call — the
deferred-transform buffer moves the payload back-substitution there, so an
insert-only loop would overstate it.

Every quantity is measured best-of-N (minimum over rounds), the same
discipline as :func:`repro.experiments.figures.table_4_1`: transient
machine load inflates individual rounds, never the reported figure.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.coding.decoder import BatchDecoder            # noqa: E402
from repro.coding.encoder import ForwarderEncoder, SourceEncoder  # noqa: E402
from repro.coding.packet import make_batch               # noqa: E402
from repro.experiments.orchestrator import (  # noqa: E402
    run_sweep,
    shutdown_shared_pools,
)
from repro.experiments.orchestrator.bench import (  # noqa: E402
    BENCH_CELLS,
    BENCH_SEEDS_PER_SWEEP,
    BENCH_SWEEPS,
    BENCH_WORKERS,
    bench_sweep_specs,
)
from repro.experiments.runner import PROTOCOLS, RunConfig, run_single_flow  # noqa: E402
from repro.gf.arithmetic import scale_and_add            # noqa: E402
from repro.gf.kernels import ShiftedRows, gf_matmul      # noqa: E402
from repro.scenarios import build_topology, get_preset   # noqa: E402
from repro.sim.events import (                           # noqa: E402
    BENCH_EVENTS,
    EventQueue,
    pump_timer_workload,
)
from repro.sim.medium import WirelessMedium              # noqa: E402
from repro.sim.radio import ChannelConfig                # noqa: E402
from repro.topology.generator import random_geometric    # noqa: E402

K = 32
PACKET_SIZE = 1500
ROUNDS = 5
MEDIUM_NODES = WirelessMedium.BENCH_NODE_COUNT
MEDIUM_FRAMES = WirelessMedium.BENCH_FRAMES
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_coding.json"


def best_of(measure, rounds: int = ROUNDS) -> float:
    """Minimum measured seconds over ``rounds`` calls."""
    return min(measure() for _ in range(rounds))


def timed(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def kernel_benchmarks() -> dict[str, float]:
    """MB/s throughput of the GF(2^8) kernels (payload bytes processed)."""
    rng = np.random.default_rng(0)
    coefficients = rng.integers(0, 256, (K, K), dtype=np.uint8)
    payloads = rng.integers(0, 256, (K, PACKET_SIZE), dtype=np.uint8)
    operand = ShiftedRows(payloads)
    accumulator = np.zeros(PACKET_SIZE, dtype=np.uint8)
    packet = rng.integers(0, 256, PACKET_SIZE, dtype=np.uint8)

    matmul_s = best_of(lambda: timed(lambda: gf_matmul(coefficients, payloads)))
    cached_s = best_of(lambda: timed(lambda: operand.matmul(coefficients)))
    scale_s = best_of(lambda: timed(lambda: scale_and_add(accumulator, packet, 0x53)))
    produced = K * PACKET_SIZE / 1e6
    return {
        "gf_matmul_32x32x1500_mbps": produced / matmul_s,
        "shifted_rows_cached_mbps": produced / cached_s,
        "scale_and_add_1500B_mbps": PACKET_SIZE / 1e6 / scale_s,
    }


def coding_benchmarks() -> dict[str, float]:
    """Packets per second through the encoder / buffer / decoder stages."""
    batch = make_batch(batch_size=K, packet_size=PACKET_SIZE,
                       rng=np.random.default_rng(1))
    encoder = SourceEncoder(batch, np.random.default_rng(2))
    encoder.next_packets(K)  # build the cached operand outside the timing

    single_s = best_of(lambda: timed(encoder.next_packet))
    batched_s = best_of(lambda: timed(lambda: encoder.next_packets(K))) / K

    packets = encoder.next_packets(K)

    def decode_batch():
        decoder = BatchDecoder(batch_size=K, packet_size=PACKET_SIZE)
        for coded in packets:
            decoder.add_packet(coded)
        decoder.decode()  # the deferred back-substitution lands here

    decode_s = best_of(lambda: timed(decode_batch)) / K

    def recode_batch():
        forwarder = ForwarderEncoder(batch_size=K, packet_size=PACKET_SIZE,
                                     rng=np.random.default_rng(3))
        for coded in packets[: K // 2]:
            forwarder.add_packet(coded)
        for _ in range(K // 2):
            forwarder.next_packet()

    recode_s = best_of(lambda: timed(recode_batch)) / K

    return {
        "source_encode_pps": 1.0 / single_s,
        "source_encode_batched_pps": 1.0 / batched_s,
        "destination_decode_pps": 1.0 / decode_s,
        "forwarder_recode_pps": 1.0 / recode_s,
    }


def medium_benchmarks() -> dict[str, float]:
    """Frames per second through ``WirelessMedium.complete`` on a 50-node mesh
    (the ``WirelessMedium.pump_broadcast_frames`` schedule)."""
    topology = random_geometric(node_count=MEDIUM_NODES,
                                area=WirelessMedium.BENCH_AREA,
                                seed=WirelessMedium.BENCH_TOPOLOGY_SEED)
    medium = WirelessMedium(topology, ChannelConfig(),
                            np.random.default_rng(WirelessMedium.BENCH_RNG_SEED))
    elapsed = best_of(
        lambda: timed(lambda: medium.pump_broadcast_frames(MEDIUM_FRAMES)))
    return {"reception_fps": MEDIUM_FRAMES / elapsed}


def engine_benchmarks() -> dict[str, float]:
    """Events per second through the scheduler on the canonical timer
    workload (``repro.sim.events.pump_timer_workload``)."""
    elapsed = best_of(lambda: timed(lambda: pump_timer_workload(EventQueue())))
    return {"engine_eps": BENCH_EVENTS / elapsed}


def _measure_flow(topology, protocol: str, source: int, destination: int,
                  config: RunConfig, rounds: int = ROUNDS) -> dict[str, float]:
    """Best-of wall clock plus throughput rates for one flow."""
    result = None

    def run() -> None:
        nonlocal result
        result = run_single_flow(topology, protocol, source, destination,
                                 config=config)

    elapsed = best_of(lambda: timed(run), rounds=rounds)
    return {
        "wall_seconds": elapsed,
        "simulated_pps_per_wall_second": config.total_packets / elapsed,
        # Frames on the air per wall second: the end-to-end engine rate.
        "sim_fps": result.data_transmissions / elapsed,
    }


def protocol_benchmarks() -> dict[str, dict[str, float]]:
    """Simulated packets per wall-clock second for one transfer per protocol."""
    topology = build_topology(get_preset("fig_4_2").topology)
    results: dict[str, dict[str, float]] = {}
    for protocol in PROTOCOLS:
        config = RunConfig(total_packets=96, batch_size=K, packet_size=PACKET_SIZE,
                           seed=2)
        results[protocol] = _measure_flow(topology, protocol, 17, 2, config)
    # The payload-free mode on the same MORE transfer.
    vector_config = RunConfig(total_packets=96, batch_size=K,
                              packet_size=PACKET_SIZE, seed=2, vector_only=True)
    results["MORE/vector-only"] = _measure_flow(topology, "MORE", 17, 2,
                                                vector_config)
    return results


def scale_benchmarks() -> dict[str, float]:
    """The ``large_mesh_200`` scale preset: one MORE flow on 200 nodes."""
    spec = get_preset("large_mesh_200")
    topology = build_topology(spec.topology)
    source, destination = spec.workload.params["pairs"][0]
    config = spec.run_config(seed=spec.seeds[0])
    flow = _measure_flow(topology, "MORE", source, destination, config, rounds=3)
    return {
        "large_mesh_200_wall_seconds": flow["wall_seconds"],
        "large_mesh_200_sim_fps": flow["sim_fps"],
    }


def kilonode_benchmarks() -> dict[str, float]:
    """The ``kilonode`` preset: one capped MORE flow across 1000 nodes."""
    spec = get_preset("kilonode")
    topology = build_topology(spec.topology)
    source, destination = spec.workload.params["pairs"][0]
    config = spec.run_config(seed=spec.seeds[0])
    flow = _measure_flow(topology, "MORE", source, destination, config, rounds=3)
    return {
        "kilonode_wall_seconds": flow["wall_seconds"],
        "kilonode_sim_fps": flow["sim_fps"],
    }


def sweep_benchmarks() -> dict[str, float]:
    """Cells per second through the sweep orchestrator.

    The workload (:mod:`repro.experiments.orchestrator.bench`) is 16
    successive 8-cell sweeps — the many-small-sweeps shape of a parameter
    study.  Three figures:

    * **cold**: ``shutdown_shared_pools()`` before each measured round, so
      the orchestrator pays its full 8-worker spin-up inside the timing;
    * **warm pool**: the same round with the pool already up — the
      steady-state rate a long parameter study actually sees;
    * **warm replay**: the whole workload re-run against a populated
      content-addressed store — every cell must come back as a hit
      (``sweep_warm_replay_recomputed`` is committed so a silent cache
      miss shows up in review, not just in wall clock).
    """
    specs = bench_sweep_specs()

    def cold_round() -> float:
        shutdown_shared_pools()  # spin-up counts against the cold figure
        return timed(lambda: [run_sweep(spec, workers=BENCH_WORKERS,
                                        results_dir=None)
                              for spec in specs])

    def warm_round() -> float:
        # The shared pool is still up from the previous round.
        return timed(lambda: [run_sweep(spec, workers=BENCH_WORKERS,
                                        results_dir=None)
                              for spec in specs])

    cold_s = best_of(cold_round, rounds=3)
    warm_s = best_of(warm_round, rounds=3)

    recomputed = 0
    with tempfile.TemporaryDirectory() as tmp:
        results_dir = Path(tmp)
        for spec in specs:  # populate the store once, outside the timing
            run_sweep(spec, workers=BENCH_WORKERS, results_dir=results_dir)

        def replay_round() -> float:
            nonlocal recomputed
            replays: list = []
            elapsed = timed(lambda: replays.extend(
                run_sweep(spec, workers=BENCH_WORKERS, results_dir=results_dir)
                for spec in specs))
            recomputed = sum(result.computed_cells for result in replays)
            return elapsed

        replay_s = best_of(replay_round, rounds=3)
    shutdown_shared_pools()  # leave no idle daemons behind for later stages
    return {
        "sweep_cold_cells_per_s": BENCH_CELLS / cold_s,
        "sweep_warm_pool_cells_per_s": BENCH_CELLS / warm_s,
        "sweep_warm_replay_seconds": replay_s,
        "sweep_warm_replay_recomputed": float(recomputed),
    }


def main(argv: list[str]) -> int:
    output = Path(argv[0]) if argv else DEFAULT_OUTPUT
    engine = engine_benchmarks()
    engine.update(scale_benchmarks())
    engine.update(kilonode_benchmarks())
    report = {
        "schema": "bench-baseline/v6",
        "config": {"batch_size": K, "packet_size": PACKET_SIZE, "rounds": ROUNDS,
                   "medium_nodes": MEDIUM_NODES, "medium_frames": MEDIUM_FRAMES,
                   "engine_events": BENCH_EVENTS,
                   "sweep_sweeps": BENCH_SWEEPS,
                   "sweep_seeds_per_sweep": BENCH_SEEDS_PER_SWEEP,
                   "sweep_workers": BENCH_WORKERS},
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "kernels_mbps": kernel_benchmarks(),
        "coding_pps": coding_benchmarks(),
        "medium_fps": medium_benchmarks(),
        "engine": engine,
        "sweep": sweep_benchmarks(),
        "protocols": protocol_benchmarks(),
    }
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
