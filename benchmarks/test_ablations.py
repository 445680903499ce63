"""Ablations of the modelling and design choices behind the figures.

These do not correspond to a specific paper figure; they quantify how much
each modelling/design ingredient matters on the synthetic testbed:

* forwarder-ordering metric (ETX, as deployed, vs the optimal EOTX);
* the 10% forwarder pruning rule on vs off;
* the probe-estimation control plane vs a perfectly informed one (the
  ablation of the Srcr-vs-MORE asymmetry the paper's introduction builds on).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import RunConfig, run_single_flow
from repro.experiments.workloads import random_pairs


def _median_throughput(testbed, protocol, pairs, config):
    results = [run_single_flow(testbed, protocol, s, d, config=config) for s, d in pairs]
    return float(np.median([r.throughput_pkts for r in results]))


def test_ablation_more_ordering_metric(testbed, run_config):
    """ETX-ordered vs EOTX-ordered MORE (Section 5.7 predicts a tiny gap)."""
    pairs = random_pairs(testbed, 5, seed=11)
    etx_config = RunConfig(**{**run_config.__dict__, "more_metric": "etx"})
    eotx_config = RunConfig(**{**run_config.__dict__, "more_metric": "eotx"})
    etx_median = _median_throughput(testbed, "MORE", pairs, etx_config)
    eotx_median = _median_throughput(testbed, "MORE", pairs, eotx_config)
    print(f"\nMORE median throughput: ETX order {etx_median:.1f} pkt/s, "
          f"EOTX order {eotx_median:.1f} pkt/s")
    # Section 5.7: the ordering choice barely matters in practice.
    assert eotx_median == pytest.approx(etx_median, rel=0.5)


def test_ablation_forwarder_pruning(testbed, run_config):
    """The 10% pruning rule trades a little transmission diversity for less
    contention; it must not cripple throughput."""
    from repro.protocols.more import setup_more_flow
    from repro.sim.radio import SimConfig
    from repro.sim.simulator import Simulator

    pairs = random_pairs(testbed, 4, seed=12)

    def run_variant(prune: bool) -> float:
        throughputs = []
        for source, destination in pairs:
            sim = Simulator(testbed, SimConfig(seed=3))
            handle = setup_more_flow(
                sim, testbed, source, destination,
                total_packets=run_config.total_packets,
                batch_size=run_config.batch_size,
                packet_size=run_config.packet_size,
                coding_payload_size=run_config.coding_payload_size,
                prune=prune, seed=3,
                control_topology=run_config.control_view(testbed),
            )
            sim.run(until=run_config.max_duration,
                    stop_condition=sim.stats.all_flows_complete)
            record = sim.stats.flows[handle.flow_id]
            duration = record.duration if record.completed else sim.now
            throughputs.append(record.delivered_packets / max(duration, 1e-9))
        return float(np.median(throughputs))

    pruned, unpruned = run_variant(True), run_variant(False)
    print(f"\nMORE median throughput: pruned {pruned:.1f} pkt/s, unpruned {unpruned:.1f} pkt/s")
    assert pruned > 0.5 * unpruned


def test_ablation_control_plane_estimation(testbed, run_config):
    """Perfectly informed vs probe-estimated control plane.

    Best-path routing relies entirely on the accuracy of its link estimates,
    so it benefits far more from a perfect control plane than MORE does —
    this asymmetry is the core of the paper's motivation for opportunistic
    routing.
    """
    pairs = random_pairs(testbed, 6, seed=13)
    noisy = RunConfig(**{**run_config.__dict__})
    perfect = RunConfig(**{**run_config.__dict__,
                           "estimation_exponent": 1.0, "estimation_probes": 0})
    results = {
        ("Srcr", "probe"): _median_throughput(testbed, "Srcr", pairs, noisy),
        ("Srcr", "perfect"): _median_throughput(testbed, "Srcr", pairs, perfect),
        ("MORE", "probe"): _median_throughput(testbed, "MORE", pairs, noisy),
        ("MORE", "perfect"): _median_throughput(testbed, "MORE", pairs, perfect),
    }
    print("\ncontrol-plane ablation (median pkt/s):")
    for (protocol, mode), value in results.items():
        print(f"  {protocol:<5} {mode:<8} {value:8.1f}")
    srcr_benefit = results[("Srcr", "perfect")] / max(results[("Srcr", "probe")], 1e-9)
    more_benefit = results[("MORE", "perfect")] / max(results[("MORE", "probe")], 1e-9)
    # Srcr gains at least as much from perfect link knowledge as MORE does.
    assert srcr_benefit >= more_benefit * 0.9
