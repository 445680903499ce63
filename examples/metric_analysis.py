#!/usr/bin/env python3
"""Chapter 5 analysis: EOTX vs ETX, the min-cost flow LP and the ordering gap.

This example exercises the theory layer of the library without running the
packet-level simulator:

* computes ETX and EOTX for every node of the testbed toward one gateway and
  shows where opportunism saves transmissions;
* verifies Proposition 4 (EOTX equals the LP optimum) on a small mesh;
* reproduces the Figure 5-1 unbounded-gap construction and the Section 5.7
  conclusion that the gap is negligible on a real topology.

Run:  python examples/metric_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro.experiments.workloads import random_pairs
from repro.metrics import (
    cost_gap,
    eotx_dijkstra,
    etx_to_destination,
    figure_5_1_gap,
    gap_survey,
    solve_min_cost_flow,
    summarize_gaps,
)
from repro.scenarios import build_topology, get_preset
from repro.topology import cost_gap_topology, random_mesh


def main() -> None:
    # The Chapter 4 testbed, resolved from the scenario preset registry.
    testbed = build_topology(get_preset("fig_4_2").topology)
    gateway = 0

    print("=== ETX vs EOTX toward node 0 (the gateway) ===")
    etx = etx_to_destination(testbed, gateway)
    eotx = eotx_dijkstra(testbed, gateway)
    print(f"{'node':>4} {'ETX':>8} {'EOTX':>8} {'saving':>8}")
    for node in range(testbed.node_count):
        if node == gateway or not np.isfinite(etx[node]):
            continue
        saving = (1 - eotx[node] / etx[node]) * 100
        print(f"{node:>4} {etx[node]:8.2f} {eotx[node]:8.2f} {saving:7.1f}%")

    print("\n=== Proposition 4: EOTX equals the min-cost flow LP optimum ===")
    mesh = random_mesh(7, density=0.6, seed=4)
    lp = solve_min_cost_flow(mesh, source=6, destination=0, prefix_constraints_only=True)
    eotx_mesh = eotx_dijkstra(mesh, 0)
    print(f"LP optimum: {lp.total_cost:.6f}   EOTX(source): {eotx_mesh[6]:.6f}")

    print("\n=== Figure 5-1: the unbounded ETX-vs-EOTX ordering gap ===")
    for p in (0.3, 0.1, 0.05, 0.02):
        topo = cost_gap_topology(bridge_delivery=max(p, 0.06), branch_count=8)
        result = cost_gap(topo, 0, topo.node_count - 1)
        print(f"  bridge delivery {p:5.2f}: measured gap {result.gap:5.2f} "
              f"(paper closed form {figure_5_1_gap(max(p, 0.06), 8):5.2f})")

    print("\n=== Section 5.7: the gap on the testbed is marginal ===")
    pairs = random_pairs(testbed, 30, seed=5)
    summary = summarize_gaps([result.gap for result in gap_survey(testbed, pairs)])
    print(f"  flows unaffected by the ordering: {summary['fraction_unaffected'] * 100:.0f}%")
    print(f"  median gap among affected flows:  {summary['median_gap_affected'] * 100:.2f}%")
    print(f"  worst observed gap:               {(summary['max_gap'] - 1) * 100:.1f}%")


if __name__ == "__main__":
    main()
