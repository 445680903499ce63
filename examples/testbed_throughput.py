#!/usr/bin/env python3
"""Testbed throughput comparison: the paper's headline experiment (Fig 4-2).

Runs the ``fig_4_2`` and ``fig_4_4`` scenario presets through the scenario
layer — the same path the ``python -m repro`` CLI takes — instead of
hand-building topology, pairs and config.  Overrides show how any preset
knob (here the pair count) is one dotted-path assignment away.

Run:  python examples/testbed_throughput.py [pair_count] [workers]
"""

from __future__ import annotations

import sys

from repro.experiments.orchestrator import run_scenario
from repro.scenarios import get_preset


def main() -> None:
    pair_count = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    print(f"=== Figure 4-2: unicast throughput over {pair_count} random pairs ===")
    fig_4_2 = get_preset("fig_4_2").with_overrides({"workload.count": pair_count})
    result = run_scenario(fig_4_2, workers=workers, results_dir=None)
    print(result.report())

    print("\n=== Figure 4-4: 4-hop flows with spatial reuse ===")
    fig_4_4 = get_preset("fig_4_4").with_overrides(
        {"workload.count": max(4, pair_count // 2)})
    reuse = run_scenario(fig_4_4, workers=workers, results_dir=None)
    print(reuse.report())

    print("\nInterpretation: MORE and ExOR beat best-path routing because they "
          "exploit every fortunate reception; MORE additionally beats ExOR "
          "because it needs no transmission schedule and can therefore use "
          "spatial reuse, which the 4-hop experiment isolates.\n"
          "The same runs, from the shell:  python -m repro run --preset fig_4_2")


if __name__ == "__main__":
    main()
