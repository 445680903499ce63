#!/usr/bin/env python3
"""Profile one scenario-preset flow under cProfile and print the hot spots.

The quickest way to see where simulation wall-clock goes before and after a
perf change (see docs/performance.md):

    make profile                                        # fig_4_2 MORE
    PYTHONPATH=src python scripts/profile_run.py --preset fig_4_2 \
        --protocol MORE --top 30

One warm-up run happens outside the profiler (imports, table builds and
cache priming would otherwise dominate), then ``--runs`` profiled runs.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import run_single_flow    # noqa: E402
from repro.scenarios import build_pairs, build_topology, get_preset  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="fig_4_2",
                        help="scenario preset supplying topology + workload "
                             "(default: fig_4_2)")
    parser.add_argument("--protocol", default="MORE",
                        choices=("MORE", "ExOR", "Srcr"))
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--runs", type=int, default=1,
                        help="profiled runs (after one unprofiled warm-up)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the cumulative-time table to print")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"))
    args = parser.parse_args(argv)

    spec = get_preset(args.preset)
    topology = build_topology(spec.topology)
    source, destination = build_pairs(spec.workload, topology, args.seed)[0]
    config = spec.run_config(args.seed)

    def run() -> None:
        run_single_flow(topology, args.protocol, source, destination,
                        config=config)

    run()  # warm-up outside the profiler
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(args.runs):
        run()
    profiler.disable()

    print(f"# {args.preset} {args.protocol} {source}->{destination} "
          f"seed={args.seed} runs={args.runs}")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
