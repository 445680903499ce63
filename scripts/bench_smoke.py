#!/usr/bin/env python3
"""bench-smoke: the benchmark still measures this tree (``make bench-smoke``, and CI).

``python3 -m bench`` reaches into the program through entry points resolved
by dotted name at run time, and prints ``correct`` / ``failed`` instead of
exiting nonzero — so a refactor that renames a traced function, changes a
simulated outcome between a warm-up and its repeat, or strands a flow is
otherwise first seen at the next benchmark run.  Two steps, from the repo
root:

1. ``python3 -m pytest bench -q`` — the benchmark's own tests (outside
   tier-1's ``testpaths``);
2. ``python3 -m bench --quick --workload W --trace 1`` for ``kilonode_flow``
   (the workload that builds the most per simulator), ``mesh_seed_sweep``
   (the only one that enters ``scenarios/`` and the orchestrator, so the only
   one whose ``build_topology`` / ``run_cell`` spans resolve to anything) and
   ``coded_payload`` (the only one whose set-up sends a real file through
   ``setup_more_flow(file_bytes=…)`` and compares ``decoded_bytes()``, and
   the only one where the coding and GF spans carry payload bytes) — three
   units plus the traced pass each; the result line must say ``correct``,
   no failed operation and ``trace.missing`` = 0.  On ``coded_payload`` the
   traced unit must also run fewer GF matrix products than it puts frames
   on the air (``gf.matmul_calls < sim.frames``): a packet's 1500 bytes are
   computed when a listener stores it, and most frames are stored by no
   one, so a regression to one product per transmission is caught by
   exact counts rather than by timing.  On the two meshes it must run
   fewer single-vector GF kernel calls than buffer inserts
   (``gf.vecmat_calls < coding.insert_calls``): the buffer eliminates and
   combines over its rows without a numpy kernel, and the only such calls
   left are stored packets' 16 payload bytes — a regression to one kernel
   call per elimination (there were two to three per insert) is caught the
   same way.

Exit status 0 on success; any violated step raises.  The timings of a
``--quick`` run mean nothing and are not looked at.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("kilonode_flow", "mesh_seed_sweep", "coded_payload")


def main() -> int:
    subprocess.run([sys.executable, "-m", "pytest", "bench", "-q",
                    "-p", "no:cacheprovider"], cwd=REPO_ROOT, check=True,
                   timeout=600)
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, "-m", "bench", "--quick",
                               "--workload", workload, "--trace", "1"],
                              cwd=REPO_ROOT, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=600)
        result = json.loads(done.stdout.splitlines()[-1])
        missing = result["metrics"]["trace.missing"]["value"]
        if not result["correct"] or result["failed"] or missing:
            raise RuntimeError(f"bench: {workload}: correct={result['correct']}, "
                               f"{result['failed']} of {result['attempted']} operations "
                               f"failed, {missing:g} traced entry point(s) missing")
        if workload == "coded_payload":
            products = result["metrics"]["gf.matmul_calls"]["value"]
            frames = result["metrics"]["sim.frames"]["value"]
            if products >= frames:
                raise RuntimeError(f"bench: {workload}: {products:g} GF matrix products "
                                   f"for {frames:g} frames on the air: payloads are "
                                   f"built per transmission, not per stored packet")
        else:  # the two meshes
            kernels = result["metrics"]["gf.vecmat_calls"]["value"]
            inserts = result["metrics"]["coding.insert_calls"]["value"]
            if kernels >= inserts:
                raise RuntimeError(f"bench: {workload}: {kernels:g} single-vector GF "
                                   f"kernel calls for {inserts:g} buffer inserts: the "
                                   f"row-echelon algebra is back on numpy kernels")
        print(f"bench-smoke: {workload} ok ({result['attempted']} operations, "
              f"every traced entry point resolved)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
