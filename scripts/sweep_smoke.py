#!/usr/bin/env python3
"""sweep-smoke: kill-resume the sweep service through the real CLI.

The orchestrator's resume story is only honest end-to-end: a multi-worker
``python -m repro sweep`` SIGKILLed mid-flight must, on re-run, load the
surviving cells from the content-addressed store, compute only the
missing ones, and aggregate **bit-identically** to a sweep that was never
interrupted.  ``tests/scenarios/test_orchestrator.py`` asserts the same
contract under pytest; this script is the standalone gate ``make
sweep-smoke`` (and CI) runs against the installed tree:

1. start the sweep (8 cells, 4 workers) in a scratch directory;
2. SIGKILL it as soon as the first cell file lands — none of its worker
   processes may be alive a few seconds later;
3. re-run the identical command — it must report every survivor as a
   cache hit and finish the rest;
4. run the same sweep uninterrupted in a second scratch directory and
   compare the aggregated cells byte for byte.

Exit status 0 on success; any violated step raises.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SWEEP = [sys.executable, "-m", "repro", "sweep", "--preset", "chain_smoke",
         "--set", "run.total_packets=16", "--seeds", "1,2,3,4,5,6,7,8",
         "--workers", "4", "--json"]
CELLS = 8


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    return env


def _run(cwd: Path) -> dict:
    done = subprocess.run(SWEEP, cwd=cwd, env=_env(), capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"sweep failed:\n{done.stderr}")
    return json.loads(done.stdout)


def live_processes() -> dict[int, int]:
    """``pid -> parent pid`` of every process that is not a zombie."""
    listing = subprocess.run(["ps", "-A", "-o", "pid=,ppid=,stat="], check=True,
                             capture_output=True, text=True).stdout
    rows = (line.split() for line in listing.splitlines())
    return {int(pid): int(ppid) for pid, ppid, state in rows
            if not state.startswith("Z")}


def kill_mid_sweep(cwd: Path) -> int:
    """Start the sweep, SIGKILL once a cell lands, return survivor count.

    The pool must die with it: no worker outlives the kill by more than its
    parent-watch period and the cell it had in hand.
    """
    store = cwd / "results" / "store" / "chain_smoke"
    process = subprocess.Popen(SWEEP, cwd=cwd, env=_env(),
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            if store.is_dir() and list(store.glob("cell-*.json")):
                break
            if process.poll() is not None:
                break  # finished whole before the kill: still a valid resume
            time.sleep(0.01)
        workers = {pid for pid, parent in live_processes().items()
                   if parent == process.pid}
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
    finally:
        process.wait(timeout=60)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and live_processes().keys() & workers:
        time.sleep(0.1)
    orphans = live_processes().keys() & workers
    assert not orphans, f"workers {sorted(orphans)} outlived their killed sweep"
    print(f"sweep-smoke: all {len(workers)} workers exited with the killed sweep")
    return len(list(store.glob("cell-*.json")))


def main() -> int:
    with tempfile.TemporaryDirectory() as killed, \
            tempfile.TemporaryDirectory() as clean:
        survivors = kill_mid_sweep(Path(killed))
        print(f"sweep-smoke: killed mid-sweep, {survivors}/{CELLS} cells "
              "survived in the store")
        assert survivors >= 1, "nothing survived the kill window"

        resumed = _run(Path(killed))
        print(f"sweep-smoke: resume ran {resumed['computed_cells']} cells, "
              f"hit {resumed['cached_cells']} cached")
        assert resumed["cached_cells"] >= survivors
        assert resumed["cached_cells"] + resumed["computed_cells"] == CELLS

        reference = _run(Path(clean))
        assert reference["cells"] == resumed["cells"], \
            "resumed aggregate diverged from the uninterrupted run"
        print("sweep-smoke: resumed aggregate bit-identical to a clean run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
