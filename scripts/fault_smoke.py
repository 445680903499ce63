#!/usr/bin/env python3
"""fault-smoke: fault injection and the liveness watchdog through the real CLI.

The fault subsystem's headline contracts, asserted end-to-end against the
installed tree (``make fault-smoke``, and CI):

1. **structured aborts, not hangs** — killing every relay of the
   ``chain_smoke`` flow mid-batch with a finite ``run.progress_timeout``
   must exit 0 with every protocol's flow reported as aborted (the
   ``*_aborted`` summary counters and ``meta.aborted_flows`` notes), each
   note naming the down nodes and MORE's also its rank and credits;
2. **fault determinism** — the ``crash_recover_sweep`` preset aggregated
   with 1 worker equals the 2-worker run byte for byte.

Exit status 0 on success; any violated step raises.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Both relays of the chain_smoke 3-hop chain die at t=0.01 and stay down.
_KILL_RELAYS = '{"1": [[0.01, 1e9]], "2": [[0.01, 1e9]]}'


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    return env


def _repro(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd,
                          env=_env(), capture_output=True, text=True,
                          timeout=600)


def check_structured_aborts(cwd: Path) -> None:
    done = _repro(["run", "--preset", "chain_smoke", "--no-cache", "--json",
                   "--faults", "scheduled",
                   "--set", f"faults.downs={_KILL_RELAYS}",
                   "--set", "run.refresh_period=0.5",
                   "--set", "run.progress_timeout=0.5"], cwd)
    if done.returncode != 0:
        raise RuntimeError(f"faulted run failed instead of aborting "
                           f"gracefully:\n{done.stderr}")
    (result,) = json.loads(done.stdout)["cells"]
    for protocol in ("MORE", "ExOR", "Srcr"):
        count = result["summary"].get(f"{protocol}_aborted")
        if count != 1.0:
            raise RuntimeError(f"{protocol}: expected 1 aborted flow, "
                               f"summary says {count!r}")
        (note,) = result["meta"]["aborted_flows"][protocol]
        wanted = ["no progress", "down nodes [1, 2]"]
        if protocol == "MORE":
            wanted += ["destination rank", "forwarder credits"]
        if not all(piece in note for piece in wanted):
            raise RuntimeError(f"{protocol}: abort note lacks forensics: "
                               f"{note!r}")
    print("fault-smoke: all-relays-crashed run aborted all 3 protocols "
          "with structured reasons")


def check_sweep_determinism(serial_dir: Path, parallel_dir: Path) -> None:
    runs = {}
    for workers, cwd in (("1", serial_dir), ("2", parallel_dir)):
        done = _repro(["sweep", "--preset", "crash_recover_sweep",
                       "--no-cache", "--json", "--workers", workers], cwd)
        if done.returncode != 0:
            raise RuntimeError(f"crash_recover_sweep with {workers} "
                               f"worker(s) failed:\n{done.stderr}")
        runs[workers] = json.loads(done.stdout)["cells"]
    if runs["1"] != runs["2"]:
        raise RuntimeError("crash_recover_sweep diverged between 1 and 2 "
                           "workers — fault injection broke determinism")
    print("fault-smoke: crash_recover_sweep parallel == serial, "
          f"{len(runs['1'])} cells byte-identical")


def main() -> int:
    with tempfile.TemporaryDirectory() as a, \
            tempfile.TemporaryDirectory() as b:
        check_structured_aborts(Path(a))
        check_sweep_determinism(Path(a), Path(b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
