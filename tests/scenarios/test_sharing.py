"""Sharing must not be observable: a cell is a pure function of spec + seed.

A process keeps the meshes it built (``build_topology``) and, on each
topology, what the control plane and the medium derived from it
(``Topology.derived``), so consecutive cells, protocols and flows share
them.  Whatever a cell finds already derived — nothing in a fresh
interpreter, its successors' leftovers when the sweep runs backwards — its
result must be the same bytes.  The
dynamic variants re-plan mid-flow over per-epoch (mobility) and dead-node
masked (faults) topologies, which must inherit nothing from the static mesh.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import ScenarioSpec, get_preset, run_cell

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_FRESH = ("import json, sys; from repro.scenarios.execute import run_cell_dict; "
          "print(json.dumps(run_cell_dict(json.load(sys.stdin)), sort_keys=True))")

#: A probe-free control plane is the case in which plans, not only meshes,
#: are shared between the cells.
_MESH = {"workload.count": 3, "run.total_packets": 32, "run.estimation_probes": 0}


def _mesh_sweep(overrides: dict, seeds: tuple[int, ...] = (1, 2, 3)) -> ScenarioSpec:
    spec = get_preset("random_geometric_16").with_overrides({**_MESH, **overrides})
    spec.protocols = ("MORE", "ExOR", "Srcr")
    spec.seeds = seeds
    return spec


def _grid_sweep() -> ScenarioSpec:
    return get_preset("multiflow_grid").with_overrides(
        {"workload.set_count": 1, "run.total_packets": 24, "run.batch_size": 8})


SWEEPS = {
    "random_geometric_16": lambda: _mesh_sweep({}),
    "multiflow_grid": _grid_sweep,
    "link_churn": lambda: _mesh_sweep({
        "mobility": "link_churn", "mobility.mean_up_time": 2.0,
        "mobility.mean_down_time": 0.5, "mobility.epoch_length": 0.25,
        "run.refresh_period": 0.5, "run.max_duration": 15.0}, seeds=(1, 2)),
    "crash_recover": lambda: _mesh_sweep({
        "faults": "crash_recover", "faults.mean_uptime": 0.5,
        "faults.mean_downtime": 0.2, "run.refresh_period": 0.5,
        "run.progress_timeout": 2.0, "run.max_duration": 15.0}, seeds=(1, 2)),
}


def _bytes(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


def _fresh_process(cell) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", _FRESH], input=json.dumps(cell.to_dict()),
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("name", SWEEPS)
def test_cell_bytes_do_not_depend_on_what_ran_before(name):
    cells = SWEEPS[name]().expand()
    assert len(cells) >= 2
    in_order = [_bytes(run_cell(cell).to_dict()) for cell in cells]
    backwards = [_bytes(run_cell(cell).to_dict()) for cell in reversed(cells)][::-1]
    assert backwards == in_order
    assert [_fresh_process(cell) for cell in cells] == in_order
