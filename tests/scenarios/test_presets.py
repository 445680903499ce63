"""Preset registry: resolution, isolation, and consistency with the figures."""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.figures import ALL_FIGURES
from repro.scenarios import (
    MODES,
    build_flow_sets,
    build_pairs,
    build_topology,
    get_preset,
    list_presets,
)

#: Every paper figure the scenario layer covers.
FIGURE_PRESETS = ("fig_4_2", "fig_4_3", "fig_4_4", "fig_4_5", "fig_4_6", "fig_4_7",
                  "fig_5_1")


def test_registry_contains_paper_figures():
    names = {spec.name for spec in list_presets()}
    assert set(FIGURE_PRESETS) <= names
    assert {"chain_smoke", "grid_5x5", "random_geometric_16"} <= names


def test_preset_schema_digest():
    """The scenario JSON and cell keys the result store is addressed by.

    A section refactor that moves one byte of either would silently orphan
    ``results/store/``; it has to come here and change this value instead.
    """
    presets = sorted(list_presets(), key=lambda spec: spec.name)
    digest = hashlib.sha256()
    cells = 0
    for spec in presets:
        digest.update(spec.to_json().encode())
        for cell in spec.expand():
            digest.update(cell.key().encode())
            cells += 1
    assert (len(presets), cells) == (27, 50)
    assert digest.hexdigest()[:16] == "bc4f05c7713ff56a"


def test_get_preset_unknown_name():
    with pytest.raises(KeyError, match="unknown preset"):
        get_preset("fig_9_9")


def test_get_preset_returns_isolated_copies():
    first = get_preset("fig_4_2")
    first.run["total_packets"] = 7
    first.workload.params["count"] = 999
    second = get_preset("fig_4_2")
    assert "total_packets" not in second.run
    assert second.workload.params["count"] == 12


@pytest.mark.parametrize("spec", list_presets(), ids=lambda spec: spec.name)
def test_every_preset_is_well_formed(spec):
    assert spec.description
    assert spec.mode in MODES
    cells = spec.expand()
    assert cells
    # Run config resolves for every cell (catches bad run overrides).
    for cell in cells:
        cell.scenario.run_config(cell.seed)
    # The declared topology and workload materialise.
    topology = build_topology(spec.topology)
    cell = cells[0]
    if spec.mode == "multiflow":
        flow_sets = build_flow_sets(cell.scenario.workload, topology, cell.seed)
        assert flow_sets and all(flow_sets)
    else:
        assert build_pairs(cell.scenario.workload, topology, cell.seed)


def test_preset_round_trips_through_json():
    for spec in list_presets():
        clone = type(spec).from_json(spec.to_json())
        assert clone == spec


def test_fig_4_2_topology_matches_figure_harness(monkeypatch):
    """A figure view given no spec runs its preset: the first cell it hands
    the executor is the preset's first cell, for every figure."""

    class Handed(Exception):
        pass

    def refuse(cell):
        raise Handed(cell)

    monkeypatch.setattr("repro.scenarios.execute.run_cell", refuse)
    for preset in FIGURE_PRESETS:
        with pytest.raises(Handed) as handed:
            ALL_FIGURES[preset.replace("fig_", "figure_")]()
        assert handed.value.args[0] == get_preset(preset).expand()[0]


def test_fig_4_7_sweeps_the_paper_batch_sizes():
    spec = get_preset("fig_4_7")
    assert spec.sweep["run.batch_size"] == (8, 16, 32, 64, 128)
    # K=128 cells stretch the transfer to two batches.
    largest = [cell for cell in spec.expand()
               if cell.axes["run.batch_size"] == 128][0]
    assert largest.scenario.run_config(largest.seed).total_packets == 256
