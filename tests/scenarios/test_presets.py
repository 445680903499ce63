"""Preset registry: resolution, isolation, and consistency with the figures."""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.runner import run_single_flow
from repro.scenarios import (
    MODES,
    build_flow_sets,
    build_pairs,
    build_topology,
    get_preset,
    list_presets,
)

#: Every paper figure the scenario layer covers.
FIGURE_PRESETS = ("fig_4_2", "fig_4_4", "fig_4_5", "fig_4_6", "fig_4_7", "fig_5_1")


def test_registry_contains_paper_figures():
    names = {spec.name for spec in list_presets()}
    assert set(FIGURE_PRESETS) <= names
    assert {"chain_smoke", "multiflow_grid", "random_geometric_16"} <= names


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
    assert (len(presets), cells) == (21, 40)
    assert digest.hexdigest()[:16] == "f0e4fc0bb37c3ed0"


def test_get_preset_unknown_name():
    with pytest.raises(KeyError, match="unknown preset"):
        get_preset("fig_9_9")


def test_get_preset_returns_isolated_copies():
    first = get_preset("fig_4_2")
    first.run["total_packets"] = 7
    first.workload.params["count"] = 999
    second = get_preset("fig_4_2")
    assert second.run["total_packets"] == 96
    assert second.workload.params["count"] == 10


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


def test_large_mesh_200_transfer_delivers_every_packet():
    """The 200-node scale preset's pinned far pair completes a MORE transfer."""
    spec = get_preset("large_mesh_200")
    source, destination = spec.workload.params["pairs"][0]
    config = spec.run_config(seed=spec.seeds[0])
    result = run_single_flow(build_topology(spec.topology), "MORE", source, destination,
                             config=config)
    assert result.completed
    assert result.delivered_packets == config.total_packets


def test_preset_round_trips_through_json():
    for spec in list_presets():
        clone = type(spec).from_json(spec.to_json())
        assert clone == spec


def test_every_figure_preset_is_run_by_a_row_of_the_figure_table():
    registered = {spec.name for spec in list_presets() if spec.name.startswith("fig_")}
    assert registered == set(FIGURE_PRESETS) \
        == {row.preset for row in FIGURES.values() if row.preset}


def test_paper_scale_specs_expand():
    """The paper-scale specs, which tier-1 never runs, still resolve."""
    paper = {row.name: row.at_paper_scale(get_preset(row.preset))
             for row in FIGURES.values() if row.preset}
    for spec in paper.values():
        for cell in spec.expand():
            config = cell.scenario.run_config(cell.seed)
            assert (config.total_packets, config.max_duration) == (3495, 600.0)
    samples = {name: spec.workload.params.get("count", spec.workload.params.get("set_count"))
               for name, spec in paper.items()}
    assert samples == {"figure_4_2": 200, "figure_4_3": 200, "figure_4_4": 20,
                       "figure_4_5": 40, "figure_4_6": 40, "figure_4_7": 40,
                       "figure_5_1": 100}
    assert [cell.axes["run.batch_size"] for cell in paper["figure_4_7"].expand()] \
        == [8, 16, 32, 64, 128]
    assert [(cell.axes["workload.flow_count"], cell.scenario.workload.params["set_count"])
            for cell in paper["figure_4_5"].expand()] == [(1, 40), (2, 40), (3, 40), (4, 40)]
    # Two views of one experiment: the same cells, hence the same store keys.
    assert [cell.key() for cell in paper["figure_4_2"].expand()] \
        == [cell.key() for cell in paper["figure_4_3"].expand()]


def test_fig_4_7_sweeps_the_paper_batch_sizes():
    paper_sizes = FIGURES["figure_4_7"].paper["run.batch_size"]
    assert paper_sizes == (8, 16, 32, 64, 128)
    spec = get_preset("fig_4_7")
    assert spec.sweep["run.batch_size"] == paper_sizes[:-1]
    # A K=128 cell stretches the preset's 96-packet transfer to two batches.
    spec.sweep["run.batch_size"] = paper_sizes
    largest = [cell for cell in spec.expand()
               if cell.axes["run.batch_size"] == 128][0]
    assert largest.scenario.run_config(largest.seed).total_packets == 256
