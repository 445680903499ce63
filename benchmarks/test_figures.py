"""The paper's results, asserted from the table that defines them.

Over :data:`repro.experiments.figures.FIGURES`: every report is regenerated
at its preset's scale and rewritten to the tracked ``results/<figure>.txt``
(a diff there is a behaviour change); every claim is held to its band by
name (``test_claim[<id>]``, the ids of ``docs/paper-map.md``); views are pure
functions of their cells; and the serial, pooled and replayed routes through
``run_figure`` agree.  Each preset's cells are simulated once per session,
into a store under a temporary directory.
"""

from __future__ import annotations

import copy
import functools
from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.orchestrator import run_sweep
from repro.scenarios import PRESETS, get_preset

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: The rows that run a scenario.  Table 4.1 is wall-clock: no cells, no
#: claims, no tracked report (``python -m repro figure table_4_1`` prints it,
#: ``python3 -m bench --trace 1`` measures its layers).
SIMULATED = [row.name for row in FIGURES.values() if row.preset]


@pytest.fixture(scope="session")
def store(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("figure-store")


@pytest.fixture(scope="session")
def figure(store):
    """``figure(name)``: the row's result at preset scale, computed once."""
    return functools.cache(lambda name: run_figure(name, results_dir=store))


@pytest.mark.parametrize("name", SIMULATED)
def test_report(figure, name):
    print("\n" + figure(name).report)
    (RESULTS / f"{name}.txt").write_text(figure(name).report + "\n", encoding="utf-8")


@pytest.mark.parametrize("name, claim", [pytest.param(row.name, claim, id=claim.id)
                                         for row in FIGURES.values() for claim in row.claims])
def test_claim(figure, name, claim):
    assert claim.holds(figure(name).summary), claim.line(figure(name).summary)


def test_series_shapes(figure):
    """What the claims' statistics presuppose about the series behind them."""
    multiflow = figure("figure_4_5").series
    assert all(len(multiflow[protocol]) == 4 for protocol in ("MORE", "ExOR", "Srcr"))
    # Every batch size remains usable for both protocols.
    medians = figure("figure_4_7").extras["medians"]
    assert all(value > 0 for value in medians["MORE"].values())
    assert all(value > 0 for value in medians["ExOR"].values())
    # The gap grows as the bridge weakens, in the closed form and as measured.
    gap = figure("figure_5_1").series
    for curve in (gap["analytic_gap"], gap["measured_gap"]):
        assert all(later > earlier for earlier, later in zip(curve, curve[1:]))


@pytest.mark.parametrize("name", FIGURES)
def test_row_is_well_formed(figure, name):
    row = FIGURES[name]
    assert row.preset is None or row.preset in PRESETS
    for claim in row.claims:
        assert claim.statistic in figure(name).summary
        assert claim.low <= claim.high
        assert claim.id.startswith(name.replace("figure", "fig") + ".")
    ids = [claim.id for other in FIGURES.values() for claim in other.claims]
    assert len(ids) == len(set(ids))


def test_two_views_of_one_preset_simulate_once(figure):
    assert figure("figure_4_2").computed_cells + figure("figure_4_3").computed_cells == 1


def test_routes_agree(figure, tmp_path):
    """Serial, pooled and replayed from the store: one report, one summary."""
    serial = figure("figure_4_7")
    pooled = run_figure("figure_4_7", workers=2, results_dir=tmp_path)
    replayed = run_figure("figure_4_7", results_dir=tmp_path)
    assert (serial.computed_cells, pooled.computed_cells, replayed.computed_cells) == (4, 4, 0)
    for other in (pooled, replayed):
        assert (other.report, other.summary, other.series) \
            == (serial.report, serial.summary, serial.series)


@pytest.mark.parametrize("name", SIMULATED)
def test_view_is_a_pure_function_of_its_cells(figure, store, monkeypatch, name):
    expected = figure(name)  # and the cells are in the store
    spec = get_preset(FIGURES[name].preset)
    cells = run_sweep(spec, results_dir=store).cells

    def refuse(*_args, **_kwargs):
        raise AssertionError("a view simulates nothing")

    monkeypatch.setattr("repro.scenarios.execute.run_cell", refuse)
    monkeypatch.setattr("repro.experiments.orchestrator.engine.run_sweep", refuse)
    handed = copy.deepcopy(cells)
    for _ in range(2):
        result = FIGURES[name].view(copy.deepcopy(spec), handed)
        assert handed == cells
        assert (result.report, result.summary, result.series) \
            == (expected.report, expected.summary, expected.series)
