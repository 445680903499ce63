"""Shared fixtures of the paper-evaluation suite.

The paper's figures and their claims are one table,
:data:`repro.experiments.figures.FIGURES`, which ``test_figures.py`` is
parametrised over; the other modules are ablations and the coding checks
behind Table 4.1.  Everything runs at the figure presets' scale, three
batches per transfer; the paper's sample sizes are a switch of ``python -m
repro figure``.  Nothing here times anything: speed is measured by
``python3 -m bench``.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import RunConfig
from repro.scenarios import build_topology, get_preset


@pytest.fixture(scope="session")
def testbed():
    """The synthetic 20-node indoor testbed shared by the ablations.

    Resolved through the scenario layer so the suite and the ``repro`` CLI
    are guaranteed to simulate the same mesh.
    """
    return build_topology(get_preset("fig_4_2").topology)


@pytest.fixture(scope="session")
def run_config() -> RunConfig:
    """Per-flow transfer configuration of the ablations: the one the figure
    presets run."""
    return get_preset("fig_4_2").run_config()
