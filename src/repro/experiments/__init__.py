"""Experiment harness reproducing the paper's evaluation (Chapter 4 and 5.7).

Import from the modules: :mod:`~repro.experiments.runner` runs flows,
:mod:`~repro.experiments.workloads` picks their endpoints,
:mod:`~repro.experiments.stats` summarises them,
:mod:`~repro.experiments.orchestrator` sweeps scenarios and
:mod:`~repro.experiments.figures` reproduces the paper's results.  The
package re-exports nothing, so a run that imports the runner does not load
the figures or the sweep orchestrator.
"""
