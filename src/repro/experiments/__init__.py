"""Experiment harness reproducing the paper's evaluation (Chapter 4 and 5.7)."""

from repro.experiments.figures import FIGURES, FigureResult, run_figure
from repro.experiments.orchestrator import (
    DEFAULT_RESULTS_DIR,
    SweepResult,
    run_scenario,
    run_sweep,
)
from repro.experiments.runner import (
    PROTOCOLS,
    FlowResult,
    RunConfig,
    run_flows,
    run_single_flow,
)
from repro.experiments.stats import Summary, cdf, median, median_gain, percentile, summarize
from repro.experiments.workloads import (
    challenged_pairs,
    multiflow_sets,
    random_pairs,
    reachable_pairs,
    spatial_reuse_pairs,
)

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "FIGURES",
    "FigureResult",
    "FlowResult",
    "PROTOCOLS",
    "RunConfig",
    "Summary",
    "SweepResult",
    "cdf",
    "challenged_pairs",
    "median",
    "median_gain",
    "multiflow_sets",
    "percentile",
    "random_pairs",
    "reachable_pairs",
    "run_figure",
    "run_flows",
    "run_scenario",
    "run_single_flow",
    "run_sweep",
    "spatial_reuse_pairs",
    "summarize",
]
