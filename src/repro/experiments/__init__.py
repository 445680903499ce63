"""Experiment harness reproducing the paper's evaluation (Chapter 4 and 5.7)."""

from repro.experiments.figures import (
    ALL_FIGURES,
    FigureResult,
    figure_4_2,
    figure_4_3,
    figure_4_4,
    figure_4_5,
    figure_4_6,
    figure_4_7,
    figure_5_1,
    table_4_1,
)
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
    "ALL_FIGURES",
    "DEFAULT_RESULTS_DIR",
    "FigureResult",
    "FlowResult",
    "PROTOCOLS",
    "RunConfig",
    "Summary",
    "SweepResult",
    "cdf",
    "challenged_pairs",
    "figure_4_2",
    "figure_4_3",
    "figure_4_4",
    "figure_4_5",
    "figure_4_6",
    "figure_4_7",
    "figure_5_1",
    "median",
    "median_gain",
    "multiflow_sets",
    "percentile",
    "random_pairs",
    "reachable_pairs",
    "run_flows",
    "run_scenario",
    "run_single_flow",
    "run_sweep",
    "spatial_reuse_pairs",
    "summarize",
    "table_4_1",
]
