"""Figure 4-7: sensitivity of MORE and ExOR to the batch size K.

Paper result: MORE is essentially insensitive to K between 8 and 128, while
ExOR degrades markedly with small batches (K=8), because its per-batch
control overhead (batch maps, scheduling, cleanup) is amortised over fewer
packets.
"""

from __future__ import annotations

from repro.experiments.figures import figure_4_7

from conftest import run_figure


def test_figure_4_7_batch_size(benchmark, paper_scale):
    result = run_figure(benchmark, figure_4_7, "fig_4_7", paper_scale)

    # MORE's throughput at K=8 stays close to its K=32 value (the paper's
    # headline claim for this figure) ...
    assert result.summary["more_k8_vs_k32"] > 0.6
    # ... and every batch size remains usable for both protocols.  The
    # paper's strong ExOR penalty at K=8 is not reproduced at reduced scale
    # (our idealised scheduler understates ExOR's per-batch control cost);
    # see EXPERIMENTS.md.
    medians = result.extras["medians"]
    assert all(value > 0 for value in medians["MORE"].values())
    assert all(value > 0 for value in medians["ExOR"].values())
