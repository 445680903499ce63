"""Link-quality estimation as seen by the routing control plane.

The data plane of the simulator uses the *true* per-link delivery
probabilities of 1500-byte data frames.  Routing protocols, however, never
see those: they see ETX estimates derived from periodic probe frames
(Section 3.1.1 — "nodes periodically ping each other and estimate the
delivery probability on each link"; Section 4.1.2 — a 10-minute ETX
measurement phase feeds all three protocols).

Probe frames are short and sent at the base rate, so they experience a lower
frame error rate than long data frames sent at 5.5 or 11 Mb/s; probe windows
are also finite, so the estimates carry sampling noise.  Both effects are
modelled here:

* **Optimism** — a data frame of ``data_bits`` survives roughly
  ``p_bit^data_bits``; a probe of ``probe_bits`` survives
  ``p_bit^probe_bits``; hence ``p_probe = p_data ** (probe_bits/data_bits)``
  (independent bit errors).  The control plane therefore sees
  ``p_data ** optimism_exponent`` with ``optimism_exponent < 1``.
* **Sampling noise** — the estimate is formed from ``probe_count``
  Bernoulli trials of the probe delivery probability.

This asymmetry is the heart of the paper's motivation: a best-path protocol
commits to one nexthop based on these optimistic estimates and pays for
every mis-estimate with retransmissions, while opportunistic protocols use
whichever receptions actually happen.  Experiments can disable either effect
to quantify its contribution (the ablation benchmark does exactly that).
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import LinkTable, LinkView

#: Default ratio of probe-frame airtime to data-frame airtime used to derive
#: the optimism exponent: ETX probes are small control frames at the base
#: rate while data frames are 1500 B at 5.5/11 Mb/s.
DEFAULT_OPTIMISM_EXPONENT = 0.45

#: Number of probes in the measurement window (10 minutes at ~1 probe/6 s).
DEFAULT_PROBE_COUNT = 100


def probe_estimated_topology(topology: LinkView,
                             optimism_exponent: float = DEFAULT_OPTIMISM_EXPONENT,
                             probe_count: int = DEFAULT_PROBE_COUNT,
                             seed: int | tuple[int, ...] = 0) -> LinkView:
    """The links of ``topology`` as the routing control plane believes them to be.

    Only links are estimated: the result is a read-only
    :class:`~repro.topology.graph.LinkView` holding ``topology``'s nodes
    and one :class:`~repro.topology.graph.LinkTable` of estimates, O(links)
    rather than N×N.  Its links are ``topology``'s, in the same row-major
    order (the view shares their index arrays); each estimate is
    ``p ** optimism_exponent``, then ``Binomial(probe_count, ·) /
    probe_count`` drawn over the links in that order.  A link whose probes
    all got lost stays in the table at 0.

    Args:
        topology: ground-truth data-frame delivery probabilities (a
            :class:`~repro.topology.graph.Topology`, or a view such as the
            dead-node mask of :mod:`repro.experiments.refresh`).
        optimism_exponent: exponent applied to the true probability to model
            probes seeing a lower error rate than data frames (1.0 = probes
            behave exactly like data frames, i.e. a perfectly informed
            control plane).
        probe_count: probes per link in the measurement window; 0 disables
            sampling noise.
        seed: RNG seed for the sampling noise.

    Returns:
        The estimated view.  With ``probe_count == 0`` nothing is drawn,
        the view is the same for every seed, and it is derived once per
        ``topology`` (:meth:`~repro.topology.graph.LinkView.derived`):
        every such call returns the same object, so the plans derived from
        it are shared too.  A sampled view (``probe_count > 0``) is a new
        object every call.  To edit one, build a
        :class:`~repro.topology.graph.Topology` from its
        ``delivery_matrix()``.
    """
    if not 0.0 < optimism_exponent <= 1.0:
        raise ValueError("optimism_exponent must lie in (0, 1]")
    if probe_count < 0:
        raise ValueError("probe_count must be non-negative")
    if probe_count == 0:
        return topology.derived(("control_view", optimism_exponent),
                                lambda: _estimate(topology, optimism_exponent, 0, seed))
    return _estimate(topology, optimism_exponent, probe_count, seed)


def _estimate(topology: LinkView, optimism_exponent: float, probe_count: int,
              seed: int | tuple[int, ...]) -> LinkView:
    links = topology.link_table()
    # Every listed link is probed, in row-major order: the stream of
    # probing the whole matrix, since a link at 0 (unlisted, or listed with
    # all its probes lost) draws nothing at p = 0.
    estimated = links.delivery ** optimism_exponent
    if probe_count > 0:
        rng = np.random.default_rng(seed)
        estimated = rng.binomial(probe_count, estimated) / probe_count
    view = LinkView(list(topology.nodes), LinkTable(links.indptr, links.receivers, estimated))
    # The same links in the same order: the receiver-major index is shared.
    view.derived(("incoming",), topology.incoming)
    return view
