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

from repro.topology.graph import Topology

#: Default ratio of probe-frame airtime to data-frame airtime used to derive
#: the optimism exponent: ETX probes are small control frames at the base
#: rate while data frames are 1500 B at 5.5/11 Mb/s.
DEFAULT_OPTIMISM_EXPONENT = 0.45

#: Number of probes in the measurement window (10 minutes at ~1 probe/6 s).
DEFAULT_PROBE_COUNT = 100


def probe_estimated_topology(topology: Topology,
                             optimism_exponent: float = DEFAULT_OPTIMISM_EXPONENT,
                             probe_count: int = DEFAULT_PROBE_COUNT,
                             seed: int | tuple[int, ...] = 0) -> Topology:
    """The topology as the routing control plane believes it to be.

    Args:
        topology: ground-truth data-frame delivery probabilities.
        optimism_exponent: exponent applied to the true probability to model
            probes seeing a lower error rate than data frames (1.0 = probes
            behave exactly like data frames, i.e. a perfectly informed
            control plane).
        probe_count: probes per link in the measurement window; 0 disables
            sampling noise.
        seed: RNG seed for the sampling noise.

    Returns:
        A :class:`Topology` with the estimated delivery probabilities.  With
        ``probe_count == 0`` nothing is drawn, the view is the same for
        every seed, and it is derived once per ``topology``
        (:meth:`Topology.derived`): every such call returns the same
        object, so the plans derived from it are shared too.  To edit it,
        build a new :class:`Topology` from its ``delivery_matrix()``.  A
        sampled view (``probe_count > 0``) is a new object every call.
    """
    if not 0.0 < optimism_exponent <= 1.0:
        raise ValueError("optimism_exponent must lie in (0, 1]")
    if probe_count < 0:
        raise ValueError("probe_count must be non-negative")
    if probe_count == 0:
        return topology.derived(("control_view", optimism_exponent),
                                lambda: _estimate(topology, optimism_exponent, 0, seed))
    return _estimate(topology, optimism_exponent, probe_count, seed)


def _estimate(topology: Topology, optimism_exponent: float, probe_count: int,
              seed: int | tuple[int, ...]) -> Topology:
    # One N×N array and no temporary of that size: a zero link stays zero
    # under the positive exponent, and a link stays non-zero.
    estimated = topology.delivery_view() ** optimism_exponent
    if probe_count > 0:
        # Only the links that exist are probed; a zero link takes no
        # randomness (binomial draws nothing at p = 0), so the stream is
        # that of probing the whole matrix in row-major order.
        links = estimated > 0.0
        rng = np.random.default_rng(seed)
        estimated[links] = rng.binomial(probe_count, estimated[links]) / probe_count
    # Carry positions iff every node has one (an explicit all-nodes check:
    # truthiness of node 0's position alone silently dropped coordinates,
    # which the mobility layer depends on surviving estimation).
    positions = topology.node_positions()
    names = [node.name for node in topology.nodes]
    return Topology.from_owned(estimated, positions=positions, names=names)


def perfect_estimates(topology: Topology) -> Topology:
    """A control-plane view identical to the ground truth (ablation baseline)."""
    return probe_estimated_topology(topology, optimism_exponent=1.0, probe_count=0)
