"""Deterministic mobility and link-churn processes (dynamic topologies).

Everything in the paper's evaluation is frozen at t=0: the link deliveries
never drift, so forwarder plans computed once can never go stale.  The
paper's own argument — MORE's stateless random coding tolerates imprecise,
*stale* link state better than ExOR's rigid schedule — is only testable when
the topology actually changes under the protocols.  This module provides the
dynamics:

* :class:`RandomWaypoint` — each node repeatedly picks a uniform target in
  the arena, travels to it at a uniform-random speed, and repeats (the
  classic MANET mobility model).
* :class:`MarkovLinkChurn` — position-free link flapping: every link runs a
  two-state up/down Markov chain on the epoch grid; down links have their
  delivery scaled by ``down_scale``.  This is the model for topologies
  without coordinates (chains, diamonds, random meshes).

Realisations are sampled on a configurable **epoch grid**
(``epoch_length`` seconds per epoch) and are a *pure function of
``(seed, epoch)``*, exactly like the channel models: waypoint legs are
drawn from ``default_rng((seed, stream, node, leg))`` and churn flips from
a counter-based SplitMix64 over ``(seed, link, epoch)``.  No draw ever
touches the simulator's main generator, and querying epochs in any order
replays the identical trajectory — which is what keeps back-to-back
protocol runs at one seed on the *same* dynamic topology and parallel
sweep cells bit-identical to serial ones.

Every epoch is a :class:`~repro.topology.graph.Topology`
(:meth:`MobilityModel.topology_at`): the links delivering in it and the
node positions, O(links) like the static mesh it started from, and the
one view of the epoch the medium resolves frames against and the refresh
loop probes.  A model keeps the current epoch only.
:class:`RandomWaypoint` derives the links row by row from the node
coordinates through the *same* propagation formula the static generators
use (:func:`repro.topology.generator.path_loss_margin_db` +
:func:`~repro.topology.generator.margin_to_delivery`, no shadowing), so a
mesh that stops moving stops changing.  :class:`MarkovLinkChurn` instead
scales the topology's nominal links, one chain per linked pair, leaving
positions untouched.

A :class:`MobilitySpec` is the declarative form (``kind`` + ``params``)
that rides inside :class:`~repro.scenarios.spec.ScenarioSpec` JSON and the
``repro run/sweep --mobility`` CLI flag; :func:`build_mobility_model`
turns it into a live process (``None`` for a static scenario).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.params import SectionSpec, build_model
from repro.rng import counter_uniform
from repro.topology.generator import margin_to_delivery, path_loss_margin_db
from repro.topology.graph import LinkTable, LinkView, Topology

#: Stream key mixed with the cell seed so mobility randomness is independent
#: of (and cannot perturb) both the simulator's main RNG stream and the
#: channel-model streams.
_MOBILITY_STREAM = 0x0B171E5

#: Node pairs a :class:`RandomWaypoint` epoch evaluates per numpy pass.
_BLOCK_PAIRS = 1 << 14


@dataclass
class MobilitySpec(SectionSpec):
    """Declarative mobility description: ``kind`` plus its parameters.

    ``params`` are keyword arguments of the model named by ``kind`` (see
    :data:`MOBILITY_MODELS`); an optional ``seed`` param pins the mobility
    RNG stream independently of the cell seed.  ``kind="none"`` is a
    static scenario (today's behaviour, bit for bit).
    """

    label = "mobility"
    kind: str = "none"


class MobilityModel:
    """A time-varying topology realisation sampled on an epoch grid.

    Subclasses implement :meth:`_realise`, a pure function of
    ``(seed, epoch)``.  The medium calls :meth:`bind` once before any query
    and then advances epoch by epoch as simulated time passes.
    """

    kind = "none"

    def __init__(self, seed: int = 0, epoch_length: float = 1.0) -> None:
        if not 0 < epoch_length < np.inf:
            raise ValueError("epoch_length must be positive and finite")
        self.seed = int(seed)
        self.epoch_length = float(epoch_length)

    def bind(self, topology: LinkView) -> None:
        """Attach the process to a topology; called by the medium once."""
        self._names = [node.name for node in topology.nodes]
        self._epoch = -1
        self._view: Topology | None = None
        self._prepare(topology)

    def _prepare(self, topology: LinkView) -> None:
        """Subclass hook: build per-node/per-link state on ``bind``."""
        raise NotImplementedError

    def epoch_of(self, now: float) -> int:
        """The epoch-grid index containing simulated time ``now``."""
        return max(0, int(now / self.epoch_length))

    def topology_at(self, epoch: int) -> Topology:
        """The mesh at ``epoch``: the links that deliver in it and the node
        positions, under the bound mesh's names.  Built once and kept until
        another epoch is asked for."""
        view = self._view
        if view is None or epoch != self._epoch:
            view = self._view = Topology.from_links(*self._realise(epoch), self._names)
            self._epoch = epoch
        return view

    def _realise(self, epoch: int) -> tuple[LinkTable, list[tuple[float, ...]] | None]:
        """Subclass hook: the links and node positions of :meth:`topology_at`."""
        raise NotImplementedError


class RandomWaypoint(MobilityModel):
    """The classic random-waypoint model on the epoch grid.

    Each node's trajectory is a sequence of *legs*: pick a uniform target
    in the arena, travel there at a speed uniform in
    ``[speed_min, speed_max]``, repeat.  Leg k of node i is drawn from
    ``default_rng((seed, stream, i, k))``, so the whole trajectory — and
    hence every epoch realisation — is a pure function of the seed.

    The arena is ``[x0, x1] x [y0, y1]``: the initial positions' bounding
    box unless ``area`` pins a ``[0, area]`` square.  Motion is 2-D; any z
    coordinate (building floor) is frozen.  Each epoch's links come from
    the shared log-distance propagation formula evaluated at the epoch's
    coordinates.

    Args:
        epoch_length: seconds per epoch-grid step.
        speed_min / speed_max: node speed range in m/s.
        area: side of a ``[0, area]`` square arena (default: the initial
            positions' bounding box).
        seed: mobility RNG stream seed (defaults to the cell seed).
    """

    kind = "random_waypoint"

    def __init__(self, seed: int = 0, epoch_length: float = 1.0,
                 speed_min: float = 0.5, speed_max: float = 2.0,
                 area: float | None = None) -> None:
        super().__init__(seed, epoch_length)
        if area is not None and not 0 < area < np.inf:
            raise ValueError("area must be positive and finite")
        if not 0 < speed_min <= speed_max < np.inf:
            raise ValueError("need 0 < speed_min <= speed_max < inf")
        self.area = None if area is None else float(area)
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)

    def _prepare(self, topology: LinkView) -> None:
        positions = topology.node_positions()
        if positions is None:
            raise ValueError(
                f"{self.kind} mobility needs node coordinates; this topology "
                "has none (use a grid / indoor_testbed / random_geometric "
                "topology, or the position-free link_churn model)")
        coords = self._coords = np.zeros((len(positions), 3))
        for index, position in enumerate(positions):
            coords[index, :min(len(position), 3)] = position[:3]
        if self.area is not None:
            low = np.zeros(2)
            high = np.full(2, self.area)
        else:
            low = coords[:, :2].min(axis=0)
            high = coords[:, :2].max(axis=0)
            span = np.maximum(high - low, 1.0)
            low, high = low - 0.05 * span, high + 0.05 * span
        self._low, self._high = low, high
        count = coords.shape[0]
        # Per-node leg lists: (p0, p1, travel_time) plus the cumulative
        # end-of-leg times, extended lazily.
        self._legs: list[list[tuple[np.ndarray, np.ndarray, float]]] = \
            [[] for _ in range(count)]
        self._leg_ends: list[list[float]] = [[] for _ in range(count)]

    def _extend_legs(self, node: int, until: float) -> None:
        legs = self._legs[node]
        ends = self._leg_ends[node]
        while not ends or ends[-1] <= until:
            index = len(legs)
            start = legs[-1][1] if legs else self._coords[node, :2]
            rng = np.random.default_rng((self.seed, _MOBILITY_STREAM, node, index))
            target = rng.uniform(self._low, self._high)
            speed = rng.uniform(self.speed_min, self.speed_max)
            travel = float(np.linalg.norm(target - start)) / speed
            legs.append((start, target, travel))
            ends.append((ends[-1] if ends else 0.0) + travel)

    def _node_position(self, node: int, t: float) -> np.ndarray:
        self._extend_legs(node, t)
        ends = self._leg_ends[node]
        index = bisect_right(ends, t)
        start, target, travel = self._legs[node][index]
        leg_start = ends[index - 1] if index else 0.0
        elapsed = t - leg_start
        if travel <= 0.0 or elapsed >= travel:
            return target
        return start + (target - start) * (elapsed / travel)

    def _realise(self, epoch: int) -> tuple[LinkTable, list[tuple[float, ...]]]:
        t = epoch * self.epoch_length
        coords = self._coords.copy()
        for node in range(coords.shape[0]):
            coords[node, :2] = self._node_position(node, t)
        # A block of rows per pass: few numpy calls per epoch, and the
        # temporaries stay about _BLOCK_PAIRS long, far from N×N.
        count = coords.shape[0]
        step = max(1, _BLOCK_PAIRS // count)
        x, y, z = np.array(coords.T)
        receivers: list[np.ndarray] = []
        delivery: list[np.ndarray] = []
        indptr = np.zeros(count + 1, dtype=np.intp)
        for first in range(0, count, step):
            senders = np.arange(first, min(first + step, count))
            near = senders[:, None]
            # Summed left to right, as ``(deltas ** 2).sum(axis=-1)`` sums:
            # the same bits as the dense form.
            squared = (x[near] - x) ** 2 + (y[near] - y) ** 2 + (z[near] - z) ** 2
            block = margin_to_delivery(path_loss_margin_db(np.sqrt(squared)))
            block[senders - first, senders] = 0.0
            rows, linked = np.nonzero(block)
            indptr[senders + 1] = np.bincount(rows, minlength=senders.size)
            receivers.append(linked)
            delivery.append(block[rows, linked])
        np.cumsum(indptr, out=indptr)
        table = LinkTable(indptr, np.concatenate(receivers), np.concatenate(delivery))
        return table, list(map(tuple, coords.tolist()))


class MarkovLinkChurn(MobilityModel):
    """Position-free link flapping: per-link up/down chains on the epoch grid.

    Every link of the topology runs a two-state Markov chain sampled once
    per epoch; the per-epoch transition probabilities are the CTMC exposure
    ``1 - exp(-epoch_length / mean_time)``.  A down link's delivery is the
    nominal (topology) value scaled by ``down_scale``.  Epoch 0 draws each
    link's state from the stationary mix, and the flip draw of
    ``(link, epoch)`` is a counter-based SplitMix64 uniform, so the whole
    realisation is a pure function of the seed regardless of query order.

    Args:
        epoch_length: seconds per epoch-grid step.
        mean_up_time: mean sojourn in the up state, seconds.
        mean_down_time: mean sojourn in the down state, seconds.
        down_scale: delivery multiplier while a link is down (0 = outage).
        seed: mobility RNG stream seed (defaults to the cell seed).

    Both directions of a link churn together, as physical obstructions do.
    """

    kind = "link_churn"

    def __init__(self, seed: int = 0, epoch_length: float = 1.0,
                 mean_up_time: float = 5.0, mean_down_time: float = 1.0,
                 down_scale: float = 0.0) -> None:
        super().__init__(seed, epoch_length)
        # An infinite sojourn has no stationary mix (inf / inf is NaN).
        if not (0 < mean_up_time < np.inf and 0 < mean_down_time < np.inf):
            raise ValueError("state sojourn times must be positive and finite")
        if not 0.0 <= down_scale <= 1.0:
            raise ValueError("down_scale must lie in [0, 1]")
        self.mean_up_time = float(mean_up_time)
        self.mean_down_time = float(mean_down_time)
        self.down_scale = float(down_scale)

    def _uniform(self, epoch: int) -> np.ndarray:
        """Counter-based uniforms in [0, 1) for every link at one epoch."""
        return counter_uniform(self.seed, _MOBILITY_STREAM, self._pair_ids, epoch)

    def _prepare(self, topology: LinkView) -> None:
        self._positions = topology.node_positions()
        table = self._nominal = topology.link_table()
        senders, receivers = table.senders(), table.receivers
        # Both directions of a pair share one chain (one pair id).
        self._pair_ids = (np.minimum(senders, receivers) * (table.indptr.size - 1)
                          + np.maximum(senders, receivers)).astype(np.uint64)
        total = self.mean_up_time + self.mean_down_time
        self._p_up_stationary = self.mean_up_time / total
        self._p_drop = 1.0 - float(np.exp(-self.epoch_length / self.mean_up_time))
        self._p_recover = 1.0 - float(np.exp(-self.epoch_length
                                             / self.mean_down_time))
        self._state_epoch = -1
        self._up: np.ndarray | None = None

    def _advance_to(self, epoch: int) -> np.ndarray:
        if epoch < self._state_epoch:
            # Rare backwards query (e.g. a fresh reader): replay from 0.
            self._state_epoch = -1
        up = self._up
        if self._state_epoch < 0 or up is None:
            up = self._uniform(0) < self._p_up_stationary
            self._state_epoch = 0
        while self._state_epoch < epoch:
            next_epoch = self._state_epoch + 1
            draw = self._uniform(next_epoch)
            flip = np.where(up, draw < self._p_drop, draw < self._p_recover)
            up = up ^ flip
            self._state_epoch = next_epoch
        self._up = up
        return up

    def _realise(self, epoch: int) -> tuple[LinkTable, list[tuple[float, ...]] | None]:
        nominal = self._nominal
        delivery = nominal.delivery * np.where(self._advance_to(epoch), 1.0, self.down_scale)
        kept = np.flatnonzero(delivery)
        # Churn never moves nodes: the epoch keeps the mesh's positions.
        return LinkTable(np.searchsorted(kept, nominal.indptr), nominal.receivers[kept],
                         delivery[kept]), self._positions


#: Mobility models addressable from a :class:`MobilitySpec`.
MOBILITY_MODELS: dict[str, type[MobilityModel]] = {
    RandomWaypoint.kind: RandomWaypoint,
    MarkovLinkChurn.kind: MarkovLinkChurn,
}

#: Spec kinds accepted by :func:`build_mobility_model` (``none`` = static).
MOBILITY_KINDS = ("none",) + tuple(sorted(MOBILITY_MODELS))


def build_mobility_model(spec: MobilitySpec | None,
                         seed: int = 0) -> MobilityModel | None:
    """Instantiate the process a spec describes (``None``/static = no motion);
    see :func:`repro.params.build_model` for the seeding convention."""
    return build_model("mobility", spec, MOBILITY_MODELS, MOBILITY_KINDS, seed)
