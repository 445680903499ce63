"""Deterministic mobility and link-churn processes (dynamic topologies).

Everything in the paper's evaluation is frozen at t=0: the delivery matrix
never drifts, so forwarder plans computed once can never go stale.  The
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

:class:`RandomWaypoint` derives each epoch's delivery matrix from the node
coordinates through the *same* propagation formula the static generators
use (:func:`repro.topology.generator.path_loss_margin_db` +
:func:`~repro.topology.generator.margin_to_delivery`, no shadowing), so a
mesh that stops moving stops changing.  :class:`MarkovLinkChurn` instead
scales the topology's nominal matrix, leaving positions untouched.

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
from repro.rng import splitmix64 as _splitmix64
from repro.topology.generator import margin_to_delivery, path_loss_margin_db
from repro.topology.graph import Topology

#: Stream key mixed with the cell seed so mobility randomness is independent
#: of (and cannot perturb) both the simulator's main RNG stream and the
#: channel-model streams.
_MOBILITY_STREAM = 0x0B171E5


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

    Subclasses implement :meth:`positions_at` (``None`` for position-free
    models) and :meth:`delivery_at`; both must be pure functions of
    ``(seed, epoch)``.  The medium calls :meth:`bind` once before any query
    and then advances epoch by epoch as simulated time passes.
    """

    kind = "none"

    def __init__(self, seed: int = 0, epoch_length: float = 1.0) -> None:
        if not epoch_length > 0:
            raise ValueError("epoch_length must be positive")
        self.seed = int(seed)
        self.epoch_length = float(epoch_length)
        self._base: np.ndarray | None = None
        self._coords0: np.ndarray | None = None

    def bind(self, topology: Topology) -> None:
        """Attach the process to a topology; called by the medium once."""
        self._base = topology.delivery_view()
        positions = topology.node_positions()
        self._coords0 = None
        if positions is not None:
            coords = np.zeros((len(positions), 3))
            for index, position in enumerate(positions):
                coords[index, :min(len(position), 3)] = position[:3]
            self._coords0 = coords
        self._prepare()

    def _prepare(self) -> None:
        """Subclass hook: build per-node/per-link state after ``bind``."""

    def epoch_of(self, now: float) -> int:
        """The epoch-grid index containing simulated time ``now``."""
        return max(0, int(now / self.epoch_length))

    def positions_at(self, epoch: int) -> np.ndarray | None:
        """Node coordinates at ``epoch`` (``(n, 3)``), or ``None`` if the
        model does not move nodes.  Must not be mutated by the caller."""
        raise NotImplementedError

    def delivery_at(self, epoch: int) -> np.ndarray:
        """The effective delivery matrix at ``epoch`` (not to be mutated)."""
        raise NotImplementedError

    def _bound_base(self) -> np.ndarray:
        """The bound topology's nominal delivery matrix (after :meth:`bind`)."""
        base = self._base
        assert base is not None, "mobility model queried before bind()"
        return base


class RandomWaypoint(MobilityModel):
    """The classic random-waypoint model on the epoch grid.

    Each node's trajectory is a sequence of *legs*: pick a uniform target
    in the arena, travel there at a speed uniform in
    ``[speed_min, speed_max]``, repeat.  Leg k of node i is drawn from
    ``default_rng((seed, stream, i, k))``, so the whole trajectory — and
    hence every epoch realisation — is a pure function of the seed.

    The arena is ``[x0, x1] x [y0, y1]``: the initial positions' bounding
    box unless ``area`` pins a ``[0, area]`` square.  Motion is 2-D; any z
    coordinate (building floor) is frozen.  Each epoch's delivery matrix
    comes from the shared log-distance propagation formula evaluated at the
    epoch's coordinates.

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
        if area is not None and not area > 0:
            raise ValueError("area must be positive")
        if not 0 < speed_min <= speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        self.area = None if area is None else float(area)
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self._delivery_epoch = -1
        self._delivery: np.ndarray | None = None

    def _prepare(self) -> None:
        if self._coords0 is None:
            raise ValueError(
                f"{self.kind} mobility needs node coordinates; this topology "
                "has none (use a grid / indoor_testbed / random_geometric "
                "topology, or the position-free link_churn model)")
        if self.area is not None:
            low = np.zeros(2)
            high = np.full(2, self.area)
        else:
            low = self._coords0[:, :2].min(axis=0)
            high = self._coords0[:, :2].max(axis=0)
            span = np.maximum(high - low, 1.0)
            low, high = low - 0.05 * span, high + 0.05 * span
        self._low, self._high = low, high
        self._delivery_epoch = -1
        self._delivery = None
        count = self._coords.shape[0]
        # Per-node leg lists: (p0, p1, travel_time) plus the cumulative
        # end-of-leg times, extended lazily.
        self._legs: list[list[tuple[np.ndarray, np.ndarray, float]]] = \
            [[] for _ in range(count)]
        self._leg_ends: list[list[float]] = [[] for _ in range(count)]
        self._positions_cache: dict[int, np.ndarray] = {}

    @property
    def _coords(self) -> np.ndarray:
        """The bound initial coordinates (:meth:`_prepare` guarantees them)."""
        coords = self._coords0
        assert coords is not None, "random_waypoint used before bind()"
        return coords

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

    def positions_at(self, epoch: int) -> np.ndarray:
        cached = self._positions_cache.get(epoch)
        if cached is None:
            t = epoch * self.epoch_length
            coords = self._coords.copy()
            for node in range(coords.shape[0]):
                coords[node, :2] = self._node_position(node, t)
            cached = self._positions_cache[epoch] = coords
        return cached

    def delivery_at(self, epoch: int) -> np.ndarray:
        delivery = self._delivery
        if delivery is None or epoch != self._delivery_epoch:
            coords = self.positions_at(epoch)
            deltas = coords[:, None, :] - coords[None, :, :]
            distance = np.sqrt((deltas ** 2).sum(axis=2))
            delivery = margin_to_delivery(path_loss_margin_db(distance))
            np.fill_diagonal(delivery, 0.0)
            self._delivery = delivery
            self._delivery_epoch = epoch
        return delivery


class MarkovLinkChurn(MobilityModel):
    """Position-free link flapping: per-link up/down chains on the epoch grid.

    Every directed link runs a two-state Markov chain sampled once per
    epoch; the per-epoch transition probabilities are the CTMC exposure
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
        if not (mean_up_time > 0 and mean_down_time > 0):
            raise ValueError("state sojourn times must be positive")
        if not 0.0 <= down_scale <= 1.0:
            raise ValueError("down_scale must lie in [0, 1]")
        self.mean_up_time = float(mean_up_time)
        self.mean_down_time = float(mean_down_time)
        self.down_scale = float(down_scale)

    def _uniform(self, epoch: int) -> np.ndarray:
        """Counter-based uniforms in [0, 1) for every link at one epoch."""
        key = np.uint64(((self.seed ^ _MOBILITY_STREAM) * 0x9E3779B97F4A7C15)
                        & 0xFFFFFFFFFFFFFFFF)
        mixed = _splitmix64(_splitmix64(self._link_ids + key)
                            + np.uint64(epoch))
        return (mixed >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def _prepare(self) -> None:
        count = self._bound_base().shape[0]
        grid_i, grid_j = np.meshgrid(np.arange(count), np.arange(count),
                                     indexing="ij")
        # Both directions of a pair share one chain (one link id).
        pair_lo = np.minimum(grid_i, grid_j)
        pair_hi = np.maximum(grid_i, grid_j)
        self._link_ids = (pair_lo * count + pair_hi).astype(np.uint64)
        total = self.mean_up_time + self.mean_down_time
        self._p_up_stationary = self.mean_up_time / total
        self._p_drop = 1.0 - float(np.exp(-self.epoch_length / self.mean_up_time))
        self._p_recover = 1.0 - float(np.exp(-self.epoch_length
                                             / self.mean_down_time))
        self._state_epoch = -1
        self._up: np.ndarray | None = None
        self._delivery: np.ndarray | None = None
        self._delivery_epoch = -1

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

    def up_mask(self, epoch: int) -> np.ndarray:
        """Boolean matrix of links that are up at ``epoch``."""
        return self._advance_to(epoch).copy()

    def positions_at(self, epoch: int) -> np.ndarray | None:
        return None  # churn never moves nodes

    def delivery_at(self, epoch: int) -> np.ndarray:
        delivery = self._delivery
        if delivery is None or epoch != self._delivery_epoch:
            up = self._advance_to(epoch)
            scale = np.where(up, 1.0, self.down_scale)
            delivery = self._bound_base() * scale
            self._delivery = delivery
            self._delivery_epoch = epoch
        return delivery


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
