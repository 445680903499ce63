"""Pluggable channel models: where per-frame delivery probabilities come from.

The paper's evaluation rests on realistic link behaviour: lossy, bursty,
time-varying Roofnet-style links are exactly what gives opportunistic
routing its edge over best-path routing.  This module trades the medium's
original hard-coded static Bernoulli links for a :class:`ChannelModel`
interface the :class:`~repro.sim.medium.WirelessMedium` queries once per
completed frame:

* :class:`StaticBernoulli` — the topology's link deliveries, unchanged in
  time (the paper's model, Sections 3.2.1 and 5.3.1; bit-identical to the
  pre-refactor behaviour).
* :class:`GilbertElliott` — two-state bursty loss per directed link: a
  continuous-time good/bad Markov chain scales the nominal delivery
  probability, producing the correlated loss bursts measured on real
  802.11 meshes.

A :class:`ChannelSpec` is the declarative form (``kind`` + ``params``)
that rides inside :class:`~repro.scenarios.spec.ScenarioSpec` JSON, the
``repro run/sweep --channel`` CLI flag and sweepable ``channel.*`` axes;
:func:`build_channel_model` turns it into a live model.

Determinism: Gilbert-Elliott derives its randomness from the cell seed
mixed with a private stream key, via *counter-based* draws (SplitMix64
over ``(seed, link, draw-index)``), so channel randomness never perturbs
the simulator's main generator (a static-channel run is bit-identical with
or without the subsystem) and a fixed seed replays the exact same channel
realisation regardless of how the medium's queries interleave.
Back-to-back protocol runs at one seed therefore compare against the
*same* channel trajectory, exactly like the paper's back-to-back testbed
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import SectionSpec, build_model
from repro.rng import counter_uniform
from repro.topology.graph import LinkTable, LinkView, link_table_of

#: Stream key mixed with the cell seed so channel randomness is independent
#: of (and cannot perturb) the simulator's main RNG stream.
_CHANNEL_STREAM = 0xC8A77E1


@dataclass
class ChannelSpec(SectionSpec):
    """Declarative channel-model description: ``kind`` plus its parameters.

    ``params`` are keyword arguments of the model named by ``kind`` (see
    :data:`CHANNEL_MODELS`); an optional ``seed`` param pins the channel
    RNG stream independently of the cell seed.
    """

    label = "channel"
    kind: str = "static"


class ChannelModel:
    """Per-frame delivery probabilities for the broadcast medium.

    Subclasses implement :meth:`delivery_row`, the probability that one
    frame on the air during ``[start, end)`` is decoded by each node.  The
    medium calls :meth:`bind` once with the topology before any query.

    ``mean_view`` is the long-run average delivery of every link; the
    medium derives carrier-sense audibility and interference levels from
    it (sense range tracks average signal energy, not the instantaneous
    fade).
    """

    kind = "static"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._links: LinkView | None = None

    def bind(self, topology: LinkView) -> None:
        """Attach the model to a topology; called by the medium once.

        The nominal links are the topology's own, held rather than
        copied: a topology's links are read-only from construction, so
        they cannot change under a live medium.
        """
        self._links = topology
        self._prepare()

    def _prepare(self) -> None:
        """Subclass hook: build per-link state after ``bind``."""

    def update_base(self, delivery: np.ndarray) -> None:
        """Adopt a new nominal matrix mid-run (dynamic-topology hook).

        The medium calls this at every mobility epoch boundary with the
        epoch's effective delivery matrix; the model keeps its links.  Any
        per-link channel state (e.g. Gilbert-Elliott chains) keeps running
        across the update — churn in nominal quality composes with
        burstiness.
        """
        self._links = LinkView(self._bound().nodes,
                               link_table_of(np.asarray(delivery, dtype=float)))

    def _bound(self) -> LinkView:
        """The nominal links (after :meth:`bind`)."""
        assert self._links is not None, "bind() must be called first"
        return self._links

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        """Delivery probabilities from ``sender`` to every node for one frame.

        ``start``/``end`` are the frame's time on the air; time-varying
        models evaluate their state at ``start`` (the channel as the frame
        found it).  The returned array must not be mutated by the caller.
        """
        raise NotImplementedError

    def mean_view(self) -> LinkView:
        """Long-run average delivery of every link (sense / interference levels).

        The nominal links themselves where that is the mean.
        """
        return self._bound()


class StaticBernoulli(ChannelModel):
    """The paper's model: one static Bernoulli delivery per link.

    Bit-identical to the pre-refactor medium — the delivery row is the
    topology's links out of the sender and no channel randomness exists
    at all.  The medium reads the links through :meth:`mean_view`; a row
    is built only on request.
    """

    kind = "static"

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        return self._bound().link_table().row(sender)


class GilbertElliott(ChannelModel):
    """Two-state bursty loss per directed link (Gilbert-Elliott).

    Every directed link runs an independent continuous-time Markov chain
    over {good, bad} with exponentially distributed holding times.  The
    instantaneous delivery probability is the nominal (topology) value in
    the good state and that value scaled by ``bad_scale`` in the bad one,
    so loss arrives in bursts
    whose lengths match ``mean_bad_time`` — the correlated-loss structure
    ExOR/MORE measurements report — while the long-run average stays near
    the nominal matrix.

    The k-th holding time of each link comes from a counter-based uniform
    (:func:`repro.rng.counter_uniform` of ``(seed, link, k)``), so every
    link's whole trajectory is a pure function of the seed: the state at time ``t``
    never depends on how often — or in what interleaving with other
    senders' rows — the model was queried, which keeps back-to-back
    protocol runs at the same seed on the *same* channel realisation.

    Args:
        bad_scale: delivery multiplier in the bad state (default 0.2).
        mean_good_time: mean sojourn in the good state, seconds.
        mean_bad_time: mean sojourn in the bad state, seconds.
        seed: channel RNG stream seed (defaults to the cell seed).
    """

    kind = "gilbert_elliott"

    def __init__(self, seed: int = 0, bad_scale: float = 0.2,
                 mean_good_time: float = 1.0, mean_bad_time: float = 0.1) -> None:
        super().__init__(seed)
        # An infinite sojourn has no stationary mix (inf / inf is NaN).
        if not (0 < mean_good_time < np.inf and 0 < mean_bad_time < np.inf):
            raise ValueError("state sojourn times must be positive and finite")
        if not (0.0 <= bad_scale <= 1.0):
            # A multiplier above one would push a delivery probability past 1.
            raise ValueError("need 0 <= bad_scale <= 1")
        self.bad_scale = float(bad_scale)
        self.mean_good_time = float(mean_good_time)
        self.mean_bad_time = float(mean_bad_time)

    def _uniform(self, links: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Counter-based uniforms in (0, 1] for the given (link, draw) pairs."""
        # Shifted to (0, 1]: never 0, so log() below stays finite.
        return counter_uniform(self.seed, _CHANNEL_STREAM, links, draws) + 2.0 ** -54

    def _prepare(self) -> None:
        # The chains are per directed pair, so a bursty channel is dense:
        # only a run that asks for one pays for the matrix.
        self._base = self._bound().delivery_matrix()
        count = self._base.shape[0]
        grid_i, grid_j = np.meshgrid(np.arange(count), np.arange(count),
                                     indexing="ij")
        self._link_ids = (grid_i * count + grid_j).astype(np.uint64)
        self._draws = np.zeros((count, count), dtype=np.uint64)
        # Stationary initial state: P(good) = Tg / (Tg + Tb) per link
        # (draw 0 of every link decides it).
        p_good = self.mean_good_time / (self.mean_good_time + self.mean_bad_time)
        self._good = self._uniform(self._link_ids, self._draws) < p_good
        self._draws += 1
        holding = np.where(self._good, self.mean_good_time, self.mean_bad_time)
        self._next_flip = -holding * np.log(
            self._uniform(self._link_ids, self._draws))
        self._draws += 1

    def _advance_row(self, sender: int, now: float) -> None:
        """Advance the chains of ``sender``'s outgoing links to time ``now``.

        Flip by flip, vectorised over the links that lag; each flip's
        holding time is indexed by the link's own draw counter, so the
        result depends only on (seed, now).
        """
        state = self._good[sender]
        flips = self._next_flip[sender]
        draws = self._draws[sender]
        links = self._link_ids[sender]
        lagging = np.nonzero(flips <= now)[0]
        while lagging.size:
            state[lagging] = ~state[lagging]
            holding = np.where(state[lagging], self.mean_good_time,
                               self.mean_bad_time)
            flips[lagging] += -holding * np.log(
                self._uniform(links[lagging], draws[lagging]))
            draws[lagging] += 1
            lagging = lagging[flips[lagging] <= now]

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        self._advance_row(sender, start)
        scale = np.where(self._good[sender], 1.0, self.bad_scale)
        return np.clip(self._base[sender] * scale, 0.0, 1.0)

    def update_base(self, delivery: np.ndarray) -> None:
        super().update_base(delivery)
        self._base = np.asarray(delivery, dtype=float)

    def mean_view(self) -> LinkView:
        """Stationary-average delivery: nominal scaled by the state mix.

        Each link spends ``Tg/(Tg+Tb)`` of its time good (at the nominal
        value), the rest bad, so the long-run mean the medium's
        sense/interference levels should track is the nominal delivery
        scaled accordingly, link by link.
        """
        total = self.mean_good_time + self.mean_bad_time
        scale = (self.mean_good_time
                 + self.mean_bad_time * self.bad_scale) / total
        links = self._bound()
        table = links.link_table()
        return LinkView(links.nodes, LinkTable(table.indptr, table.receivers,
                                               np.clip(table.delivery * scale, 0.0, 1.0)))


#: Channel models addressable from a :class:`ChannelSpec`.
CHANNEL_MODELS: dict[str, type[ChannelModel]] = {
    StaticBernoulli.kind: StaticBernoulli,
    GilbertElliott.kind: GilbertElliott,
}


def build_channel_model(spec: ChannelSpec | None, seed: int = 0) -> ChannelModel:
    """Instantiate the model a spec describes (``None`` means static); see
    :func:`repro.params.build_model` for the seeding convention."""
    # Every channel kind is a model: the registry is also the list of kinds.
    return (build_model("channel", spec, CHANNEL_MODELS, CHANNEL_MODELS, seed)
            or StaticBernoulli())
