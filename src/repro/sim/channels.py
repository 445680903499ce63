"""Pluggable channel models: where per-frame delivery probabilities come from.

The paper's evaluation rests on realistic link behaviour: lossy, bursty,
time-varying Roofnet-style links are exactly what gives opportunistic
routing its edge over best-path routing.  A channel is one of
:data:`CHANNEL_KINDS`:

* ``static`` — the paper's model (Sections 3.2.1 and 5.3.1): one Bernoulli
  delivery per link, the mesh's own, unchanged in time.  It is no model:
  the :class:`~repro.sim.medium.WirelessMedium` reads the links it
  resolves against directly.
* :class:`GilbertElliott` — two-state bursty loss per directed link: a
  continuous-time good/bad Markov chain scales the nominal delivery
  probability, producing the correlated loss bursts measured on real
  802.11 meshes.  The medium queries it once per completed frame.

A model is O(links) like its topology: a frame's delivery is one entry per
link of the sender, and Gilbert-Elliott runs one chain per nominal link.

A :class:`ChannelSpec` is the declarative form (``kind`` + ``params``)
that rides inside :class:`~repro.scenarios.spec.ScenarioSpec` JSON, the
``repro run/sweep --channel`` CLI flag and sweepable ``channel.*`` axes;
:func:`build_channel_model` turns it into a live model (``None`` for
``static``).

Determinism: Gilbert-Elliott derives its randomness from the cell seed
mixed with a private stream key, via *counter-based* draws (SplitMix64
over ``(seed, link, draw-index)``), so channel randomness never perturbs
the simulator's main generator and a fixed seed replays the exact same
channel realisation regardless of how the medium's queries interleave.
Back-to-back protocol runs at one seed therefore compare against the
*same* channel trajectory, exactly like the paper's back-to-back testbed
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import SectionSpec, build_model
from repro.rng import counter_uniform
from repro.topology.graph import LinkTable, LinkView

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
    frame on the air during ``[start, end)`` is decoded across each of its
    sender's links.  The medium calls :meth:`bind` with its links before
    any query, and again whenever they change (a mobility epoch).

    ``mean_view`` is the long-run average delivery of every link; the
    medium derives carrier-sense audibility and interference levels from
    it (sense range tracks average signal energy, not the instantaneous
    fade).
    """

    kind = "static"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._links: LinkView | None = None

    def bind(self, links: LinkView) -> None:
        """Adopt ``links`` as the nominal links: at set-up and at each epoch.

        The links are held rather than copied: a view's links are
        read-only from construction, so they cannot change under a live
        medium.  Per-link channel state (Gilbert-Elliott chains) keeps
        running across a re-bind on every link the two views share — churn
        in nominal quality composes with burstiness.
        """
        self._links = links
        self._prepare()

    def _prepare(self) -> None:
        """Subclass hook: fit per-link state to the links, on every :meth:`bind`."""

    def _bound(self) -> LinkView:
        """The nominal links (after :meth:`bind`)."""
        assert self._links is not None, "bind() must be called first"
        return self._links

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        """Delivery probabilities of ``sender``'s links (its row in
        :meth:`mean_view`, in order) for one frame.

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


class GilbertElliott(ChannelModel):
    """Two-state bursty loss per directed link (Gilbert-Elliott).

    Every directed link runs an independent continuous-time Markov chain
    over {good, bad} with exponentially distributed holding times.  The
    instantaneous delivery probability is the nominal (topology) value in
    the good state and that value scaled by ``bad_scale`` in the bad one,
    so loss arrives in bursts
    whose lengths match ``mean_bad_time`` — the correlated-loss structure
    ExOR/MORE measurements report — while the long-run average stays near
    the nominal links.

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
        # Per-link chain state, in the nominal table's order: link id, state
        # (True = good), next flip time and draw counter.
        self._ids = np.empty(0, dtype=np.uint64)
        self._good = np.empty(0, dtype=bool)
        self._next_flip = np.empty(0)
        self._draws = np.empty(0, dtype=np.uint64)

    def _uniform(self, links: np.ndarray, draws: np.ndarray | int) -> np.ndarray:
        """Counter-based uniforms in (0, 1] for the given (link, draw) pairs."""
        # Shifted to (0, 1]: never 0, so log() below stays finite.
        return counter_uniform(self.seed, _CHANNEL_STREAM, links, draws) + 2.0 ** -54

    def _prepare(self) -> None:
        """One chain per nominal link, id ``sender * N + receiver``: a link
        the previous links had keeps its chain; a new one starts at draw 0."""
        table = self._bound().link_table()
        ids = (table.senders() * (table.indptr.size - 1) + table.receivers).astype(np.uint64)
        kept = np.isin(ids, self._ids, assume_unique=True)
        at, fresh = np.searchsorted(self._ids, ids[kept]), ids[~kept]
        good, next_flip = np.empty(ids.size, dtype=bool), np.empty(ids.size)
        draws = np.full(ids.size, 2, dtype=np.uint64)
        good[kept], next_flip[kept], draws[kept] = \
            self._good[at], self._next_flip[at], self._draws[at]
        # Stationary initial state: P(good) = Tg / (Tg + Tb) per link
        # (draw 0 of every link decides it, draw 1 its first holding time).
        p_good = self.mean_good_time / (self.mean_good_time + self.mean_bad_time)
        good[~kept] = started = self._uniform(fresh, 0) < p_good
        next_flip[~kept] = -np.where(started, self.mean_good_time,
                                     self.mean_bad_time) * np.log(self._uniform(fresh, 1))
        self._ids, self._good, self._next_flip, self._draws = ids, good, next_flip, draws

    def _advance(self, links: slice, now: float) -> None:
        """Advance the chains of the ``links`` (one sender's row) to time ``now``.

        A lagging chain draws its next ``block`` holding times at once and
        keeps the flips up to ``now``; the block doubles while it lags, so a
        chain started at draw 0 catches up in a few rounds.  Each holding
        time is indexed by the link's own draw counter and the flip times
        are summed in order, so the result depends only on (seed, now).
        """
        state = self._good[links]
        flips = self._next_flip[links]
        draws = self._draws[links]
        ids = self._ids[links]
        lagging = np.nonzero(flips <= now)[0]
        block = 1
        while lagging.size:
            steps = np.arange(block)
            # Flip i of the block leaves the chain good when i is even and
            # it was bad before the block, or i is odd and it was good.
            holding = np.where(state[lagging, None] ^ (steps % 2 == 0),
                               self.mean_good_time, self.mean_bad_time)
            drawn = self._uniform(ids[lagging, None],
                                  draws[lagging, None] + steps.astype(np.uint64))
            times = np.cumsum(np.concatenate((flips[lagging, None], -holding * np.log(drawn)),
                                             axis=1), axis=1)[:, 1:]
            taken = 1 + (times[:, :-1] <= now).sum(axis=1)
            state[lagging] ^= taken % 2 == 1
            flips[lagging] = times[np.arange(lagging.size), taken - 1]
            draws[lagging] += taken.astype(np.uint64)
            lagging = lagging[flips[lagging] <= now]
            block *= 2

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        table = self._bound().link_table()
        links = slice(table.indptr[sender], table.indptr[sender + 1])
        self._advance(links, start)
        scale = np.where(self._good[links], 1.0, self.bad_scale)
        return np.clip(table.delivery[links] * scale, 0.0, 1.0)

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
CHANNEL_MODELS: dict[str, type[ChannelModel]] = {GilbertElliott.kind: GilbertElliott}

#: Spec kinds accepted by :func:`build_channel_model` (``static`` = no model).
CHANNEL_KINDS = ("static",) + tuple(sorted(CHANNEL_MODELS))


def build_channel_model(spec: ChannelSpec | None, seed: int = 0) -> ChannelModel | None:
    """Instantiate the model a spec describes (``None``/static = the mesh's
    own links); see :func:`repro.params.build_model` for the seeding convention."""
    return build_model("channel", spec, CHANNEL_MODELS, CHANNEL_KINDS, seed)
