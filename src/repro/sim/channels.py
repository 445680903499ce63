"""Pluggable channel models: where per-frame delivery probabilities come from.

The paper's evaluation rests on realistic link behaviour: lossy, bursty,
time-varying Roofnet-style links are exactly what gives opportunistic
routing its edge over best-path routing.  This module trades the medium's
original hard-coded static Bernoulli matrix for a :class:`ChannelModel`
interface the :class:`~repro.sim.medium.WirelessMedium` queries once per
completed frame:

* :class:`StaticBernoulli` — the topology's delivery matrix, unchanged in
  time (the paper's model, Sections 3.2.1 and 5.3.1; bit-identical to the
  pre-refactor behaviour).
* :class:`GilbertElliott` — two-state bursty loss per directed link: a
  continuous-time good/bad Markov chain scales the nominal delivery
  probability, producing the correlated loss bursts measured on real
  802.11 meshes.
* :class:`DistanceFading` — log-distance path loss over the topology's
  node coordinates plus block-fading log-normal shadowing redrawn every
  coherence interval (the generator's static link model made
  time-varying).
* :class:`TraceDriven` — replay per-link delivery time series from JSON
  (Roofnet-style measurement traces), stepping through the trace as
  simulated time advances.

A :class:`ChannelSpec` is the declarative form (``kind`` + ``params``)
that rides inside :class:`~repro.scenarios.spec.ScenarioSpec` JSON, the
``repro run/sweep --channel`` CLI flag and sweepable ``channel.*`` axes;
:func:`build_channel_model` turns it into a live model.

Determinism: every model derives its randomness from the cell seed mixed
with a private stream key, via *counter-based* draws — SplitMix64 over
``(seed, link, draw-index)`` for Gilbert-Elliott,
``default_rng((seed, stream, block))`` per fading block for DistanceFading
— so channel randomness never perturbs the simulator's main generator (a
static-channel run is bit-identical with or without the subsystem) and a
fixed seed replays the exact same channel realisation regardless of how
the medium's queries interleave.  Back-to-back protocol runs at one seed
therefore compare against the *same* channel trajectory, exactly like the
paper's back-to-back testbed runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.params import SectionSpec, build_model
from repro.rng import splitmix64 as _splitmix64
from repro.topology import generator as _propagation
from repro.topology.generator import margin_to_delivery, path_loss_margin_db
from repro.topology.graph import Topology

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

    ``mean_matrix`` is the long-run average delivery matrix; the medium
    derives carrier-sense audibility and interference levels from it (sense
    range tracks average signal energy, not the instantaneous fade).
    """

    kind = "static"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.topology: Topology | None = None
        self._base: np.ndarray | None = None

    def bind(self, topology: Topology) -> None:
        """Attach the model to a topology; called by the medium once.

        The nominal matrix is the topology's own, held read-only rather
        than copied: the topology is not to be edited under a live medium.
        """
        self.topology = topology
        self._base = topology.delivery_view()
        self._prepare()

    def _prepare(self) -> None:
        """Subclass hook: build per-link state after ``bind``."""

    def update_base(self, delivery: np.ndarray,
                    positions: np.ndarray | None = None) -> None:
        """Adopt a new nominal matrix mid-run (dynamic-topology hook).

        The medium calls this at every mobility epoch boundary with the
        epoch's effective delivery matrix and, for position-based mobility,
        the epoch's node coordinates.  The default keeps any per-link
        channel state (e.g. Gilbert-Elliott chains) running across the
        update — churn in nominal quality composes with burstiness.
        """
        self._base = np.asarray(delivery, dtype=float)

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        """Delivery probabilities from ``sender`` to every node for one frame.

        ``start``/``end`` are the frame's time on the air; time-varying
        models evaluate their state at ``start`` (the channel as the frame
        found it).  The returned array must not be mutated by the caller.
        """
        raise NotImplementedError

    def mean_matrix(self) -> np.ndarray:
        """Long-run average delivery matrix (sense / interference levels).

        Read-only: the nominal matrix itself where that is the mean, so
        the caller must not (and cannot) write to it.
        """
        assert self._base is not None, "bind() must be called first"
        mean = self._base.view()
        mean.flags.writeable = False
        return mean


class StaticBernoulli(ChannelModel):
    """The paper's model: one static Bernoulli delivery matrix.

    Bit-identical to the pre-refactor medium — the delivery row is the
    topology matrix row and no channel randomness exists at all.
    """

    kind = "static"

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        return self._base[sender]


class GilbertElliott(ChannelModel):
    """Two-state bursty loss per directed link (Gilbert-Elliott).

    Every directed link runs an independent continuous-time Markov chain
    over {good, bad} with exponentially distributed holding times.  The
    instantaneous delivery probability is the nominal (topology) value
    scaled by ``good_scale`` or ``bad_scale``, so loss arrives in bursts
    whose lengths match ``mean_bad_time`` — the correlated-loss structure
    ExOR/MORE measurements report — while the long-run average stays near
    the nominal matrix.

    The k-th holding time of each link comes from a counter-based uniform
    (:func:`repro.rng.splitmix64` of ``(seed, link, k)``), so every link's
    whole
    trajectory is a pure function of the seed: the state at time ``t``
    never depends on how often — or in what interleaving with other
    senders' rows — the model was queried, which keeps back-to-back
    protocol runs at the same seed on the *same* channel realisation.

    Args:
        good_scale: delivery multiplier in the good state (default 1.0).
        bad_scale: delivery multiplier in the bad state (default 0.2).
        mean_good_time: mean sojourn in the good state, seconds.
        mean_bad_time: mean sojourn in the bad state, seconds.
        seed: channel RNG stream seed (defaults to the cell seed).
    """

    kind = "gilbert_elliott"

    def __init__(self, seed: int = 0, good_scale: float = 1.0,
                 bad_scale: float = 0.2, mean_good_time: float = 1.0,
                 mean_bad_time: float = 0.1) -> None:
        super().__init__(seed)
        if not (mean_good_time > 0 and mean_bad_time > 0):
            raise ValueError("state sojourn times must be positive")
        if not (0.0 <= bad_scale <= good_scale <= 1.0):
            # A multiplier above one would push a delivery probability past 1.
            raise ValueError("need 0 <= bad_scale <= good_scale <= 1")
        self.good_scale = float(good_scale)
        self.bad_scale = float(bad_scale)
        self.mean_good_time = float(mean_good_time)
        self.mean_bad_time = float(mean_bad_time)

    def _uniform(self, links: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Counter-based uniforms in (0, 1] for the given (link, draw) pairs."""
        key = np.uint64(((self.seed ^ _CHANNEL_STREAM) * 0x9E3779B97F4A7C15)
                        & 0xFFFFFFFFFFFFFFFF)
        mixed = _splitmix64(_splitmix64(links.astype(np.uint64) + key)
                            + draws.astype(np.uint64))
        # Map to (0, 1]: never 0, so log() below stays finite.
        return (mixed >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54

    def _prepare(self) -> None:
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
        scale = np.where(self._good[sender], self.good_scale, self.bad_scale)
        return np.clip(self._base[sender] * scale, 0.0, 1.0)

    def mean_matrix(self) -> np.ndarray:
        """Stationary-average delivery: nominal scaled by the state mix.

        Each link spends ``Tg/(Tg+Tb)`` of its time good, the rest bad, so
        the long-run mean the medium's sense/interference levels should
        track is the nominal matrix scaled accordingly.
        """
        total = self.mean_good_time + self.mean_bad_time
        scale = (self.mean_good_time * self.good_scale
                 + self.mean_bad_time * self.bad_scale) / total
        return np.clip(self._base * scale, 0.0, 1.0)


class DistanceFading(ChannelModel):
    """Log-distance path loss + block-fading shadowing over node coordinates.

    The SNR margin of each directed link comes from
    :func:`repro.topology.generator.path_loss_margin_db` — the *same*
    propagation formula (and default constants) the topology generators use
    for their static matrices, so fading over a generated mesh is
    consistent with its nominal matrix — perturbed by log-normal shadowing
    redrawn every ``coherence_time`` seconds, with
    :func:`repro.topology.generator.margin_to_delivery` mapping the margin
    to a frame delivery probability.  Within one coherence block the
    channel is constant; across blocks it fades independently — the
    textbook block-fading abstraction.

    Each block's shadowing field is a pure function of ``(seed, block)``,
    so a replay at the same seed reproduces the exact same fades no matter
    how the medium interleaves its queries.

    Requires the topology to carry node positions (grids, the indoor
    testbed and random-geometric meshes all do).

    Args:
        coherence_time: seconds per fading block.
        reference_distance: distance (m) of the reference SNR.
        path_loss_exponent: log-distance slope.
        snr_at_reference_db: SNR margin at the reference distance.
        shadowing_sigma_db: shadowing standard deviation in dB.
        logistic_scale: dB-to-probability logistic slope.
        max_delivery: cap on any link's delivery probability.
        seed: channel RNG stream seed (defaults to the cell seed).
    """

    kind = "distance_fading"

    def __init__(self, seed: int = 0, coherence_time: float = 1.0,
                 reference_distance: float = _propagation._REFERENCE_DISTANCE,
                 path_loss_exponent: float = _propagation._PATH_LOSS_EXPONENT,
                 snr_at_reference_db: float = _propagation._SNR_AT_REFERENCE_DB,
                 shadowing_sigma_db: float = _propagation._SHADOWING_SIGMA_DB,
                 logistic_scale: float = _propagation._DELIVERY_LOGISTIC_SCALE,
                 max_delivery: float = _propagation._MAX_DELIVERY) -> None:
        super().__init__(seed)
        for name, value in (("coherence_time", coherence_time),
                            ("reference_distance", reference_distance),
                            ("path_loss_exponent", path_loss_exponent),
                            ("logistic_scale", logistic_scale)):
            if not value > 0:
                raise ValueError(f"{name} must be positive")
        if not shadowing_sigma_db >= 0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        if not 0 < max_delivery <= 1:
            raise ValueError("max_delivery must be in (0, 1]")
        self.coherence_time = float(coherence_time)
        self.reference_distance = float(reference_distance)
        self.path_loss_exponent = float(path_loss_exponent)
        self.snr_at_reference_db = float(snr_at_reference_db)
        self.shadowing_sigma_db = float(shadowing_sigma_db)
        self.logistic_scale = float(logistic_scale)
        self.max_delivery = float(max_delivery)

    def _prepare(self) -> None:
        positions = [node.position for node in self.topology.nodes]
        if any(position is None or len(position) < 2 for position in positions):
            raise ValueError(
                "distance_fading needs node coordinates; this topology has none "
                "(use a grid / indoor_testbed / random_geometric topology)")
        count = len(positions)
        coords = np.zeros((count, 3))
        for index, position in enumerate(positions):
            coords[index, :len(position)] = position[:3]
        self._set_coordinates(coords)

    def _set_coordinates(self, coords: np.ndarray) -> None:
        """(Re)derive the static margins from node coordinates."""
        deltas = coords[:, None, :] - coords[None, :, :]
        distance = np.sqrt((deltas ** 2).sum(axis=2))
        self._margin0 = path_loss_margin_db(
            distance, reference_distance=self.reference_distance,
            path_loss_exponent=self.path_loss_exponent,
            snr_at_reference_db=self.snr_at_reference_db)
        np.fill_diagonal(self._margin0, -np.inf)
        self._block = -1
        self._matrix = np.zeros_like(self._margin0)

    def update_base(self, delivery: np.ndarray,
                    positions: np.ndarray | None = None) -> None:
        """Mobility hook: fading reads the epoch's node positions.

        The shadowing of block k stays a pure function of ``(seed, k)``;
        only the distance-derived margins move with the nodes.
        """
        super().update_base(delivery, positions)
        if positions is None:
            raise ValueError("distance_fading under mobility needs a "
                             "position-based mobility model")
        self._set_coordinates(np.asarray(positions, dtype=float))

    def _margin_to_delivery(self, margin_db: np.ndarray) -> np.ndarray:
        return margin_to_delivery(margin_db, logistic_scale=self.logistic_scale,
                                  max_delivery=self.max_delivery)

    def _matrix_at(self, now: float) -> np.ndarray:
        block = int(now / self.coherence_time)
        if block != self._block:
            # The fade of block k depends only on (seed, k): replays agree
            # even when the query pattern differs.
            rng = np.random.default_rng((self.seed, _CHANNEL_STREAM, block))
            shadowing = rng.normal(0.0, self.shadowing_sigma_db,
                                   self._margin0.shape)
            self._matrix = self._margin_to_delivery(self._margin0 + shadowing)
            self._block = block
        return self._matrix

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        return self._matrix_at(start)[sender]

    def mean_matrix(self) -> np.ndarray:
        """The zero-shadowing (median-fade) delivery matrix."""
        return self._margin_to_delivery(self._margin0.copy())


class TraceDriven(ChannelModel):
    """Replay per-link delivery time series (Roofnet-style traces).

    The trace is a mapping from directed links (``"i-j"`` keys) to lists of
    delivery probabilities, sampled every ``interval`` seconds.  Simulated
    time indexes into the series (cycling past the end when ``wrap`` is
    true, clamping to the last sample otherwise); links absent from the
    trace keep their nominal topology value throughout.

    The trace comes inline via ``series`` (JSON-roundtrips inside a
    scenario spec) or from a JSON file via ``path`` holding
    ``{"interval": ..., "series": {"0-1": [...], ...}}``.

    Args:
        series: ``{"i-j": [p0, p1, ...]}`` per-link delivery series.
        path: JSON trace file to load (merged under any inline ``series``).
        interval: seconds per trace sample.
        wrap: cycle the trace (true) or hold the last sample (false).
        seed: unused (traces are deterministic); accepted for uniformity.
    """

    kind = "trace"

    def __init__(self, seed: int = 0, series: dict[str, list[float]] | None = None,
                 path: str | None = None, interval: float = 1.0,
                 wrap: bool = True) -> None:
        super().__init__(seed)
        if not interval > 0:
            raise ValueError("trace interval must be positive")
        self.interval = float(interval)
        self.wrap = bool(wrap)
        self.series = dict(series or {})
        if path is not None:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            self.interval = float(data.get("interval", self.interval))
            for link, values in data.get("series", {}).items():
                self.series.setdefault(link, values)
        if not self.series:
            raise ValueError("trace channel needs a 'series' mapping or a 'path'")

    @staticmethod
    def _parse_link(key: str, count: int) -> tuple[int, int]:
        try:
            sender_text, _, receiver_text = key.partition("-")
            sender, receiver = int(sender_text), int(receiver_text)
        except ValueError:
            raise ValueError(f"trace link key {key!r} is not of the form 'i-j'") \
                from None
        if not (0 <= sender < count and 0 <= receiver < count) or sender == receiver:
            raise ValueError(f"trace link {key!r} is out of range for "
                             f"{count} nodes")
        return sender, receiver

    def _prepare(self) -> None:
        count = self._base.shape[0]
        empty = sorted(key for key, values in self.series.items() if not len(values))
        if empty:
            raise ValueError(f"trace series must contain at least one sample; "
                             f"empty link(s): {empty}")
        steps = max(len(values) for values in self.series.values())
        # One delivery matrix per trace step; untraced links hold the
        # nominal value, short series hold their last sample.
        self._stack = np.repeat(self._base[None, :, :], steps, axis=0)
        self._traced = np.zeros((count, count), dtype=bool)
        for key, values in self.series.items():
            sender, receiver = self._parse_link(key, count)
            samples = np.asarray(list(values), dtype=float)
            if np.any((samples < 0) | (samples > 1)):
                raise ValueError(f"trace link {key!r} has probabilities "
                                 "outside [0, 1]")
            padded = np.full(steps, samples[-1])
            padded[:samples.size] = samples
            self._stack[:, sender, receiver] = padded
            self._traced[sender, receiver] = True

    def update_base(self, delivery: np.ndarray,
                    positions: np.ndarray | None = None) -> None:
        """Mobility hook: untraced links follow the churned topology while
        traced links keep replaying their series — only the untraced stack
        entries are rewritten (no per-epoch stack rebuild)."""
        super().update_base(delivery, positions)
        untraced = ~self._traced
        self._stack[:, untraced] = self._base[untraced]

    def _index_at(self, now: float) -> int:
        index = int(now / self.interval)
        steps = self._stack.shape[0]
        return index % steps if self.wrap else min(index, steps - 1)

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        return self._stack[self._index_at(start), sender]

    def mean_matrix(self) -> np.ndarray:
        """Long-run average of the trace (nominal values for untraced links).

        A wrapping trace cycles forever, so its long-run mean is the
        per-step average; a clamped (``wrap=False``) trace spends all time
        past the end at its final sample, so that sample *is* the long-run
        mean.
        """
        if not self.wrap:
            return self._stack[-1].copy()
        return self._stack.mean(axis=0)


#: Channel models addressable from a :class:`ChannelSpec`.
CHANNEL_MODELS: dict[str, type[ChannelModel]] = {
    StaticBernoulli.kind: StaticBernoulli,
    GilbertElliott.kind: GilbertElliott,
    DistanceFading.kind: DistanceFading,
    TraceDriven.kind: TraceDriven,
}


def build_channel_model(spec: ChannelSpec | None, seed: int = 0) -> ChannelModel:
    """Instantiate the model a spec describes (``None`` means static); see
    :func:`repro.params.build_model` for the seeding convention."""
    # Every channel kind is a model: the registry is also the list of kinds.
    return (build_model("channel", spec, CHANNEL_MODELS, CHANNEL_MODELS, seed)
            or StaticBernoulli())
