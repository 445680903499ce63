"""The shared broadcast medium: losses, collisions, capture, carrier sense.

The medium decides, for every transmission, which nodes receive it.  Per-link
delivery probabilities come from a pluggable :class:`~repro.sim.channels.ChannelModel`
(static Bernoulli by default — the paper's model — or bursty
Gilbert-Elliott loss).  The model:

* **Independent losses** — each potential receiver flips a coin with the
  link delivery probability (the paper's model, Sections 3.2.1 and 5.3.1);
  the probability itself may vary over time under non-static channel models.
* **Half duplex** — a node that is transmitting during any part of a frame
  cannot receive it.
* **Collisions** — if another transmission overlaps in time and the
  interferer is audible at the receiver (delivery probability above the
  interference threshold), the reception is corrupted ...
* **Capture effect** — ... unless the wanted signal is sufficiently stronger
  than the interferer, in which case the frame survives with the configured
  capture probability (Section 4.2.3 credits capture for part of MORE's gain
  on short paths).
* **Carrier sense** — a node senses the medium busy if any ongoing
  transmission is audible above the sense threshold; this is what enables
  spatial reuse (distant transmitters do not block each other).

Reception resolution is vectorized: one batched RNG draw over the eligible
receivers (in node order, so the stream is bit-identical to the original
per-node loop), a single delivery-row gather from the channel model, and a
vectorized interference mask.  Only frames where a *capture* draw could
occur fall back to the scalar loop, because capture draws interleave with
delivery draws in the RNG stream.

Everything the medium derives from the delivery matrix is per sender and
built on that sender's first use from its own row and column
(:func:`sense_row`, the eligible-receiver rows): a simulator over a
1000-node mesh pays for the dozen nodes that transmit, not for N² pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.sim.channels import ChannelModel, StaticBernoulli
from repro.sim.frames import Frame
from repro.sim.radio import ChannelConfig
from repro.topology.graph import Topology
from repro.topology.mobility import MobilityModel


@dataclass(slots=True)
class Transmission:
    """An in-flight (or recently completed) frame transmission."""

    frame: Frame
    start: float
    end: float
    bitrate: int
    #: Filled in when the transmission completes: node ids that received it.
    receivers: list[int] = field(default_factory=list)


def sense_row(delivery: np.ndarray, channel: ChannelConfig,
              sender: int) -> np.ndarray:
    """Which nodes carrier-sense ``sender`` (a boolean row over all nodes).

    Real radios sense energy well below the level needed to decode a
    frame: the carrier-sense range is roughly twice the communication
    range.  With only a delivery-probability matrix available we model
    that as: ``i`` senses ``j`` if either can decode the other at all
    (delivery above the sense threshold) **or** if both can deliver
    reasonably well to some common neighbour — i.e. they are within two
    "good hops" of each other, which is where their transmissions could
    actually collide.  Without this, every pair of forwarders beyond
    decode range becomes a hidden terminal, which grossly overstates
    collisions relative to a real 802.11 deployment.

    This is the one statement of the rule: the medium derives its
    per-sender rows from it, and the Fig 4-4 pair selection
    (:func:`repro.experiments.workloads.spatial_reuse_pairs`) asks it
    which transmitters can share the air.  The work is the sender's
    row and column plus one column per good neighbour — no N×N product.
    """
    outgoing = delivery[sender]
    row = ((outgoing > channel.sense_threshold)
           | (delivery[:, sender] > channel.sense_threshold))
    good_neighbors = outgoing >= channel.neighbor_sense_threshold
    row |= (delivery[:, good_neighbors]
            >= channel.neighbor_sense_threshold).any(axis=1)
    row[sender] = False
    return row


class _PerSender(dict):
    """``sender -> value``, derived on the sender's first use.

    A hit is a plain dict index (``__missing__`` runs only on a miss), so
    the per-frame lookups cost what the eager per-node tables did while a
    simulator only ever pays for the nodes that transmit.
    """

    def __init__(self, derive: Callable[[int], Any]) -> None:
        super().__init__()
        self._derive = derive

    def __missing__(self, sender: int) -> Any:
        value = self[sender] = self._derive(sender)
        return value


class WirelessMedium:
    """Shared-channel model deciding receptions, collisions and carrier sense."""

    def __init__(self, topology: Topology, channel: ChannelConfig,
                 rng: np.random.Generator, model: ChannelModel | None = None,
                 mobility: MobilityModel | None = None,
                 faults=None) -> None:
        self.topology = topology
        self.channel = channel
        self.rng = rng
        self.model = model if model is not None else StaticBernoulli()
        self.model.bind(topology)
        #: Fault injector (``None`` = fault-free, today's behaviour bit for
        #: bit).  When present, resolved receivers are filtered *after* the
        #: channel draws so the RNG stream is identical either way.
        self.faults = faults
        #: Dynamic-topology process (``None`` = static, today's behaviour
        #: bit for bit).  When present, every epoch boundary re-bases the
        #: channel model and invalidates the per-sender resolution caches.
        self.mobility = mobility
        self._dynamic = mobility is not None
        self._epoch = -1
        if self._dynamic:
            mobility.bind(topology)
        # Bound draw method: complete() runs once per frame.
        self._random = rng.random
        self._active: list[Transmission] = []
        self._history: list[Transmission] = []
        #: Static channel: the per-sender resolution caches apply.
        self._static = type(self.model) is StaticBernoulli
        self._max_airtime = 0.0
        if self._dynamic:
            # Adopt the epoch-0 realisation before any caches are built.
            self.model.update_base(mobility.delivery_at(0))
            self._epoch = 0
        self._rebuild_channel_state()
        # Statistics.
        self.transmissions = 0
        self.receptions = 0
        self.collisions = 0
        self.captures = 0

    def _rebuild_channel_state(self) -> None:
        """Forget everything derived from the channel base.

        Called once at construction and — under a dynamic topology — at
        every epoch boundary: this is the epoch-keyed invalidation of the
        per-sender sense rows, eligible rows and single-interferer pair
        cache.  Nothing is derived here; each sender's tables are built
        from its own row on its first use in the epoch.
        """
        # Long-run average deliveries: carrier-sense audibility and
        # interference levels track mean signal energy, not the
        # instantaneous fade (for the static model this IS the topology
        # matrix, preserving the original behaviour bit for bit).
        self._delivery = self.model.mean_matrix()
        # Plain-python sense rows: the per-transmission carrier-sense probes
        # are scalar lookups, where list indexing beats numpy scalar
        # indexing several-fold.
        self._sense_rows: dict[int, list[bool]] = _PerSender(
            self._derive_sense_row)
        # sender -> (indices, probabilities) of its eligible receivers.
        # Under a static channel that set never changes within an epoch,
        # leaving one batched RNG draw plus one comparison per
        # interference-free frame.
        self._eligible_rows: dict[int, tuple[np.ndarray, np.ndarray]] = \
            _PerSender(self._derive_eligible_row)
        # (sender, interferer) -> (indices, probabilities, survivable,
        # capture_possible); lazily built single-interferer resolution
        # cache for the static channel (see _resolve_static_pair).
        self._pair_cache: dict[tuple[int, int], tuple] = {}

    def _derive_sense_row(self, sender: int) -> list[bool]:
        return sense_row(self._delivery, self.channel, sender).tolist()

    def _derive_eligible_row(self, sender: int) -> tuple[np.ndarray, np.ndarray]:
        row = self._delivery[sender]
        eligible = row > 0.0
        eligible[sender] = False
        indices = np.nonzero(eligible)[0]
        return indices, row[indices]

    # ------------------------------------------------------------------ #
    # Dynamic topology (mobility / link churn)
    # ------------------------------------------------------------------ #

    def _advance_epoch(self, now: float) -> None:
        """Step the mobility process forward; invalidate caches on change.

        Epochs only move forward: a frame that started in an older epoch
        resolves against the newest epoch the medium has seen (at most one
        frame airtime newer than its start), which keeps the per-sender
        caches single-versioned and the run deterministic.
        """
        epoch = self.mobility.epoch_of(now)
        if epoch <= self._epoch:
            return
        self._epoch = epoch
        self.model.update_base(self.mobility.delivery_at(epoch))
        self._rebuild_channel_state()

    def effective_topology(self, now: float) -> Topology:
        """The topology as it stands at ``now`` (positions + delivery).

        Static media return the bound topology itself; dynamic media build
        a snapshot of the current epoch's realisation — this is what the
        link-state refresh loop probes against.
        """
        if not self._dynamic:
            return self.topology
        epoch = self.mobility.epoch_of(now)
        delivery = self.mobility.delivery_at(epoch)
        coords = self.mobility.positions_at(epoch)
        if coords is None:
            positions = self.topology.node_positions()
        else:
            positions = [tuple(float(value) for value in row) for row in coords]
        names = [node.name for node in self.topology.nodes]
        return Topology(np.clip(delivery, 0.0, 1.0), positions=positions,
                        names=names)

    @staticmethod
    def _build_sense_matrix(delivery: np.ndarray, channel: ChannelConfig) -> np.ndarray:
        """Dense all-pairs form of :func:`sense_row` (an N×N product).

        Nothing at run time calls this: it is the reference the tests hold
        the per-sender rows against, row for row.
        """
        audible = delivery > channel.sense_threshold
        common = (delivery >= channel.neighbor_sense_threshold) @ \
                 (delivery >= channel.neighbor_sense_threshold).T
        sense = audible | audible.T | (common > 0)
        np.fill_diagonal(sense, False)
        return sense

    # ------------------------------------------------------------------ #
    # Carrier sense
    # ------------------------------------------------------------------ #

    def can_sense(self, listener: int, transmitter: int) -> bool:
        """True if ``listener`` senses energy from ``transmitter``'s frames."""
        return self._sense_rows[transmitter][listener]

    def is_busy(self, node: int, now: float) -> bool:
        """Carrier-sense outcome at ``node``: True if any audible frame is in the air."""
        self._expire(now)
        sense = self._sense_rows
        for transmission in self._active:
            if transmission.end <= now:
                continue
            sender = transmission.frame.sender
            if sender == node:
                return True  # we are transmitting ourselves
            if sense[sender][node]:
                return True
        return False

    def busy_until(self, node: int, now: float) -> float:
        """Time at which the medium (as sensed by ``node``) becomes idle."""
        self._expire(now)
        latest = now
        sense = self._sense_rows
        for transmission in self._active:
            if transmission.end <= now:
                continue
            sender = transmission.frame.sender
            if sender == node or sense[sender][node]:
                latest = max(latest, transmission.end)
        return latest

    def busy_horizon(self, node: int, now: float) -> float:
        """One-pass fusion of :meth:`is_busy` and :meth:`busy_until`.

        Returns ``now`` when the medium is idle as sensed by ``node``,
        otherwise the time the last audible transmission ends — saving the
        MAC a second scan (and a second expiry pass) per contention.
        """
        self._expire(now)
        latest = now
        sense_rows = self._sense_rows
        for transmission in self._active:
            end = transmission.end
            if end <= now:
                continue
            sender = transmission.frame.sender
            if (sender == node or sense_rows[sender][node]) and end > latest:
                latest = end
        return latest

    def node_is_transmitting(self, node: int, now: float) -> bool:
        """True if ``node`` has a frame on the air at time ``now``."""
        return any(t.frame.sender == node and t.start <= now < t.end for t in self._active)

    # ------------------------------------------------------------------ #
    # Transmission lifecycle
    # ------------------------------------------------------------------ #

    def begin(self, frame: Frame, now: float, airtime: float, bitrate: int) -> Transmission:
        """Register the start of a transmission; returns its record."""
        if self._dynamic:
            self._advance_epoch(now)
        self._expire(now)
        transmission = Transmission(frame=frame, start=now, end=now + airtime, bitrate=bitrate)
        self._active.append(transmission)
        self.transmissions += 1
        self._max_airtime = max(self._max_airtime, airtime)
        return transmission

    def complete(self, transmission: Transmission, now: float) -> list[int]:
        """Resolve receptions when ``transmission`` ends.

        Returns the list of node ids that successfully received the frame.
        The interference check considers every transmission that overlapped
        this one at any point.
        """
        # Dynamic topologies: no epoch advance here — begin() already
        # advanced to epoch_of(transmission.start) and epochs are
        # monotonic, so every frame resolves against the epoch state the
        # medium held when it went on the air (or newer, if a later frame
        # began meanwhile).
        sender = transmission.frame.sender
        prune = False
        # Gather overlapping transmissions without concatenating the
        # active and history lists (the order — active first, then
        # history — is load-bearing: capture draws consume RNG state in
        # list order), comparing the interval bounds inline.  The same
        # history scan notes whether anything has aged out, so the
        # history is rebuilt only when that will remove something.
        start = transmission.start
        end = transmission.end
        # Any transmission still able to complete started no earlier than
        # ``now - max_airtime``, so a history entry whose end precedes that
        # can never overlap one: the horizon tracks the longest observed
        # airtime (plus the configured floor), which keeps the overlap
        # scan short for ordinary frames and stops long frames at low
        # bitrates from outliving the window.
        horizon = self.channel.history_horizon
        if horizon < self._max_airtime:
            horizon = self._max_airtime
        cutoff = now - horizon
        overlapping: list[Transmission] = []
        for other in self._active:
            if other is not transmission \
                    and start < other.end and other.start < end:
                overlapping.append(other)
        for other in self._history:
            other_end = other.end
            if other_end < cutoff:
                prune = True
            elif other is not transmission \
                    and start < other_end and other.start < end:
                overlapping.append(other)
        receivers = None
        if self._static:
            if not overlapping:
                # Interference-free static-channel fast path (the
                # overwhelmingly common case): the eligible set and
                # probabilities are precomputed per sender, so one batched
                # draw — consuming the exact RNG stream of the general path
                # — resolves the frame.
                indices, probabilities = self._eligible_rows[sender]
                draws = self._random(indices.size)
                receivers = indices[draws < probabilities].tolist()
                self.receptions += len(receivers)
            elif len(overlapping) == 1:
                other_sender = overlapping[0].frame.sender
                if other_sender != sender:
                    receivers = self._resolve_static_pair(sender, other_sender)
        if receivers is None:
            probabilities = self.model.delivery_row(sender, transmission.start,
                                                    transmission.end)
            receivers = self._resolve_vectorized(sender, probabilities,
                                                 overlapping)
            if receivers is None:
                receivers = self._resolve_scalar(sender, probabilities, overlapping)
        if self.faults is not None:
            kept = self.faults.filter_receivers(transmission.frame, receivers)
            if len(kept) != len(receivers):
                # Keep the receptions counter meaning "frames delivered to
                # a live radio", whichever resolve path counted them.
                self.receptions -= len(receivers) - len(kept)
                receivers = kept
        transmission.receivers = receivers
        try:
            self._active.remove(transmission)
        except ValueError:
            pass
        self._history.append(transmission)
        if prune:
            self._history = [t for t in self._history if t.end >= cutoff]
        return receivers

    def _resolve_static_pair(self, sender: int, interferer: int) -> list[int] | None:
        """One-interferer resolution over the static channel, fully cached.

        The eligible set (minus the half-duplex interferer), its delivery
        probabilities, the per-receiver corruption mask and whether any
        receiver could see a capture draw are all pure functions of the
        (sender, interferer) pair under a static channel — computed once,
        leaving one batched RNG draw per frame.  Returns ``None`` when a
        capture draw could occur (the caller falls back to the general
        path, exactly like :meth:`_resolve_vectorized` does).
        """
        entry = self._pair_cache.get((sender, interferer))
        if entry is None:
            indices, probabilities = self._eligible_rows[sender]
            listening = indices != interferer  # half duplex
            indices, probabilities = indices[listening], probabilities[listening]
            levels = self._delivery[interferer][indices]
            audible = levels > self.channel.interference_threshold
            capture_possible = bool((audible & (probabilities - levels
                                                >= self.channel.capture_margin)).any())
            entry = (indices, probabilities, ~audible, capture_possible)
            self._pair_cache[(sender, interferer)] = entry
        indices, probabilities, survivable, capture_possible = entry
        if capture_possible:
            return None
        draws = self._random(indices.size)
        delivered = draws < probabilities
        survived = delivered & survivable
        self.collisions += int(delivered.sum()) - int(survived.sum())
        receivers = indices[survived].tolist()
        self.receptions += len(receivers)
        return receivers

    def _resolve_vectorized(self, sender: int, probabilities: np.ndarray,
                            overlapping: list[Transmission]) -> list[int] | None:
        """One-pass reception resolution: batched draws, vectorized masks.

        Consumes exactly one RNG draw per eligible receiver in node order —
        the same stream as :meth:`_resolve_scalar` — so results are
        bit-identical.  Returns ``None`` when a capture draw could interleave
        with the delivery draws (the only case the batched stream cannot
        reproduce); the caller then takes the scalar path.
        """
        eligible = probabilities > 0.0
        eligible[sender] = False
        if overlapping:
            # Half duplex: nodes with a frame of their own on the air
            # (including the sender's other frames) cannot decode this one.
            senders = np.array([other.frame.sender for other in overlapping],
                               dtype=np.intp)
            eligible[senders] = False
            interferers = senders[senders != sender]
            if interferers.size:
                # levels[m, node]: how audible interferer m is at each node.
                levels = self._delivery[interferers]
                audible = levels > self.channel.interference_threshold
                capture_possible = audible & (probabilities[None, :] - levels
                                              >= self.channel.capture_margin)
                if bool((capture_possible.any(axis=0) & eligible).any()):
                    return None  # capture draws would interleave: scalar path
                corrupted = audible.any(axis=0)
                indices = np.nonzero(eligible)[0]
                draws = self.rng.random(indices.size)
                delivered = draws < probabilities[indices]
                survived = delivered & ~corrupted[indices]
                self.collisions += int(delivered.sum()) - int(survived.sum())
                receivers = indices[survived].tolist()
                self.receptions += len(receivers)
                return receivers
        # Interference-free fast path (the overwhelmingly common case).
        indices = np.nonzero(eligible)[0]
        draws = self.rng.random(indices.size)
        receivers = indices[draws < probabilities[indices]].tolist()
        self.receptions += len(receivers)
        return receivers

    def _resolve_scalar(self, sender: int, probabilities: np.ndarray,
                        overlapping: list[Transmission]) -> list[int]:
        """The reference per-node loop (also the capture-draw fallback)."""
        receivers: list[int] = []
        # Only the sender's non-zero links, in ascending node order: the
        # draws (one per candidate) are those of a walk over every node.
        candidates = np.nonzero(probabilities > 0.0)[0]
        for node, probability in zip(candidates.tolist(),
                                     probabilities[candidates].tolist()):
            if node == sender:
                continue
            # Half duplex: a node transmitting during the frame cannot decode it.
            if any(other.frame.sender == node for other in overlapping):
                continue
            if self.rng.random() >= probability:
                continue  # channel loss
            if self._corrupted_by_interference(node, probability, overlapping,
                                               self_sender=sender):
                self.collisions += 1
                continue
            receivers.append(node)
            self.receptions += 1
        return receivers

    def _corrupted_by_interference(self, node: int, wanted_probability: float,
                                   overlapping: list[Transmission],
                                   self_sender: int | None = None) -> bool:
        """Decide whether concurrent transmissions corrupt the reception."""
        for other in overlapping:
            interferer = other.frame.sender
            if interferer == node:
                continue
            if other.frame.sender == self_sender:
                continue
            interference = self._delivery[interferer, node]
            if interference <= self.channel.interference_threshold:
                continue
            if wanted_probability - interference >= self.channel.capture_margin:
                if self.rng.random() < self.channel.capture_probability:
                    self.captures += 1
                    continue
            return True
        return False

    # ------------------------------------------------------------------ #
    # Housekeeping
    # ------------------------------------------------------------------ #

    def _expire(self, now: float) -> None:
        """Move finished transmissions that were never completed explicitly."""
        active = self._active
        for transmission in active:
            if transmission.end <= now and transmission.receivers:
                break
        else:
            return  # nothing to move (the common case): no list churn
        still_active = []
        for transmission in active:
            if transmission.end <= now and transmission.receivers:
                self._history.append(transmission)
            else:
                still_active.append(transmission)
        self._active = still_active
