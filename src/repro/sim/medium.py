"""The shared broadcast medium: losses, collisions, capture, carrier sense.

The medium decides, for every transmission, which nodes receive it.  Per-link
delivery probabilities are the links' own under a static channel (no
model: the paper's), or come from a
:class:`~repro.sim.channels.ChannelModel` (bursty Gilbert-Elliott loss).
The model:

* **Independent losses** — each potential receiver flips a coin with the
  link delivery probability (the paper's model, Sections 3.2.1 and 5.3.1);
  the probability itself may vary over time under non-static channel models.
* **Half duplex** — a node that is transmitting during any part of a frame
  cannot receive it.
* **Collisions** — if another transmission overlaps in time and the
  interferer is audible at the receiver (delivery probability above the
  interference threshold), the reception is corrupted ...
* **Capture effect** — ... unless the wanted signal is sufficiently stronger
  than the interferer, in which case the frame survives with the capture
  probability (Section 4.2.3 credits capture for part of MORE's gain on
  short paths).
* **Carrier sense** — a node senses the medium busy if any ongoing
  transmission is audible above the sense threshold; this is what enables
  spatial reuse (distant transmitters do not block each other).

Every frame resolves the same way: :meth:`WirelessMedium._plan` turns the
sender's links and the senders of the overlapping frames into a
*reception plan* — tuples of the eligible receivers in node order,
their coins' word bounds, which of them survive the audible interferers,
and, where a capture draw could occur, each receiver's capture chain — and
:meth:`WirelessMedium._resolve` decides the frame from it, with no numpy
call: a receiver hears the frame when its coin, one word of the main
generator's :class:`~repro.rng.WordStream`, falls below its bound
(``compress(receivers, map(lt, words, thresholds))``); a receiver with a
capture chain reads one capture coin per capturable interferer right after
its own coin, as the per-node loop does.  The stream is shared with every
MAC's backoff draw and read in call order, so the words are those the
per-call ``random(n) < p`` / ``random() < q`` draws would consume.  Under a
static channel a plan is a pure function of the links and ``(sender,
overlapping senders)``, and is memoised; under Gilbert-Elliott it is
derived per frame from the model's delivery on the sender's links
(:meth:`~repro.sim.channels.ChannelModel.delivery_row`).  The scalar loop
(:meth:`WirelessMedium._resolve_scalar`) keeps its own half-duplex and
interference logic and is only the tests' oracle.

The medium resolves frames against one view of the links at a time: the
topology, or under mobility the current epoch's
:class:`~repro.topology.graph.Topology`
(:meth:`~repro.topology.mobility.MobilityModel.topology_at`), which a
Gilbert-Elliott channel is bound to as its nominal links.  Everything the
medium derives is read off the links of that view, or of the model's mean
view — the link table by sender and its receiver-major index
(:meth:`~repro.topology.graph.LinkView.incoming`) — on a sender's first
use (:func:`sense_row`, the plans), so a 1000-node mesh costs the dozen
nodes that transmit, and nothing N×N exists.  The sense rows and the plan
memo live on the links they are read from
(:meth:`~repro.topology.graph.LinkView.derived`): under a static channel
with no mobility a process pays once per topology, and every simulator over
it — every seed, protocol, flow set and sweep cell — reads the same tuples;
an epoch keeps its pair and drops it with the epoch, and a Gilbert-Elliott
mean view is new at every bind, so it keeps a pair of its own.

The thresholds, the capture margin and the capture probability are the
constants of :mod:`repro.sim.radio`: modelling choices of the medium, not
run parameters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import and_, lt
from typing import Any, Callable

import numpy as np

from repro.rng import WordStream, threshold
from repro.sim.channels import ChannelModel
from repro.sim.frames import Frame
from repro.sim.radio import (
    CAPTURE_MARGIN,
    CAPTURE_PROBABILITY,
    INTERFERENCE_THRESHOLD,
    NEIGHBOR_SENSE_THRESHOLD,
    SENSE_THRESHOLD,
)
from repro.topology.graph import InLinks, LinkTable, LinkView, Topology
from repro.topology.mobility import MobilityModel

#: A capture coin's word bound (:func:`repro.rng.threshold`).
_CAPTURE_BOUND = threshold(CAPTURE_PROBABILITY)


@dataclass(slots=True, eq=False)
class Transmission:
    """An in-flight (or recently completed) frame transmission.

    Compared by identity: the medium takes one off the air by ``remove``,
    which should not compare frames field by field.
    """

    frame: Frame
    start: float
    end: float


def sense_row(links: LinkView, sender: int) -> np.ndarray:
    """Which nodes carrier-sense ``sender`` (a boolean row over all nodes).

    Real radios sense energy well below the level needed to decode a
    frame: the carrier-sense range is roughly twice the communication
    range.  With only per-link delivery probabilities available we model
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
    which transmitters can share the air.  It reads ``links``' link table
    and receiver-major index (:meth:`~repro.topology.graph.LinkView.incoming`):
    the sender's links out and in, plus the links into each good neighbour.
    """
    return _sense_row(links.link_table(), links.incoming(), sender)


def _sense_row(table: LinkTable, incoming: InLinks, sender: int) -> np.ndarray:
    """:func:`sense_row` over a link table and its receiver-major index."""
    row = np.zeros(table.indptr.size - 1, dtype=bool)
    start, stop = table.indptr[sender], table.indptr[sender + 1]
    receivers, outgoing = table.receivers[start:stop], table.delivery[start:stop]
    row[receivers[outgoing > SENSE_THRESHOLD]] = True
    into = incoming.links[incoming.indptr[sender]:incoming.indptr[sender + 1]]
    row[table.sender_of(into[table.delivery[into] > SENSE_THRESHOLD])] = True
    # The links into every good neighbour, gathered in one index.
    good = receivers[outgoing >= NEIGHBOR_SENSE_THRESHOLD]
    starts = incoming.indptr[good]
    lengths = incoming.indptr[good + 1] - starts
    gathered_at = np.cumsum(lengths) - lengths
    into = incoming.links[np.arange(lengths.sum())
                          + np.repeat(starts - gathered_at, lengths)]
    row[table.sender_of(into[table.delivery[into] >= NEIGHBOR_SENSE_THRESHOLD])] = True
    row[sender] = False
    return row


class _Memo(dict):
    """``key -> value``, derived on the key's first use.

    A hit is a plain dict index (``__missing__`` runs only on a miss), so
    the per-frame lookups cost what eager tables would while a process only
    ever pays for the senders that transmit and the overlaps that occur.
    """

    def __init__(self, derive: Callable[[Any], Any]) -> None:
        super().__init__()
        self._derive = derive

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self._derive(key)
        return value


def _medium_tables(links: LinkView) -> tuple[_Memo, _Memo]:
    """The sense rows and the reception-plan memo over ``links``.

    Both start empty and fill on first use: ``sender -> sense row`` and
    ``(sender, overlapping senders) -> plan``.  The closures hold the
    view's link table and its receiver-major index and nothing else — not
    the view — so a topology that keeps the pair
    (:meth:`~repro.topology.graph.LinkView.derived`) keeps no medium or
    simulator alive and holds no reference to itself, and every value is
    a tuple no reader can edit.
    """
    table, incoming = links.link_table(), links.incoming()

    def derive_row(sender: int) -> tuple[bool, ...]:
        return tuple(_sense_row(table, incoming, sender).tolist())

    def derive_plan(key: tuple[int, tuple[int, ...]]) -> tuple:
        sender, senders = key
        return WirelessMedium._plan(table, sender, None, senders)

    return _Memo(derive_row), _Memo(derive_plan)


class WirelessMedium:
    """Shared-channel model deciding receptions, collisions and carrier sense."""

    def __init__(self, topology: Topology, rng: np.random.Generator | WordStream,
                 model: ChannelModel | None = None,
                 mobility: MobilityModel | None = None,
                 faults=None) -> None:
        self.topology = topology
        #: The main generator's words: the simulator's stream, shared with
        #: its MACs, or a stream of its own over a bare generator.
        self._words = rng if isinstance(rng, WordStream) else WordStream(rng)
        # Bound readers: complete() runs once per frame.
        self._take = self._words.take
        self._word = self._words.word
        #: Channel model (``None`` = static: the links' own deliveries).
        self.model = model
        #: Fault injector (``None`` = fault-free, today's behaviour bit for
        #: bit).  When present, resolved receivers are filtered *after* the
        #: channel draws so the RNG stream is identical either way.
        self.faults = faults
        #: Dynamic-topology process (``None`` = static, today's behaviour
        #: bit for bit).  When present, every epoch boundary moves the
        #: medium to the epoch's view, with its sense rows and plans.
        self.mobility = mobility
        self._epoch = 0
        self._active: list[Transmission] = []
        self._history: deque[Transmission] = deque()
        self._max_airtime = 0.0
        if mobility is not None:
            mobility.bind(topology)
            # The epoch-0 realisation, before any tables are derived.
            topology = mobility.topology_at(0)
        self._rebuild_channel_state(topology)
        # Statistics.
        self.transmissions = 0
        self.receptions = 0
        self.collisions = 0
        self.captures = 0

    @property
    def rng(self) -> np.random.Generator:
        """The main generator, handed back at its logical position
        (:meth:`repro.rng.WordStream.generator`)."""
        return self._words.generator()

    def _rebuild_channel_state(self, view: Topology) -> None:
        """Resolve frames against ``view``: the topology or an epoch's.

        Called once at construction and — under a dynamic topology — at
        every epoch boundary: this is the epoch-keyed invalidation of the
        sense rows and the reception-plan memo.  Nothing is derived here;
        each sender's row and plans are built on their first use.  The pair
        is the one the links keep: shared by every medium over a static
        topology, dropped with an epoch's view.
        """
        # Long-run average deliveries: carrier-sense audibility and
        # interference levels track mean signal energy, not the
        # instantaneous fade (under a static channel these ARE the
        # view's links).
        links = view
        if self.model is not None:
            self.model.bind(view)
            links = self.model.mean_view()
        self._links = links
        tables = links.derived(("medium",), lambda: _medium_tables(links))
        # Tuples of plain bools: the per-transmission carrier-sense probes
        # are scalar lookups, where tuple indexing beats numpy scalar
        # indexing several-fold.  Plans are read from the memo under a
        # static channel only: there a plan never changes within an epoch,
        # leaving only the coins per frame.
        self._sense_rows: dict[int, tuple[bool, ...]] = tables[0]
        self._plans: dict[tuple[int, tuple[int, ...]], tuple] = tables[1]

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
        self._rebuild_channel_state(self.mobility.topology_at(epoch))

    def effective_topology(self, now: float) -> Topology:
        """The topology as it stands at ``now`` (positions + delivery).

        Static media return the bound topology itself; dynamic media the
        epoch's view (:meth:`~repro.topology.mobility.MobilityModel.topology_at`),
        the one frames of that epoch resolve against — this is what the
        link-state refresh loop probes against.
        """
        if self.mobility is None:
            return self.topology
        return self.mobility.topology_at(self.mobility.epoch_of(now))

    @staticmethod
    def _build_sense_matrix(delivery: np.ndarray) -> np.ndarray:
        """Dense all-pairs form of :func:`sense_row` (an N×N product).

        Nothing at run time calls this: it is the reference the tests hold
        the per-sender rows against, row for row.
        """
        audible = delivery > SENSE_THRESHOLD
        common = (delivery >= NEIGHBOR_SENSE_THRESHOLD) @ \
                 (delivery >= NEIGHBOR_SENSE_THRESHOLD).T
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
        MAC a second scan per contention.
        """
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

    # ------------------------------------------------------------------ #
    # Transmission lifecycle
    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Take every frame off the air and out of the overlap history (the
        run has ended): the frames carry their payloads.  The counters stay."""
        self._active.clear()
        self._history.clear()

    def begin(self, frame: Frame, now: float, airtime: float) -> Transmission:
        """Register the start of a transmission; returns its record."""
        if self.mobility is not None:
            self._advance_epoch(now)
        transmission = Transmission(frame=frame, start=now, end=now + airtime)
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
        # Off the air first: a frame that is not on it raises here, before
        # a word is read or a counter moves.
        self._active.remove(transmission)
        sender = transmission.frame.sender
        # Gather overlapping transmissions without concatenating the
        # active and history lists (the order — active first, then
        # history — is load-bearing: capture draws consume RNG state in
        # list order), comparing the interval bounds inline.
        start = transmission.start
        end = transmission.end
        # Any transmission still able to complete started no earlier than
        # ``now - max_airtime``, so a history entry whose end precedes that
        # can never overlap one: the horizon tracks the longest observed
        # airtime, which keeps the overlap scan short for ordinary frames
        # and stops long frames at low bitrates from outliving the window.
        # Frames complete in time order, so the history's ends never
        # decrease and what has aged out is a prefix.
        cutoff = now - self._max_airtime
        history = self._history
        while history and history[0].end < cutoff:
            history.popleft()
        overlapping: list[Transmission] = []
        for other in self._active:
            if start < other.end and other.start < end:
                overlapping.append(other)
        for other in history:
            if start < other.end and other.start < end:
                overlapping.append(other)
        # Most frames overlap nothing: their key is the empty tuple, built
        # without a comprehension.
        senders = (tuple([other.frame.sender for other in overlapping])
                   if overlapping else ())
        if self.model is None:
            # Static channel: a plan depends on the overlapping senders
            # alone, so it is read from the memo.
            row = None
            plan = self._plans[sender, senders]
        else:
            row = self.model.delivery_row(sender, start, end)
            plan = self._plan(self._links.link_table(), sender, row, senders)
        receivers = self._resolve(plan, sender, row, overlapping)
        if self.faults is not None:
            kept = self.faults.filter_receivers(transmission.frame, receivers)
            if len(kept) != len(receivers):
                # Keep the receptions counter meaning "frames delivered to
                # a live radio", whichever way the frame was resolved.
                self.receptions -= len(receivers) - len(kept)
                receivers = kept
        history.append(transmission)
        return receivers

    @staticmethod
    def _plan(table: LinkTable, sender: int, row: np.ndarray | None,
              senders: tuple[int, ...]) -> tuple:
        """Everything about one frame's reception except the coins.

        ``table`` holds the mean links the interference levels come from,
        ``row`` the frame's delivery probability on each of the sender's
        links in ``table``, in their order (``None``: the table's own, as
        under a static channel) and ``senders`` the senders of the frames
        that overlapped it, in overlap order.  Returns ``(receivers,
        thresholds, survivable, chains)``, all tuples: the eligible
        receivers in node order (the order the coins are read in) and their
        coins' word bounds (:func:`repro.rng.threshold`); a mask over them
        of the receivers no audible interferer corrupts (``None`` when none
        is corrupted); and, when a capture draw could occur, each
        receiver's *capture chain*: one flag per interferer audible at it,
        in overlap order, saying whether the capture margin holds (``None``
        otherwise).  A pure function of its arguments, so a static
        channel's plans are shared by every medium over one topology.
        """
        start, stop = table.indptr[sender], table.indptr[sender + 1]
        linked = table.receivers[start:stop]
        probabilities = table.delivery[start:stop] if row is None else row
        eligible = probabilities > 0.0
        for other in senders:
            # Half duplex: nodes with a frame of their own on the air (the
            # sender's other frames included) cannot decode this one.
            eligible &= linked != other
        indices = linked[eligible]
        probabilities = probabilities[eligible]
        receivers = tuple(indices.tolist())
        thresholds = tuple(map(threshold, probabilities.tolist()))
        interferers = [other for other in senders if other != sender]
        if not interferers:
            return receivers, thresholds, None, None
        # levels[m, k]: how audible interferer m is at eligible receiver k.
        levels = np.array([table.row(other)[indices] for other in interferers])
        audible = levels > INTERFERENCE_THRESHOLD
        capturable = audible & (probabilities - levels >= CAPTURE_MARGIN)
        if capturable.any():
            chains = tuple(tuple(saved for heard, saved in zip(heard_by, saved_by)
                                 if heard)
                           for heard_by, saved_by in zip(audible.T.tolist(),
                                                         capturable.T.tolist()))
            return receivers, thresholds, None, chains
        corrupted = audible.any(axis=0)
        survivable = tuple((~corrupted).tolist()) if corrupted.any() else None
        return receivers, thresholds, survivable, None

    def _resolve(self, plan: tuple, sender: int, row: np.ndarray | None,
                 overlapping: list[Transmission]) -> list[int]:
        """Decide a frame from its plan: the receivers, in node order.

        One coin per eligible receiver, in node order.  A receiver with a
        capture chain reads its capture coins right after its own coin,
        one per capturable interferer until the first that fails; an
        interferer outside the margin corrupts the reception outright.
        ``sender``, ``row`` (``None`` under a static channel) and
        ``overlapping`` are what the oracle needs to decide the same frame
        without the plan.
        """
        receivers, thresholds, survivable, chains = plan
        if chains is None:
            delivered = map(lt, self._take(len(thresholds)), thresholds)
            if survivable is None:
                received = list(compress(receivers, delivered))
            else:
                delivered = list(delivered)
                received = list(compress(receivers, map(and_, delivered, survivable)))
                self.collisions += sum(delivered) - len(received)
        else:
            word = self._word
            received = []
            for node, bound, chain in zip(receivers, thresholds, chains):
                if word() >= bound:
                    continue  # channel loss
                for capturable in chain:
                    if not capturable or word() >= _CAPTURE_BOUND:
                        self.collisions += 1
                        break
                    self.captures += 1
                else:
                    received.append(node)
        self.receptions += len(received)
        return received

    def _resolve_scalar(self, sender: int, probabilities: np.ndarray,
                        overlapping: list[Transmission]) -> list[int]:
        """The reference per-node loop: the tests' oracle.

        Nothing at run time calls it.  It keeps its own half-duplex and
        interference rules and draws ``random()`` on the handed-back
        generator rather than reading a plan's words, so the tests can hold
        :meth:`_plan` and :meth:`_resolve` against it.
        """
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
            interference = self._links.delivery(interferer, node)
            if interference <= INTERFERENCE_THRESHOLD:
                continue
            if wanted_probability - interference >= CAPTURE_MARGIN:
                if self.rng.random() < CAPTURE_PROBABILITY:
                    self.captures += 1
                    continue
            return True
        return False
