"""CSMA/CA MAC model (802.11 DCF, simplified).

Each node owns one :class:`CsmaMac`.  The MAC pulls frames from the node's
protocol agent: whenever it wins a transmission opportunity it asks the agent
for the next frame, which is exactly the interface MORE's design assumes
("when the 802.11 MAC permits", Section 3.2.1) and what lets MORE remain
MAC-independent.

Model summary:

* Carrier sense with DIFS + uniform random backoff before every attempt;
  when the medium is sensed busy, the attempt is deferred until the medium
  becomes idle (plus a fresh DIFS + backoff).
* Broadcast frames are transmitted once, with no MAC acknowledgement — this
  is how MORE and ExOR send data.
* Unicast frames use stop-and-wait ARQ with exponential backoff up to a
  retry limit — this is how Srcr data and MORE/ExOR batch ACKs travel.
  The MAC-level ACK exchange is modelled as a SIFS + ACK-airtime delay on
  success rather than as a separate frame on the medium; data-frame loss and
  collisions are modelled in full.
* Collisions between contenders that can hear each other are avoided by
  carrier sense (as in real DCF most of the time); collisions from hidden
  terminals and overlapping transmissions are resolved by the medium.

The transmit path runs once per frame in every simulation, so it is written
allocation-free: completion and ARQ-turnaround callbacks are bound methods
(the in-flight :class:`~repro.sim.medium.Transmission` rides in a slot on
the MAC rather than in a per-frame closure), frame kinds dispatch on enum
identity, the event queue / medium / agent references are cached at
construction instead of being re-resolved through the simulator on every
call, and the 802.11b timing is read from :mod:`repro.sim.radio`'s
constants.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.medium import Transmission
from repro.sim.radio import (
    ACK_TURNAROUND,
    CONTENTION_WINDOWS,
    DIFS,
    RETRY_LIMIT,
    SLOT_TIME,
    frame_airtime,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.simulator import Simulator


class MacState(Enum):
    """MAC transmit-path state."""

    IDLE = "idle"
    CONTENDING = "contending"
    TRANSMITTING = "transmitting"
    WAITING_TURNAROUND = "waiting_turnaround"


class MacStats:
    """Per-node MAC counters."""

    __slots__ = ("data_transmissions", "control_transmissions", "unicast_successes",
                 "unicast_drops", "retries", "busy_time")

    def __init__(self) -> None:
        self.data_transmissions = 0
        self.control_transmissions = 0
        self.unicast_successes = 0
        self.unicast_drops = 0
        self.retries = 0
        self.busy_time = 0.0


class CsmaMac:
    """One node's CSMA/CA transmit path."""

    __slots__ = ("node_id", "sim", "bitrate", "events", "medium", "faults", "agent",
                 "state", "stats", "_current_frame", "_attempt", "_inflight",
                 "_finish_success", "_draw_slots", "_airtimes")

    def __init__(self, node_id: int, simulator: "Simulator") -> None:
        self.node_id = node_id
        self.sim = simulator
        #: The run's bit-rate: every frame's unless the agent overrides it.
        self.bitrate = simulator.config.bitrate
        # Hot-path collaborators, resolved once (the simulator builds its
        # event queue, word stream and medium before any node/MAC exists).
        self.events = simulator.events
        self.medium = simulator.medium
        #: Fault injector (``None`` = fault-free): a crashed node's MAC
        #: neither starts contention nor fires a pending attempt.
        self.faults = simulator.faults
        #: The node's protocol agent; kept in sync by :meth:`SimNode.attach`.
        self.agent = None
        self.state = MacState.IDLE
        self.stats = MacStats()
        self._current_frame: Frame | None = None
        self._attempt = 0
        self._inflight: Transmission | None = None
        self._finish_success = False
        self._draw_slots = simulator.words.bounded
        # (size_bytes, bitrate) -> airtime, the simulator's one table: flows
        # reuse a handful of sizes.
        self._airtimes = simulator.airtimes

    def close(self) -> None:
        """Drop the run's machinery, keep :attr:`stats`
        (:meth:`repro.sim.simulator.Simulator.close`): the agent, the frame
        being sent and its transmission, and the back-reference to the
        simulator."""
        self.sim = self.agent = self._current_frame = self._inflight = None

    # ------------------------------------------------------------------ #
    # Agent-facing API
    # ------------------------------------------------------------------ #

    def trigger(self) -> None:
        """Notify the MAC that the agent may have frames to send.

        Safe to call at any time; a no-op unless the MAC is idle.
        """
        if self.state is not MacState.IDLE:
            return
        if self.faults is not None and self.faults.down(self.node_id):
            return  # crashed: the injector re-triggers on recovery
        agent = self.agent
        if agent is None or not agent.has_pending(self.events.now):
            return
        self._start_contention()

    # ------------------------------------------------------------------ #
    # Channel access
    # ------------------------------------------------------------------ #

    def _start_contention(self, now: float | None = None,
                          horizon: float | None = None) -> None:
        """Schedule the next transmission attempt respecting carrier sense:
        DIFS plus a random backoff drawn from the current contention window,
        after the medium (as sensed here) goes idle.

        A caller that has just sensed the medium at ``now`` passes what it
        found as ``horizon`` (:meth:`WirelessMedium.busy_horizon`), so a
        deferral scans the air once.
        """
        self.state = MacState.CONTENDING
        events = self.events
        if now is None:
            now = events.now
        # A contention runs at attempts 0 .. RETRY_LIMIT: _complete gives
        # up on a frame before its attempt count passes the table.
        delay = DIFS + self._draw_slots(CONTENTION_WINDOWS[self._attempt] + 1) * SLOT_TIME
        if horizon is None:
            horizon = self.medium.busy_horizon(self.node_id, now)
        if horizon > now:
            delay += horizon - now
        events.schedule(delay, self._attempt_transmission)

    def _attempt_transmission(self) -> None:
        """Fire when the backoff expires: transmit if the medium is still idle."""
        now = self.events.now
        if self.faults is not None and self.faults.down(self.node_id):
            # Crashed during backoff/turnaround: the NIC forgets the frame
            # (reported to the agent as a send failure, like an exhausted
            # retry) and the MAC drains to idle until recovery re-triggers.
            frame = self._current_frame
            if frame is not None:
                self._finish_frame(frame, success=False)
            else:
                self.state = MacState.IDLE
            return
        horizon = self.medium.busy_horizon(self.node_id, now)
        if horizon > now:
            # Someone grabbed the channel during our backoff; defer again.
            self._start_contention(now, horizon)
            return
        frame = self._current_frame
        if frame is None:
            agent = self.agent
            frame = agent.on_transmit_opportunity(now) if agent else None
        if frame is None:
            self.state = MacState.IDLE
            return
        self._transmit(frame)

    def _transmit(self, frame: Frame) -> None:
        """Put ``frame`` on the medium."""
        self.state = MacState.TRANSMITTING
        self._current_frame = frame
        self._attempt += 1
        agent = self.agent
        bitrate = None
        if agent is not None:
            bitrate = agent.select_bitrate(frame)
        if bitrate is None:
            bitrate = self.bitrate
        key = (frame.size_bytes, bitrate)
        airtime = self._airtimes.get(key)
        if airtime is None:
            airtime = self._airtimes[key] = frame_airtime(frame.size_bytes, bitrate)
        now = self.events.now
        self._inflight = self.medium.begin(frame, now, airtime)
        stats = self.stats
        if frame.kind is FrameKind.DATA:
            stats.data_transmissions += 1
        else:
            stats.control_transmissions += 1
        stats.busy_time += airtime
        self.events.schedule(airtime, self._complete)

    def _complete(self) -> None:
        """Resolve receptions and run the ARQ logic once the frame leaves the
        air (a bound-method callback: the transmission rides in a slot, not
        in a per-frame closure)."""
        transmission = self._inflight
        self._inflight = None
        now = self.events.now
        receivers = self.medium.complete(transmission, now)
        frame = transmission.frame
        self.sim.deliver(frame, receivers)

        if frame.receiver == BROADCAST:
            self._finish_frame(frame, success=True)
            return

        # Either way the MAC holds for the virtual ACK turnaround.
        self.state = MacState.WAITING_TURNAROUND
        if frame.receiver in receivers:
            self.stats.unicast_successes += 1
            self._finish_success = True
            self.events.schedule(ACK_TURNAROUND, self._finish_inflight)
            return
        # No MAC ACK: retry with a larger contention window or give up.
        self.stats.retries += 1
        if self._attempt > RETRY_LIMIT:
            self.stats.unicast_drops += 1
            self._finish_success = False
            self.events.schedule(ACK_TURNAROUND, self._finish_inflight)
            return
        self.events.schedule(ACK_TURNAROUND, self._start_contention)

    def _finish_inflight(self) -> None:
        """Bound-method ARQ-finish callback (no per-frame closure)."""
        self._finish_frame(self._current_frame, self._finish_success)

    def _finish_frame(self, frame: Frame, success: bool) -> None:
        """Report the outcome to the agent and look for more work."""
        frame.mac_attempts = self._attempt
        self._current_frame = None
        self._attempt = 0
        self.state = MacState.IDLE
        agent = self.agent
        if agent is not None:
            agent.on_frame_sent(frame, success, self.events.now)
        # Immediately contend again if the agent still has traffic.
        self.trigger()
